// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent id, burst id). The traced run records
// every control call (construct, prime, Load, SwapNfWith, AdvanceTo,
// OpenLoopEngine::Run, MeasureScaleOut, each measured repetition) and one
// burst in kSampleEvery, with per-stage child spans rebuilt from
// stage_stats() ns deltas around the sampled burst — existing counters only,
// nothing is instrumented inside the library. Spans are kept in memory up to
// a fixed capacity (the rest are counted as dropped) and written at exit as
// Chrome trace-event JSON, with each name's self time (duration minus the
// time covered by its children) in the file's metadata.
#ifndef ENETSTL_BENCH_E2E_SPAN_RECORDER_H_
#define ENETSTL_BENCH_E2E_SPAN_RECORDER_H_

#include <map>
#include <string>
#include <vector>

#include "e2e.h"

namespace e2e {

class SpanRecorder {
 public:
  static constexpr u32 kSampleEvery = 64;
  static constexpr u32 kNone = 0;
  static constexpr std::size_t kCapacity = 1u << 15;  // spans kept

  SpanRecorder();

  // Opens a span now, as a child of the innermost open span; returns its
  // id, or kNone when the recorder is full. Spans close in reverse order.
  u32 Begin(const std::string& name);
  void End(u32 id);
  // Records a finished span with explicit bounds (per-stage children, shard
  // busy time). Returns its id, or kNone when the recorder is full.
  u32 Add(const std::string& name, u64 start_ns, u64 end_ns, u32 parent,
          u64 burst = 0, u32 track = 0);

  // True for one burst in kSampleEvery on average; the id of the sampled
  // burst is bursts(). Gaps are drawn uniformly from [1, 2 * kSampleEvery),
  // so the sample never locks onto a periodic cost (a timewheel that
  // cascades every N slots, a reconfiguration every 256 bursts).
  bool SampleBurst() {
    ++bursts_;
    if (--countdown_ > 0) {
      return false;
    }
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    countdown_ = 1 + static_cast<u32>(rng_ % (2 * kSampleEvery - 1));
    return true;
  }
  u64 bursts() const { return bursts_; }

  u64 dropped() const { return dropped_; }
  std::size_t size() const { return spans_.size(); }

  // Self time per span name: duration minus the union of its children's
  // intervals (children may overlap, e.g. concurrent shards), ns.
  std::map<std::string, double> SelfNs() const;

  bool WriteChromeTrace(const std::string& path,
                        const std::string& process_name) const;

 private:
  struct Span {
    u16 name = 0;
    u32 parent = kNone;
    u32 track = 0;
    u64 start_ns = 0;
    u64 end_ns = 0;
    u64 burst = 0;
  };
  u16 Intern(const std::string& name);

  std::vector<Span> spans_;  // id = index + 1
  std::vector<u32> open_;    // ids of the open Begin spans, innermost last
  std::vector<std::string> names_;
  std::map<std::string, u16> name_ids_;
  u64 bursts_ = 0;
  u32 countdown_ = kSampleEvery;
  u64 rng_ = 0x9e3779b97f4a7c15ull;
  u64 dropped_ = 0;
  u64 origin_ns_;
};

// RAII control span; inert when the recorder is null (untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name) : SpanRecorder::kNone) {
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  u32 id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  u32 id_;
};

}  // namespace e2e

#endif  // ENETSTL_BENCH_E2E_SPAN_RECORDER_H_
