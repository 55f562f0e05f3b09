// Two-level timing wheel — the paper's Case Study 3 (Carousel traffic
// shaping; Varghese & Lauck hashed/hierarchical timing wheels).
//
// Level 1 covers kTvrSize slots of `granularity_ns` each; level 2 covers
// kTvnSize slots of kTvrSize * granularity_ns each. Enqueue places an element
// by its expiry timestamp; advancing the clock by one slot drains the due
// level-1 bucket, cascading a level-2 bucket down whenever level 1 wraps.
//
// Variants:
//  * TimeWheelEbpf    — each bucket is a separate BPF map element holding a
//                       BPF linked list; every push/pop pays one
//                       bpf_map_lookup_elem plus the verifier-mandated
//                       spin-lock couple. (The 27.1% Carousel degradation.)
//  * TimeWheelKernel  — native bucket queues, no boundary, no locks.
//  * TimeWheelEnetstl — one eNetSTL ListBuckets instance per level; a single
//                       kfunc call per push/pop, percpu, lock-free, with the
//                       occupancy-bitmap FFS for finding due work.
#ifndef ENETSTL_NF_TIMEWHEEL_H_
#define ENETSTL_NF_TIMEWHEEL_H_

#include <vector>

#include "core/list_buckets.h"
#include "ebpf/linklist.h"
#include "ebpf/maps.h"
#include "nf/nf_interface.h"

namespace nf {

inline constexpr u32 kTvrSize = 256;  // level-1 slots (power of two)
inline constexpr u32 kTvnSize = 64;   // level-2 slots (power of two)

struct TimeWheelConfig {
  u64 granularity_ns = 1024;  // width of one level-1 slot; power of two
  u32 capacity = 65536;       // maximum queued elements
};

struct TwElem {
  u64 expires = 0;
  u32 flow = 0;
  u32 pad = 0;
};
static_assert(sizeof(TwElem) == 16);

class TimeWheelBase : public NetworkFunction {
 public:
  explicit TimeWheelBase(const TimeWheelConfig& config) : config_(config) {
    // Slot arithmetic is shift-based (Carousel uses power-of-two slots);
    // a non-power-of-two granularity is rounded down.
    while ((1ull << (shift_ + 1)) <= config.granularity_ns) {
      ++shift_;
    }
    config_.granularity_ns = 1ull << shift_;
  }

  // Queues an element by its expiry time. Returns false when the wheel is
  // full or the expiry lies beyond the covered horizon.
  virtual bool Enqueue(const TwElem& elem) = 0;

  // Advances the clock by one level-1 slot and pops every element that came
  // due, up to `max` of them. Returns the number popped; a return value
  // < `max` means the slot is fully drained. Elements beyond `max` stay in
  // the slot until the wheel comes round to it again.
  virtual u32 AdvanceOneSlot(TwElem* out, u32 max) = 0;

  virtual u32 size() const = 0;

  // Packet path: payload word 0 = 1 -> enqueue at now + offset (payload word
  // 1, in slots); 0 -> advance one slot and drop whatever came due.
  ebpf::XdpAction Process(ebpf::XdpContext& ctx) override;

  std::string_view name() const override { return "timewheel"; }
  const TimeWheelConfig& config() const { return config_; }
  u64 clock_ns() const { return clock_ns_; }
  // One level-1 window of margin is reserved to keep cascades unambiguous.
  u64 horizon_ns() const {
    return config_.granularity_ns * kTvrSize * (kTvnSize - 1);
  }

 protected:
  TimeWheelConfig config_;
  u64 clock_ns_ = 0;
  u32 shift_ = 0;  // log2(granularity_ns)
};

class TimeWheelEbpf : public TimeWheelBase {
 public:
  explicit TimeWheelEbpf(const TimeWheelConfig& config);
  bool Enqueue(const TwElem& elem) override;
  u32 AdvanceOneSlot(TwElem* out, u32 max) override;
  u32 size() const override { return size_; }
  Variant variant() const override { return Variant::kEbpf; }

 private:
  bool PushBucket(u32 index, const TwElem& elem);
  void Cascade();

  // One map element per bucket; level-1 buckets occupy [0, kTvrSize), level-2
  // buckets [kTvrSize, kTvrSize + kTvnSize).
  ebpf::ArrayMap<ebpf::BpfList<TwElem>> bucket_map_;
  std::vector<ebpf::BpfSpinLock> locks_;
  ebpf::BpfObjPool<TwElem> pool_;
  u32 size_ = 0;
};

class TimeWheelKernel : public TimeWheelBase {
 public:
  explicit TimeWheelKernel(const TimeWheelConfig& config);
  bool Enqueue(const TwElem& elem) override;
  u32 AdvanceOneSlot(TwElem* out, u32 max) override;
  u32 size() const override { return size_; }
  Variant variant() const override { return Variant::kKernel; }

 private:
  static constexpr u32 kNil = 0xffffffffu;

  bool PushBucket(u32 index, const TwElem& elem);
  void Cascade();

  // Intrusive bucket queues over a node pool, all inline. A pending bitmap
  // mirrors the Linux timer wheel's pending_map (the kernel baseline pays
  // for occupancy tracking too).
  std::vector<u32> head_;
  std::vector<u32> tail_;
  std::vector<TwElem> elems_;
  std::vector<u32> next_;
  std::vector<u64> pending_;
  u32 free_head_ = kNil;
  u32 size_ = 0;
};

class TimeWheelEnetstl : public TimeWheelBase {
 public:
  explicit TimeWheelEnetstl(const TimeWheelConfig& config);
  bool Enqueue(const TwElem& elem) override;
  u32 AdvanceOneSlot(TwElem* out, u32 max) override;
  u32 size() const override { return size_; }
  Variant variant() const override { return Variant::kEnetstl; }

 private:
  bool PushBucket(u32 index, const TwElem& elem);
  void Cascade();

  // Single list-buckets instance spanning both levels.
  enetstl::ListBuckets buckets_;
  u32 size_ = 0;
};

}  // namespace nf

#endif  // ENETSTL_NF_TIMEWHEEL_H_
