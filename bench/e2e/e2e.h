// Shared plumbing of the end-to-end benchmark (bench_e2e): run
// configuration, repeated-sample metrics, the correctness ledger, and the
// workload entry points.
//
// Every metric a workload reports is a list of samples, one per interleaved
// repetition; the report carries the median with its quartiles and n. There
// is no best-of-N anywhere. Correctness is counted (oracle mismatches and
// XDP_ABORTED verdicts) and conservation laws are fatal: a violated law
// makes the process exit nonzero without writing a report.
#ifndef ENETSTL_BENCH_E2E_E2E_H_
#define ENETSTL_BENCH_E2E_E2E_H_

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "ebpf/types.h"

namespace e2e {

using ebpf::u16;
using ebpf::u32;
using ebpf::u64;

class SpanRecorder;

inline u64 NowNs() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now()
                                  .time_since_epoch())
                              .count());
}

inline double SecondsSince(u64 start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

struct RunConfig {
  std::string workload;
  u64 seed = 1;
  // Wall-clock budget of the repetition loop; input generation, warm-up
  // builds and the oracle prefix come on top.
  double seconds = 10.0;
  // Smoke scale: tiny traces and repetitions, for the functional smoke run.
  bool tiny = false;
  // Non-null in the traced run: control spans and sampled burst spans go
  // here, and the workload adds its traced-only measurements.
  SpanRecorder* recorder = nullptr;

  bool traced() const { return recorder != nullptr; }
  // Scales a packet count down for smoke runs.
  u64 Packets(u64 full) const { return tiny ? full / 64 + 64 : full; }
};

// Median and exclusive-method quartiles (what Python's
// statistics.quantiles(n=4) returns), so bench/e2e/agree.py and this
// binary agree on every number they print.
struct Summary {
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  std::size_t n = 0;
};
Summary Summarize(std::vector<double> samples);

// Named metrics with their samples. A workload reports what it measures;
// run.py maps the report onto BENCHMARK.json's lists, where a per-layer
// metric of a layer the workload does not cross reads 0.
class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value);
  // Sets a single-valued metric (counts, ratios computed once per run).
  void Set(const std::string& name, const std::string& unit, double value);
  const std::vector<double>& Samples(const std::string& name) const;
  double Median(const std::string& name) const;

  struct Metric {
    std::string unit;
    std::vector<double> samples;
  };
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

// Correctness ledger. Packets whose verdict (and frame) were compared
// against a scalar twin, or whose verdict was inspected for XDP_ABORTED,
// are `checked`; mismatches and aborts are `failed`. Conservation laws are
// fatal and recorded separately.
class Checker {
 public:
  void Checked(u64 packets, u64 failed) {
    checked_ += packets;
    failed_ += failed;
  }
  // Records a conservation law; a false `holds` is fatal for the run.
  void Law(bool holds, const std::string& what);

  u64 checked() const { return checked_; }
  u64 failed() const { return failed_; }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  u64 checked_ = 0;
  u64 failed_ = 0;
  std::vector<std::string> violations_;
};

// Peak resident set size of this process in MB, and the bytes the heap
// currently has allocated (glibc's allocator statistics).
double PeakRssMb();
double HeapBytesInUse();

// Workload entry points, one file each. Each fills `report` and `checker`.
void RunChainD4(const RunConfig& config, Report* report, Checker* checker);
void RunEdgeLb(const RunConfig& config, Report* report, Checker* checker);
void RunNatChurn(const RunConfig& config, Report* report, Checker* checker);
void RunScaleoutLb(const RunConfig& config, Report* report, Checker* checker);

}  // namespace e2e

#endif  // ENETSTL_BENCH_E2E_E2E_H_
