// bench_e2e: the repository's end-to-end benchmark binary.
//
//   bench_e2e --workload=NAME --seed=N --json=PATH [--seconds=S]
//             [--trace=DIR] [--tiny]
//
// Runs one workload in this process and writes its metrics (median,
// quartiles and n of every metric's repetitions) plus the correctness
// ledger to PATH. With --trace=DIR the run is the traced one: sampled spans
// go to DIR/<workload>.json as Chrome trace-event JSON, and the report
// carries the per-layer metrics. An unknown workload exits 1 with the list;
// a violated conservation law exits 2 without writing a report.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "e2e.h"
#include "span_recorder.h"

namespace e2e {

Summary Summarize(std::vector<double> samples) {
  Summary out;
  out.n = samples.size();
  if (samples.empty()) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  out.median = n % 2 == 1 ? samples[n / 2]
                          : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  if (n < 2) {
    out.p25 = out.p75 = out.median;
    return out;
  }
  // statistics.quantiles(data, n=4, method="exclusive").
  auto cut = [&](long i) {
    const long ld = static_cast<long>(n);
    const long j = std::clamp((i * (ld + 1)) / 4, 1L, ld - 1);
    const long delta = i * (ld + 1) - j * 4;
    return (samples[j - 1] * static_cast<double>(4 - delta) +
            samples[j] * static_cast<double>(delta)) /
           4.0;
  };
  out.p25 = cut(1);
  out.p75 = cut(3);
  return out;
}

void Report::Add(const std::string& name, const std::string& unit,
                 double value) {
  Metric& m = metrics_[name];
  m.unit = unit;
  m.samples.push_back(value);
}

void Report::Set(const std::string& name, const std::string& unit,
                 double value) {
  Metric& m = metrics_[name];
  m.unit = unit;
  m.samples.assign(1, value);
}

const std::vector<double>& Report::Samples(const std::string& name) const {
  static const std::vector<double> kEmpty;
  auto it = metrics_.find(name);
  return it == metrics_.end() ? kEmpty : it->second.samples;
}

double Report::Median(const std::string& name) const {
  return Summarize(Samples(name)).median;
}

void Checker::Law(bool holds, const std::string& what) {
  if (!holds) {
    violations_.push_back(what);
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double HeapBytesInUse() {
  return static_cast<double>(mallinfo2().uordblks);
}

}  // namespace e2e

namespace {

using e2e::Report;

struct Workload {
  const char* name;
  void (*run)(const e2e::RunConfig&, Report*, e2e::Checker*);
  const char* what;
};

constexpr Workload kWorkloads[] = {
    {"chain_d4", e2e::RunChainD4,
     "depth-4 membership chain, closed loop, 1 thread"},
    {"edge_lb", e2e::RunEdgeLb,
     "rakelimit -> katran-lb, closed and open loop, 1 thread"},
    {"nat_churn", e2e::RunNatChurn,
     "conntrack NAT under TCP lifecycles, closed loop, 1 thread"},
    {"scaleout_lb", e2e::RunScaleoutLb,
     "lb chain on 3 shards + migration controller, 4 threads"},
};

const char* FlagValue(const char* arg, const char* flag) {
  const std::size_t n = std::strlen(flag);
  return std::strncmp(arg, flag, n) == 0 ? arg + n : nullptr;
}

bool WriteJson(const std::string& path, const e2e::RunConfig& config,
               const Report& report, const e2e::Checker& checker) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, "
               "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
               "\"metrics\": {",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed),
               config.traced() ? "true" : "false",
               checker.failed() == 0 ? "true" : "false",
               static_cast<unsigned long long>(checker.checked()),
               static_cast<unsigned long long>(checker.failed()));
  bool first = true;
  for (const auto& [name, metric] : report.metrics()) {
    const e2e::Summary s = e2e::Summarize(metric.samples);
    std::fprintf(f,
                 "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                 "\"n\": %zu, \"p25\": %.17g, \"p75\": %.17g}",
                 first ? "" : ",", name.c_str(), s.median, metric.unit.c_str(),
                 s.n, s.p25, s.p75);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Serve every allocation from the heap and never return it to the OS:
  // freed memory is reused without fresh page faults, so set-up time measures
  // construction work rather than this process's first-touch luck.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  e2e::RunConfig config;
  std::string json_path;
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = FlagValue(arg, "--workload=")) {
      config.workload = v;
    } else if (const char* v = FlagValue(arg, "--seed=")) {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = FlagValue(arg, "--seconds=")) {
      config.seconds = std::strtod(v, nullptr);
    } else if (const char* v = FlagValue(arg, "--json=")) {
      json_path = v;
    } else if (const char* v = FlagValue(arg, "--trace=")) {
      trace_dir = v;
    } else if (std::strcmp(arg, "--tiny") == 0) {
      config.tiny = true;
    } else {
      std::fprintf(stderr, "bench_e2e: unknown argument '%s'\n", arg);
      return 1;
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; registered workloads:\n",
                 config.workload.c_str());
    for (const Workload& w : kWorkloads) {
      std::fprintf(stderr, "%-12s %s\n", w.name, w.what);
    }
    return 1;
  }
  if (json_path.empty()) {
    std::fprintf(stderr, "bench_e2e: --json=PATH is required\n");
    return 1;
  }

  e2e::SpanRecorder recorder;
  if (!trace_dir.empty()) {
    config.recorder = &recorder;
  }
  Report report;
  e2e::Checker checker;
  {
    e2e::ScopedSpan span(config.recorder, "workload." + config.workload);
    workload->run(config, &report, &checker);
  }

  if (!checker.violations().empty()) {
    for (const std::string& v : checker.violations()) {
      std::fprintf(stderr, "bench_e2e: conservation law violated: %s\n",
                   v.c_str());
    }
    return 2;
  }

  report.Set("fail_frac", "ratio",
             checker.checked() > 0
                 ? static_cast<double>(checker.failed()) /
                       static_cast<double>(checker.checked())
                 : 1.0);
  report.Set("rss_mb", "MB", e2e::PeakRssMb());
  report.Set("obs.trace.dropped_spans", "count",
             static_cast<double>(recorder.dropped()));
  if (config.traced() &&
      !recorder.WriteChromeTrace(trace_dir + "/" + config.workload + ".json",
                                 "bench_e2e " + config.workload)) {
    return 1;
  }
  return WriteJson(json_path, config, report, checker) ? 0 : 1;
}
