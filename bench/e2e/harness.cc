#include "harness.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

#include "ebpf/maps.h"
#include "pktgen/flowgen.h"

namespace e2e {

std::vector<StageCount> StageCounts(const nf::ChainExecutor& chain) {
  std::vector<StageCount> out;
  for (const nf::ChainStageStats& s : chain.stage_stats()) {
    out.push_back(
        {s.name, s.in, s.pass, s.drop, s.tx, s.redirect, s.aborted, s.ns});
  }
  return out;
}

double StageNsPerPacket(const std::vector<StageCount>& before,
                        const std::vector<StageCount>& after,
                        const std::string& name, u64 packets) {
  u64 ns = 0;
  for (std::size_t i = 0; i < after.size() && i < before.size(); ++i) {
    if (after[i].name == name && after[i].ns >= before[i].ns) {
      ns += after[i].ns - before[i].ns;
    }
  }
  return Ratio(ns, packets);
}

void VerdictLaw(const std::string& what, const pktgen::ThroughputStats& s,
                u64 expected, Checker* checker) {
  checker->Law(s.packets == expected,
               what + ": measured " + std::to_string(s.packets) +
                   " packets, asked for " + std::to_string(expected));
  checker->Law(s.passed + s.dropped + s.aborted == s.packets,
               what + ": verdict histogram does not sum to packets");
  checker->Checked(s.packets, s.aborted);
}

void StageLaws(const std::string& what, const std::vector<StageCount>& stages,
               bool flow, Checker* checker) {
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageCount& s = stages[i];
    checker->Law(s.in == s.pass + s.drop + s.tx + s.redirect + s.aborted,
                 what + ": stage " + std::to_string(i) + " (" + s.name +
                     ") in != pass + drop + tx + redirect + aborted");
    if (flow && i > 0) {
      checker->Law(s.in == stages[i - 1].pass,
                   what + ": stage " + std::to_string(i) +
                       " did not receive exactly the survivors of stage " +
                       std::to_string(i - 1));
    }
  }
}

void CopyFrames(const Trace& trace, std::size_t first, u32 count,
                Packet* out) {
  for (u32 i = 0; i < count; ++i) {
    out[i] = trace[(first + i) % trace.size()];
  }
}

void CountOracle(const std::string& what, u64 count, u64 bad,
                 Checker* checker) {
  if (bad != 0) {
    std::fprintf(stderr,
                 "bench_e2e: %s: %llu of %llu packets diverged from the "
                 "scalar twin\n",
                 what.c_str(), static_cast<unsigned long long>(bad),
                 static_cast<unsigned long long>(count));
  }
  checker->Checked(count, bad);
}

pktgen::ThroughputStats Closed(pktgen::PacketBurstHandler handler,
                               const Trace& trace, u64 packets) {
  pktgen::Pipeline::Options opts;
  opts.warmup_packets = kWarmupPackets;
  opts.measure_packets = packets;
  opts.burst_size = kBurst;
  return pktgen::Pipeline(opts).MeasureThroughputBurst(handler, trace);
}

namespace {

double ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

// Dependent random read-modify-writes over `table` with a 64-bit mix.
u64 ReferenceLoop(std::vector<u64>& table, u64 iters) {
  const u64 mask = table.size() - 1;
  u64 x = 0x9e3779b97f4a7c15ull;
  u64 acc = 0;
  for (u64 i = 0; i < iters; ++i) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 29;
    acc += table[(x + acc) & mask];
    table[(x >> 7) & mask] += acc;
  }
  return acc;
}

// Where the reference loops' results go, so the compiler cannot drop them.
volatile u64 reference_sink = 0;

// The host reference loop of one workload: one table per thread, about
// 0.15 s per pass at nominal speed (1/64 of it when tiny).
class HostReference {
 public:
  HostReference(const ReferenceShape& shape, bool tiny)
      : iters_(static_cast<u64>(0.15e9 / shape.nominal_ns) / (tiny ? 64 : 1)),
        tables_(shape.threads,
                std::vector<u64>(shape.table_bytes / sizeof(u64), 1)),
        sums_(shape.threads, 0) {}

  // ns per iteration of one copy on the calling thread, by wall time: the
  // clock of the pipeline and of set-up.
  double WallNs() {
    const u64 t0 = NowNs();
    sums_[0] += ReferenceLoop(tables_[0], iters_);
    return static_cast<double>(NowNs() - t0) / static_cast<double>(iters_);
  }

  // ns per iteration of the slowest of the concurrent copies, by each
  // thread's CPU time: the makespan's clock. Each thread writes only its
  // own slots.
  double MakespanNs() {
    std::vector<double> cpu_ns(tables_.size(), 0.0);
    {
      std::vector<std::jthread> threads;
      for (std::size_t i = 0; i < tables_.size(); ++i) {
        threads.emplace_back([this, i, &cpu_ns] {
          const double t0 = ThreadCpuNs();
          sums_[i] += ReferenceLoop(tables_[i], iters_);
          cpu_ns[i] = ThreadCpuNs() - t0;
        });
      }
    }  // joined here
    return *std::max_element(cpu_ns.begin(), cpu_ns.end()) /
           static_cast<double>(iters_);
  }

  u64 checksum() const {
    u64 sum = 0;
    for (const u64 s : sums_) {
      sum += s;
    }
    return sum;
  }

 private:
  u64 iters_;
  std::vector<std::vector<u64>> tables_;
  std::vector<u64> sums_;
};

}  // namespace

void RunRepetitions(const RunConfig& config,
                    const std::vector<std::function<void()>>& steps,
                    const ReferenceShape& shape, Report* report) {
  HostReference reference(shape, config.tiny);
  std::vector<std::function<void()>> all = steps;
  all.push_back([&] {
    ScopedSpan span(config.recorder, "host.reference");
    report->Add("host.ref_ns", "ns", reference.WallNs());
    if (shape.threads > 1) {
      report->Add("host.ref_makespan_ns", "ns", reference.MakespanNs());
    }
  });
  const u64 start = NowNs();
  for (u32 rep = 0; rep < kMinReps || SecondsSince(start) < config.seconds;
       ++rep) {
    ScopedSpan span(config.recorder, "rep");
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[(i + rep) % all.size()]();
    }
    const double mpps = report->Samples("mpps").back();
    const double mpps_ebpf = report->Samples("mpps.ebpf").back();
    // Set-up is single-threaded wall time everywhere; the rates are on the
    // makespan's clock when they have one.
    const double wall =
        report->Samples("host.ref_ns").back() / shape.nominal_ns;
    const double rate =
        shape.threads > 1
            ? report->Samples("host.ref_makespan_ns").back() / shape.nominal_ns
            : wall;
    report->Add("mpps.norm", "Mpps", mpps * rate);
    report->Add("mpps.ebpf.norm", "Mpps", mpps_ebpf * rate);
    report->Add("setup_s", "s", report->Samples("setup.raw_s").back() / wall);
    report->Add("speedup.ebpf", "ratio", mpps / mpps_ebpf);
  }
  reference_sink = reference.checksum();
}

void SetupSplit::AddTo(Report* report) const {
  report->Add("setup.construct_s", "s", construct);
  report->Add("setup.prime_s", "s", prime);
  report->Add("setup.load_verify_s", "s", load);
}

std::unique_ptr<nf::ChainExecutor> SplitBenchChain(
    const std::vector<std::string>& stages, nf::Variant variant,
    const nf::BenchEnv& env, SetupSplit* split) {
  auto chain = std::make_unique<nf::ChainExecutor>("chain");
  for (const std::string& name : stages) {
    const nf::NfEntry* entry = nf::NfRegistry::Global().Lookup(name);
    u64 t0 = NowNs();
    ebpf::helpers::SeedPrandom(0xfeed);
    std::unique_ptr<nf::NetworkFunction> stage = entry->factory(variant);
    split->construct += SecondsSince(t0);
    t0 = NowNs();
    if (entry->prime) {
      (void)entry->prime({stage.get()}, env);
    }
    split->prime += SecondsSince(t0);
    chain->AddStage(std::move(stage));
  }
  const u64 t0 = NowNs();
  (void)chain->Load();
  split->load += SecondsSince(t0);
  return chain;
}

void ChainSampler::EndRepetition(Report* report) {
  report->Add("nf.chain.ns_per_pkt", "ns", Ratio(chain_ns, packets));
  report->Add("nf.chain.self_ns_per_pkt", "ns",
              Ratio(chain_ns, packets) - Ratio(stage_ns, packets));
  packets = chain_ns = stage_ns = 0;
}

double HarnessNsPerPacket(const Trace& trace, u64 packets,
                          const std::function<void(XdpContext*, u32)>& extra) {
  auto handler = [&](XdpContext* ctxs, u32 count, XdpAction* verdicts) {
    if (extra) {
      extra(ctxs, count);
    }
    for (u32 i = 0; i < count; ++i) {
      verdicts[i] = XdpAction::kPass;
    }
  };
  return Closed(handler, trace, packets).ns_per_packet;
}

namespace {

u64 HelperCalls(const ebpf::HelperStats& s) {
  return s.prandom_calls + s.ktime_calls + s.map_lookup_calls +
         s.map_update_calls + s.map_delete_calls + s.tail_call_calls +
         s.ringbuf_reserve_calls + s.ringbuf_submit_calls +
         s.ringbuf_discard_calls + s.ringbuf_output_calls;
}

// One out-of-line BPF map lookup (counter bump, compiler barrier, bounds
// check, return): the boundary every eBPF-model helper call pays. The
// paper's Fig. 1 method multiplies it by the call count.
double HelperCrossingNs() {
  ebpf::ArrayMap<u32> map(64);
  constexpr u64 kIters = 4'000'000;
  u64 sink = 0;
  const ebpf::HelperStats saved = ebpf::GlobalHelperStats();
  const u64 t0 = NowNs();
  for (u64 i = 0; i < kIters; ++i) {
    sink += *map.LookupElem(static_cast<u32>(i & 63));
  }
  const u64 t1 = NowNs();
  ebpf::GlobalHelperStats() = saved;  // keep the workload's counts clean
  return (static_cast<double>(t1 - t0) + static_cast<double>(sink & 1)) /
         static_cast<double>(kIters);
}

}  // namespace

void ReportEbpfHelpers(Report* report, const HelperWindow& w,
                       double ebpf_mpps) {
  const double calls =
      Ratio(HelperCalls(w.after) - HelperCalls(w.before), w.packets);
  const double crossing = HelperCrossingNs();
  report->Add("ebpf.helper.calls_per_pkt", "1/pkt", calls);
  report->Add("ebpf.helper.map_lookups_per_pkt", "1/pkt",
              Ratio(w.after.map_lookup_calls - w.before.map_lookup_calls,
                    w.packets));
  report->Add("ebpf.helper.tail_calls_per_pkt", "1/pkt",
              Ratio(w.after.tail_call_calls - w.before.tail_call_calls,
                    w.packets));
  report->Add("ebpf.helper.crossing_ns", "ns", crossing);
  report->Add("ebpf.helper.est_share", "ratio",
              calls * crossing / (1e3 / ebpf_mpps));
}

Trace MakeLbTrace(const RunConfig& config) {
  constexpr u64 kLbPopulationSeed = 0x5eed1b;
  const std::vector<ebpf::FiveTuple> flows =
      pktgen::MakeFlowPopulation(65536, kLbPopulationSeed);
  return pktgen::MakeZipfTrace(flows,
                               static_cast<u32>(config.Packets(1u << 18)), 1.1,
                               config.seed);
}

std::unique_ptr<nf::ChainExecutor> SplitLbChain(apps::CoreKind core,
                                                SetupSplit* split) {
  u64 t0 = NowNs();
  auto chain = std::make_unique<nf::ChainExecutor>("lb-chain");
  chain->AddStage(
      std::make_unique<apps::RakeLimit>(core, apps::RakeLimitConfig{}));
  chain->AddStage(std::make_unique<apps::KatranLb>(core, apps::KatranConfig{}));
  split->construct += SecondsSince(t0);
  t0 = NowNs();
  (void)chain->Load();
  chain->EnableFusion();
  split->load += SecondsSince(t0);
  return chain;
}

void ReportLedger(Report* report, double layers_ns_per_pkt) {
  const double traced_mpps = report->Median("traced_mpps");
  report->Set("ledger.residual_frac", "ratio",
              1.0 - layers_ns_per_pkt / (1e3 / traced_mpps));
  report->Set("obs.trace_overhead_frac", "ratio",
              1.0 - traced_mpps / report->Median("mpps"));
}

}  // namespace e2e
