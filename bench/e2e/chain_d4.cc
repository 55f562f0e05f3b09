// chain_d4: nf::MakeBenchChain({cuckoo-filter, vbf-membership,
// cuckoo-filter, vbf-membership}) in the three variants, exactly as the
// function returns them, closed loop on the calling thread. Traffic is
// uniform over the 2048 flows resident in every stage, so every packet walks
// all four stages: chain dispatch, the tail-call model and the membership
// kfuncs do nearly all the work.
//
// Untraced run: eNetSTL and eBPF chains, interleaved. Traced run adds the
// kernel chain, the reconfiguration storm (a fusion-armed chain driven
// through nf::ChainReconfig with an inline twin swap every 256 bursts and no
// manual promotion), the sampled eNetSTL ledger and the harness cost.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "nf/reconfig.h"
#include "obs/percentile.h"
#include "pktgen/flowgen.h"

namespace e2e {

namespace {

const std::vector<std::string> kStages = {"cuckoo-filter", "vbf-membership",
                                          "cuckoo-filter", "vbf-membership"};
constexpr u32 kStormSwapPeriod = 256;  // bursts between storm swaps

double QuantileUs(std::vector<double> us, double q) {
  if (us.empty()) {
    return 0.0;
  }
  std::sort(us.begin(), us.end());
  return obs::SortedQuantile(us.data(), us.size(), q);
}

// One measured chain step: rate, verdict/stage laws, per-stage ns/pkt.
struct ChainStep {
  const char* what;
  nf::ChainExecutor* chain;
  const char* mpps_metric;
  const char* stage_suffix;  // "" for eNetSTL, ".ebpf", ".kernel"
};

void MeasureChain(const ChainStep& step, const Trace& trace, u64 packets,
                  Report* report, Checker* checker) {
  const auto before = StageCounts(*step.chain);
  const auto s = Closed(step.chain->BurstHandler(), trace, packets);
  const auto after = StageCounts(*step.chain);
  VerdictLaw(step.what, s, packets, checker);
  StageLaws(step.what, after, true, checker);
  report->Add(step.mpps_metric, "Mpps", Mpps(s));
  const u64 walked = packets + kWarmupPackets;
  for (const char* stage : {"cuckoo-filter", "vbf-membership"}) {
    report->Add(std::string("nf.") + stage + ".ns_per_pkt" + step.stage_suffix,
                "ns", StageNsPerPacket(before, after, stage, walked));
  }
}

}  // namespace

void RunChainD4(const RunConfig& config, Report* report, Checker* checker) {
  SpanRecorder* rec = config.recorder;
  // The registry primes 3500 env flows into each cuckoo filter and 2048
  // into each VBF, so the first 2048 are resident in every stage.
  nf::BenchEnv env;
  env.flows = pktgen::MakeFlowPopulation(4096, config.seed);
  env.uniform = pktgen::MakeUniformTrace(env.flows, 16384, config.seed + 1);
  env.zipf = env.uniform;
  const std::vector<ebpf::FiveTuple> resident(env.flows.begin(),
                                              env.flows.begin() + 2048);
  const Trace trace = pktgen::MakeUniformTrace(
      resident, static_cast<u32>(config.Packets(1u << 16)), config.seed + 2);
  const u64 n_enetstl = config.Packets(2'000'000);
  const u64 n_ebpf = config.Packets(2'000'000);

  struct Chains {
    std::unique_ptr<nf::ChainExecutor> enetstl, ebpf;
  };
  auto build = [&] {
    Chains c;
    c.enetstl = nf::MakeBenchChain(kStages, nf::Variant::kEnetstl, env);
    c.ebpf = nf::MakeBenchChain(kStages, nf::Variant::kEbpf, env);
    return c;
  };
  Chains chains;
  {
    ScopedSpan span(rec, "setup");
    chains = WarmSetup(build);
  }
  checker->Law(chains.enetstl != nullptr && chains.ebpf != nullptr,
               "chain_d4: MakeBenchChain failed");
  if (chains.enetstl == nullptr || chains.ebpf == nullptr) {
    return;
  }
  {
    ScopedSpan span(rec, "oracle");
    const u64 n = config.Packets(kOraclePackets);
    auto twin_e = nf::MakeBenchChain(kStages, nf::Variant::kEnetstl, env);
    auto twin_b = nf::MakeBenchChain(kStages, nf::Variant::kEbpf, env);
    CheckAgainstTwin("chain_d4/eNetSTL", *chains.enetstl, *twin_e, trace, n,
                     checker);
    CheckAgainstTwin("chain_d4/eBPF", *chains.ebpf, *twin_b, trace, n,
                     checker);
  }

  std::vector<std::function<void()>> steps;
  HelperWindow helpers;
  steps.push_back([&] {
    ScopedSpan span(rec, "setup.sample");
    SampleSetup(build, report);
  });
  steps.push_back([&] {
    ScopedSpan span(rec, "measure.enetstl");
    MeasureChain({"chain_d4/eNetSTL", chains.enetstl.get(), "mpps", ""}, trace,
                 n_enetstl, report, checker);
  });
  steps.push_back([&] {
    ScopedSpan span(rec, "measure.ebpf");
    const ebpf::HelperStats h0 = ebpf::GlobalHelperStats();
    MeasureChain({"chain_d4/eBPF", chains.ebpf.get(), "mpps.ebpf", ".ebpf"},
                 trace, n_ebpf, report, checker);
    helpers = {h0, ebpf::GlobalHelperStats(), n_ebpf + kWarmupPackets};
  });

  // Traced run: kernel chain, storm, sampled ledger, harness.
  std::unique_ptr<nf::ChainExecutor> kernel;
  std::unique_ptr<nf::ChainExecutor> storm;
  std::unique_ptr<nf::ChainReconfig> plane;
  std::vector<std::unique_ptr<nf::NetworkFunction>> twins;
  std::vector<double> swap_us;
  u64 storm_bursts = 0;
  u64 swap_failures = 0;
  nf::SwapOptions inline_swap;
  inline_swap.warmup_bursts = 0;
  inline_swap.transfer_state = false;  // the twin is already warm
  const nf::NfEntry* cuckoo = nf::NfRegistry::Global().Lookup("cuckoo-filter");
  auto refill_twins = [&](u64 packets) {
    ScopedSpan span(rec, "setup.storm_twins");
    const u64 swaps = (packets + kWarmupPackets) / kBurst / kStormSwapPeriod + 2;
    while (twins.size() < swaps) {
      twins.push_back(
          nf::MakeVariantSetup(*cuckoo, nf::Variant::kEnetstl, env).nf);
    }
  };
  auto storm_handler = [&](XdpContext* ctxs, u32 count, XdpAction* verdicts) {
    plane->ProcessBurst(ctxs, count, verdicts);
    if (++storm_bursts % kStormSwapPeriod == 0 && !twins.empty()) {
      ScopedSpan span(rec, "nf.reconfig.swap");
      const nf::ReconfigResult r = plane->SwapNfWith(
          "cuckoo-filter", std::move(twins.back()), inline_swap);
      twins.pop_back();
      if (r.ok()) {
        swap_us.push_back(static_cast<double>(plane->stats().last_swap_ns) /
                          1e3);
      } else {
        ++swap_failures;
      }
    }
  };
  ChainSampler sampler;
  sampler.recorder = rec;

  if (config.traced()) {
    steps.push_back([&] {
      SetupSplit split;
      for (const nf::Variant v : {nf::Variant::kEnetstl, nf::Variant::kEbpf}) {
        (void)SplitBenchChain(kStages, v, env, &split);
      }
      split.AddTo(report);
    });
    kernel = nf::MakeBenchChain(kStages, nf::Variant::kKernel, env);
    storm = nf::MakeBenchChain(kStages, nf::Variant::kEnetstl, env);
    // Armed the way apps::MakeLbChain arms a deployed chain.
    storm->EnableFusion();
    plane = std::make_unique<nf::ChainReconfig>(*storm);
    {
      ScopedSpan span(rec, "oracle");
      const u64 n = config.Packets(kOraclePackets);
      auto twin_k = nf::MakeBenchChain(kStages, nf::Variant::kKernel, env);
      CheckAgainstTwin("chain_d4/kernel", *kernel, *twin_k, trace, n, checker);
      // The storm path, swaps included, against an untouched scalar twin.
      auto twin_s = nf::MakeBenchChain(kStages, nf::Variant::kEnetstl, env);
      refill_twins(n);
      CountOracle("chain_d4/storm", n,
                  TwinMismatches(trace, n, storm_handler,
                                 [&](XdpContext& c) {
                                   return twin_s->Process(c);
                                 },
                                 [] {}),
                  checker);
    }
    steps.push_back([&] {
      ScopedSpan span(rec, "measure.kernel");
      MeasureChain({"chain_d4/kernel", kernel.get(), "mpps.kernel", ".kernel"},
                   trace, n_enetstl, report, checker);
    });
    steps.push_back([&] {
      refill_twins(n_enetstl);
      ScopedSpan span(rec, "measure.storm");
      const nf::FusionStats f0 = storm->fusion_stats();
      const auto s = Closed(storm_handler, trace, n_enetstl);
      const nf::FusionStats f1 = storm->fusion_stats();
      VerdictLaw("chain_d4/storm", s, n_enetstl, checker);
      StageLaws("chain_d4/storm", StageCounts(*storm), false, checker);
      report->Add("storm_mpps", "Mpps", Mpps(s));
      const u64 walked = n_enetstl + kWarmupPackets;
      const double mpkts = static_cast<double>(walked) / 1e6;
      report->Add("nf.chain.fused_share", "ratio",
                  Ratio(f1.fused_packets - f0.fused_packets, walked));
      report->Add("nf.chain.promotions", "1/Mpkt",
                  static_cast<double>(f1.promotions - f0.promotions) / mpkts);
      report->Add("nf.chain.demotions", "1/Mpkt",
                  static_cast<double>(f1.demotions - f0.demotions) / mpkts);
      report->Add("nf.chain.generic_bursts", "1/Mpkt",
                  static_cast<double>(f1.generic_bursts - f0.generic_bursts) /
                      mpkts);
    });
    steps.push_back([&] {
      ScopedSpan span(rec, "measure.enetstl.traced");
      sampler.parent = span.id();
      auto handler = [&](XdpContext* c, u32 n, XdpAction* v) {
        SampledChainBurst(*chains.enetstl, &sampler, c, n, v);
      };
      const auto s = Closed(handler, trace, n_enetstl);
      VerdictLaw("chain_d4/eNetSTL traced", s, n_enetstl, checker);
      report->Add("traced_mpps", "Mpps", Mpps(s));
      sampler.EndRepetition(report);
    });
    steps.push_back([&] {
      ScopedSpan span(rec, "measure.harness");
      report->Add("pktgen.harness_ns_per_pkt", "ns",
                  HarnessNsPerPacket(trace, n_enetstl, nullptr));
    });
  }

  RunRepetitions(config, steps, kCacheResidentState, report);

  if (config.traced()) {
    // Every storm swap is an operation that must commit.
    checker->Checked(swap_us.size() + swap_failures, swap_failures);
    report->Set("nf.reconfig.swap_us.p50", "us", QuantileUs(swap_us, 0.50));
    report->Set("nf.reconfig.swap_us.p99", "us", QuantileUs(swap_us, 0.99));
    report->Set("nf.reconfig.rollbacks", "count",
                static_cast<double>(plane->stats().swaps_rolled_back));
    ReportEbpfHelpers(report, helpers, report->Median("mpps.ebpf"));
    ReportLedger(report, report->Median("pktgen.harness_ns_per_pkt") +
                             report->Median("nf.chain.ns_per_pkt"));
  }
}

}  // namespace e2e
