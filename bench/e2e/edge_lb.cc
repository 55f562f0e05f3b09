// edge_lb: the Fig. 7 L4 edge app, apps::MakeLbChain (rakelimit ->
// katran-lb, fusion armed), on the eNetSTL and origin cores, on the calling
// thread. The only workload where packets queue, and where stateful reads
// and writes dominate.
//
// Untraced run: both cores closed loop, interleaved. Traced run adds the
// open-loop points — Poisson arrivals at two frozen absolute rates through a
// 2048-packet queue, burst 32, MeasuredService with a 50 us ceiling — each
// replayed through a lockstep scalar twin, plus the sampled ledger.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_chains.h"
#include "harness.h"
#include "obs/percentile.h"
#include "pktgen/openloop.h"

namespace e2e {

namespace {

// Frozen absolute rates, about 35% and 50% of the eNetSTL chain's
// closed-loop rate when the benchmark was calibrated. Never recalibrated per
// run: a faster NF must be offered the same load, so its latency gain shows.
constexpr double kLoPps = 1.75e6;
constexpr double kHiPps = 2.5e6;
constexpr u32 kQueue = 2048;
constexpr u64 kMaxServiceNs = 50'000;

// Sojourn quantile over OFFERED packets: a tail-dropped packet counts as
// slower than every served one (it missed every latency limit).
double SojournUs(const pktgen::OpenLoopStats& s, double q) {
  const double served_q =
      std::min(1.0, q * static_cast<double>(s.offered) /
                        static_cast<double>(std::max<u64>(s.served, 1)));
  return obs::HistQuantileInterpolatedNs(s.sojourn, served_q) / 1e3;
}

void OpenLoopLaws(const std::string& what, const pktgen::OpenLoopStats& s,
                  Checker* checker) {
  checker->Law(s.offered == s.admitted + s.dropped,
               what + ": offered != admitted + dropped");
  checker->Law(s.admitted == s.served, what + ": admitted != served");
  checker->Law(s.served == s.passed + s.dropped_verdicts + s.aborted,
               what + ": served != verdict histogram");
  checker->Law(s.max_queue_depth <= kQueue,
               what + ": queue deeper than its capacity");
  checker->Checked(s.served, s.aborted);
}

}  // namespace

void RunEdgeLb(const RunConfig& config, Report* report, Checker* checker) {
  SpanRecorder* rec = config.recorder;
  const Trace trace = MakeLbTrace(config);
  const u64 n_enetstl = config.Packets(2'000'000);
  const u64 n_origin = config.Packets(2'000'000);

  struct Chains {
    std::unique_ptr<nf::ChainExecutor> enetstl, origin;
  };
  auto build = [] {
    Chains c;
    c.enetstl = apps::MakeLbChain(apps::CoreKind::kEnetstl);
    c.origin = apps::MakeLbChain(apps::CoreKind::kOrigin);
    return c;
  };
  Chains chains;
  {
    ScopedSpan span(rec, "setup");
    chains = WarmSetup(build);
  }
  {
    // Twins see the same prefix through scalar Process; the measured
    // chains then continue from that (checked) state.
    ScopedSpan span(rec, "oracle");
    const u64 n = config.Packets(kOraclePackets);
    auto twin_e = apps::MakeLbChain(apps::CoreKind::kEnetstl);
    auto twin_o = apps::MakeLbChain(apps::CoreKind::kOrigin);
    CheckAgainstTwin("edge_lb/eNetSTL", *chains.enetstl, *twin_e, trace, n,
                     checker);
    CheckAgainstTwin("edge_lb/origin", *chains.origin, *twin_o, trace, n,
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
    apps::KatranLb* lb = StageOf<apps::KatranLb>(*chains.enetstl);
    apps::RakeLimit* rl = StageOf<apps::RakeLimit>(*chains.enetstl);
    const u64 hits0 = lb->hits(), misses0 = lb->misses();
    const u64 drop0 = rl->dropped(), pass0 = rl->passed();
    const auto before = StageCounts(*chains.enetstl);
    const auto s = Closed(chains.enetstl->BurstHandler(), trace, n_enetstl);
    const auto after = StageCounts(*chains.enetstl);
    VerdictLaw("edge_lb/eNetSTL", s, n_enetstl, checker);
    StageLaws("edge_lb/eNetSTL", after, true, checker);
    report->Add("mpps", "Mpps", Mpps(s));
    const u64 walked = n_enetstl + kWarmupPackets;
    report->Add("apps.rakelimit.ns_per_pkt", "ns",
                StageNsPerPacket(before, after, "rakelimit", walked));
    report->Add("apps.katran-lb.ns_per_pkt", "ns",
                StageNsPerPacket(before, after, "katran-lb", walked));
    report->Add("apps.rakelimit.drop_ratio", "ratio",
                Ratio(rl->dropped() - drop0,
                      rl->dropped() - drop0 + rl->passed() - pass0));
    report->Add("apps.katran-lb.hit_ratio", "ratio",
                Ratio(lb->hits() - hits0,
                      lb->hits() - hits0 + lb->misses() - misses0));
  });
  steps.push_back([&] {
    ScopedSpan span(rec, "measure.origin");
    const ebpf::HelperStats h0 = ebpf::GlobalHelperStats();
    const auto s = Closed(chains.origin->BurstHandler(), trace, n_origin);
    helpers = {h0, ebpf::GlobalHelperStats(), n_origin + kWarmupPackets};
    VerdictLaw("edge_lb/origin", s, n_origin, checker);
    StageLaws("edge_lb/origin", StageCounts(*chains.origin), true, checker);
    report->Add("mpps.ebpf", "Mpps", Mpps(s));
  });

  // Traced run: open loop, sampled ledger, harness.
  std::unique_ptr<nf::ChainExecutor> open;
  std::unique_ptr<nf::ChainExecutor> open_twin;
  std::vector<std::pair<u32, XdpAction>> served_log;
  pktgen::OpenLoopConfig ol;
  ol.queue_capacity = kQueue;
  ol.burst_size = kBurst;
  ol.max_service_ns = kMaxServiceNs;
  ol.served_log = &served_log;
  const pktgen::OpenLoopEngine engine(ol);
  u64 points = 0;  // open-loop points run so far: each draws new arrivals

  // One open-loop point through the open-loop chain; its served log (service
  // order) then goes through the lockstep scalar twin, which must agree
  // verdict for verdict — overload may drop packets, never change decisions.
  auto open_point = [&](double rate_pps, bool hi) {
    const std::vector<u64> arrivals = pktgen::MakePoissonArrivals(
        rate_pps, static_cast<u32>(trace.size()),
        config.seed * 1000003 + points++);
    served_log.clear();
    // MeasuredService keeps a non-owning reference: the adapter must live.
    const auto handler = open->BurstHandler();
    const pktgen::ServiceModel measured = pktgen::MeasuredService(handler);
    u64 service_ns = 0;
    const pktgen::ServiceModel service = [&](XdpContext* c, u32 n,
                                             XdpAction* v) {
      const u64 ns = measured(c, n, v);
      service_ns += std::min(ns, kMaxServiceNs);
      return ns;
    };
    const char* tag = hi ? "hi" : "lo";
    pktgen::OpenLoopStats s;
    u64 wall_ns = 0;
    {
      ScopedSpan span(rec, std::string("pktgen.openloop.run.") + tag);
      const u64 t0 = NowNs();
      s = engine.Run(trace, arrivals, service);
      wall_ns = NowNs() - t0;
    }
    OpenLoopLaws(std::string("edge_lb/open-loop ") + tag, s, checker);
    {
      ScopedSpan span(rec, "oracle.served_log");
      u64 divergent = 0;
      for (const auto& [idx, verdict] : served_log) {
        Packet copy = trace[idx];
        XdpContext ctx = ContextOf(copy);
        divergent += open_twin->Process(ctx) != verdict ? 1 : 0;
      }
      CountOracle(std::string("edge_lb/open-loop ") + tag, served_log.size(),
                  divergent, checker);
    }
    const double p50 = SojournUs(s, 0.50);
    report->Add(std::string("p50_us.") + tag, "us", p50);
    report->Add("pktgen.openloop.harness_ns_per_pkt", "ns",
                (static_cast<double>(wall_ns) -
                 static_cast<double>(service_ns)) /
                    static_cast<double>(s.offered));
    const double service_p50 =
        obs::HistQuantileInterpolatedNs(s.service, 0.50) / 1e3;
    if (!hi) {
      report->Add("p99_us.lo", "us", SojournUs(s, 0.99));
      report->Add("pktgen.openloop.sojourn_us.p999.lo", "us",
                  SojournUs(s, 0.999));
      report->Add("pktgen.openloop.service_us.p50", "us", service_p50);
      report->Add("pktgen.openloop.service_us.p99", "us",
                  obs::HistQuantileInterpolatedNs(s.service, 0.99) / 1e3);
    } else {
      report->Add("drop_frac.hi", "ratio", s.drop_fraction());
      report->Add("pktgen.openloop.max_queue_depth.hi", "count",
                  static_cast<double>(s.max_queue_depth));
      report->Add("pktgen.openloop.sojourn_us.p99.hi", "us",
                  SojournUs(s, 0.99));
      report->Add("pktgen.openloop.queue_wait_us.p50", "us",
                  p50 - service_p50);
    }
  };
  ChainSampler sampler;
  sampler.recorder = rec;

  if (config.traced()) {
    steps.push_back([&] {
      SetupSplit split;
      (void)SplitLbChain(apps::CoreKind::kEnetstl, &split);
      (void)SplitLbChain(apps::CoreKind::kOrigin, &split);
      split.AddTo(report);
    });
    open = apps::MakeLbChain(apps::CoreKind::kEnetstl);
    open_twin = apps::MakeLbChain(apps::CoreKind::kEnetstl);
    {
      ScopedSpan span(rec, "oracle");
      CheckAgainstTwin("edge_lb/open-loop", *open, *open_twin, trace,
                       config.Packets(kOraclePackets), checker);
    }
    steps.push_back([&] { open_point(kLoPps, false); });
    steps.push_back([&] { open_point(kHiPps, true); });
    steps.push_back([&] {
      ScopedSpan span(rec, "measure.enetstl.traced");
      sampler.parent = span.id();
      auto handler = [&](XdpContext* c, u32 n, XdpAction* v) {
        SampledChainBurst(*chains.enetstl, &sampler, c, n, v);
      };
      const auto s = Closed(handler, trace, n_enetstl);
      VerdictLaw("edge_lb/eNetSTL traced", s, n_enetstl, checker);
      report->Add("traced_mpps", "Mpps", Mpps(s));
      sampler.EndRepetition(report);
    });
    steps.push_back([&] {
      ScopedSpan span(rec, "measure.harness");
      report->Add("pktgen.harness_ns_per_pkt", "ns",
                  HarnessNsPerPacket(trace, n_enetstl, nullptr));
    });
  }

  RunRepetitions(config, steps, kTableState, report);

  if (config.traced()) {
    ReportEbpfHelpers(report, helpers, report->Median("mpps.ebpf"));
    const nf::FusionStats& f = chains.enetstl->fusion_stats();
    const std::vector<StageCount> stages = StageCounts(*chains.enetstl);
    report->Set("nf.chain.fused_share", "ratio",
                Ratio(f.fused_packets, stages.empty() ? 0 : stages[0].in));
    ReportLedger(report, report->Median("pktgen.harness_ns_per_pkt") +
                             report->Median("nf.chain.ns_per_pkt"));
  }
}

}  // namespace e2e
