// nat_churn: nf::ConntrackEnetstl vs nf::ConntrackEbpf in CtMode::kNat, on
// the calling thread, under TCP lifecycles (SYN, data, RST) from a sliding
// window of concurrently open flows 1.5x the table capacity. The virtual
// clock advances one wheel slot per burst through AdvanceTo, so timewheel
// aging, LRU pair eviction, NAT binding allocation and in-place frame
// rewrite all run: the write-heavy use of conntrack, arena and timewheel.
//
// Untraced run: both engines, interleaved. Traced run adds the sampled
// ProcessBurst/AdvanceTo ledger, the harness cost and the arena footprint.
#include <cstring>
#include <memory>
#include <vector>

#include "harness.h"
#include "nf/conntrack.h"
#include "pktgen/flowgen.h"

namespace e2e {

namespace {

constexpr u32 kTableFlows = 16384;
constexpr u32 kWindow = kTableFlows * 3 / 2;  // concurrently open flows
constexpr u64 kWheelSlotNs = 1ull << 20;

nf::ConntrackConfig NatConfig() {
  nf::ConntrackConfig config;
  config.mode = nf::CtMode::kNat;
  config.table.max_flows = kTableFlows;
  config.table.wheel_granularity_ns = kWheelSlotNs;
  // Flows never see a reply, so they stay NEW. A NEW timeout of 1024 wheel
  // slots (bursts) is a little longer than a flow's mean gap between packets
  // in the window: most packets hit, about a quarter of the gaps time out,
  // and the window overflows the table, so LRU pair eviction runs too.
  config.table.new_timeout_ns = 1024 * kWheelSlotNs;
  return config;
}

// Each packet picks an open flow uniformly from the window; a flow's first
// packet is a SYN, its last an RST (after 3..10 packets), and a closed
// flow's slot reopens with a fresh flow.
Trace ChurnTrace(u32 length, u64 seed) {
  std::vector<ebpf::FiveTuple> pool =
      pktgen::MakeFlowPopulation(kWindow * 4, seed);
  for (ebpf::FiveTuple& t : pool) {
    t.protocol = nf::kProtoTcp;
  }
  pktgen::Rng rng(seed ^ 0x6e61745f636875ull);
  struct Open {
    u32 flow;
    u32 sent;
    u32 length;
  };
  u32 next_flow = 0;
  auto fresh = [&] {
    return Open{next_flow++ % static_cast<u32>(pool.size()), 0,
                3 + static_cast<u32>(rng.NextBounded(8))};
  };
  std::vector<Open> open(kWindow);
  for (Open& o : open) {
    o = fresh();
  }
  Trace trace;
  trace.reserve(length);
  for (u32 i = 0; i < length; ++i) {
    Open& o = open[rng.NextBounded(kWindow)];
    trace.push_back(Packet::FromTuple(pool[o.flow]));
    trace.back().frame[ebpf::kL4HeaderOffset + 13] =
        o.sent == 0 ? nf::kTcpSyn
                    : (o.sent + 1 == o.length ? nf::kTcpRst : nf::kTcpAck);
    if (++o.sent == o.length) {
      o = fresh();
    }
  }
  return trace;
}

// The datapath of one measured burst: fresh frames (rewrites are in place
// and the pipeline's trace wraps), the engine's burst, then one wheel slot
// of virtual time. Both engines pay the same copy.
struct NatDatapath {
  nf::ConntrackBase* nf = nullptr;
  u64 now = 0;
  Packet copies[kBurst];
  XdpContext scratch[kBurst];

  void CopyIn(XdpContext* ctxs, u32 count) {
    for (u32 i = 0; i < count; ++i) {
      std::memcpy(copies[i].frame, ctxs[i].data, ebpf::kFrameSize);
      scratch[i] = ContextOf(copies[i]);
    }
  }
  void Tick() {
    now += kWheelSlotNs;
    nf->AdvanceTo(now);
  }
  void operator()(XdpContext* ctxs, u32 count, XdpAction* verdicts) {
    CopyIn(ctxs, count);
    nf->ProcessBurst(scratch, count, verdicts);
    Tick();
  }
};

// Burst path against a scalar twin of the same engine through the same
// clock schedule; rewritten frames must match byte for byte.
void CheckEngine(const char* what, NatDatapath& path, nf::ConntrackBase& twin,
                 const Trace& trace, u64 count, Checker* checker) {
  u64 twin_now = 0;
  const u64 bad = TwinMismatches(
      trace, count,
      [&](XdpContext* c, u32 n, XdpAction* v) {
        path.nf->ProcessBurst(c, n, v);
      },
      [&](XdpContext& c) { return twin.Process(c); },
      [&] {
        path.Tick();
        twin_now += kWheelSlotNs;
        twin.AdvanceTo(twin_now);
      });
  CountOracle(what, count, bad, checker);
}

// Heap bytes per tracked flow of the eNetSTL engine (arena slots, index and
// timer wheel): allocator growth of a table constructed and filled to
// capacity.
double ArenaBytesPerFlow(u64 seed) {
  nf::ConntrackConfig config = NatConfig();
  config.mode = nf::CtMode::kTrack;
  const std::vector<ebpf::FiveTuple> flows =
      pktgen::MakeFlowPopulation(kTableFlows, seed);
  const double before = HeapBytesInUse();
  auto table = std::make_unique<nf::ConntrackEnetstl>(config);
  for (const ebpf::FiveTuple& t : flows) {
    Packet p = Packet::FromTuple(t);
    XdpContext ctx = ContextOf(p);
    (void)table->Process(ctx);
  }
  return (HeapBytesInUse() - before) /
         static_cast<double>(std::max<u32>(table->table().live_flows(), 1));
}

}  // namespace

void RunNatChurn(const RunConfig& config, Report* report, Checker* checker) {
  SpanRecorder* rec = config.recorder;
  const Trace trace =
      ChurnTrace(static_cast<u32>(config.Packets(1u << 18)), config.seed);
  const u64 n_enetstl = config.Packets(2'000'000);
  const u64 n_ebpf = config.Packets(2'000'000);

  struct Engines {
    std::unique_ptr<nf::ConntrackEnetstl> enetstl;
    std::unique_ptr<nf::ConntrackEbpf> ebpf;
  };
  auto build = [] {
    Engines e;
    e.enetstl = std::make_unique<nf::ConntrackEnetstl>(NatConfig());
    e.ebpf = std::make_unique<nf::ConntrackEbpf>(NatConfig());
    return e;
  };
  Engines engines;
  {
    ScopedSpan span(rec, "setup");
    engines = WarmSetup(build);
  }
  NatDatapath enetstl_path;
  enetstl_path.nf = engines.enetstl.get();
  NatDatapath ebpf_path;
  ebpf_path.nf = engines.ebpf.get();
  {
    ScopedSpan span(rec, "oracle");
    const u64 n = config.Packets(kOraclePackets);
    nf::ConntrackEnetstl twin_e(NatConfig());
    nf::ConntrackEbpf twin_b(NatConfig());
    CheckEngine("nat_churn/eNetSTL", enetstl_path, twin_e, trace, n, checker);
    CheckEngine("nat_churn/eBPF", ebpf_path, twin_b, trace, n, checker);
  }

  std::vector<std::function<void()>> steps;
  HelperWindow helpers;
  steps.push_back([&] {
    ScopedSpan span(rec, "setup.sample");
    SampleSetup(build, report);
  });
  steps.push_back([&] {
    ScopedSpan span(rec, "measure.enetstl");
    nf::ConntrackEnetstl& ct = *engines.enetstl;
    const nf::FlowTable::Stats t0 = ct.table().stats();
    const u64 hits0 = ct.hits(), misses0 = ct.misses();
    const auto s = Closed(enetstl_path, trace, n_enetstl);
    const nf::FlowTable::Stats t1 = ct.table().stats();
    const u64 walked = n_enetstl + kWarmupPackets;
    VerdictLaw("nat_churn/eNetSTL", s, n_enetstl, checker);
    checker->Law(ct.hits() - hits0 + ct.misses() - misses0 == walked,
                 "nat_churn/eNetSTL: hits + misses != packets");
    checker->Law(ct.table().live_flows() <= kTableFlows,
                 "nat_churn/eNetSTL: more live flows than table capacity");
    report->Add("mpps", "Mpps", Mpps(s));
    const double kpkts = static_cast<double>(walked) / 1e3;
    report->Add("nf.conntrack.hit_ratio", "ratio",
                Ratio(ct.hits() - hits0, walked));
    report->Add("nf.conntrack.inserts_per_kpkt", "1/kpkt",
                static_cast<double>(t1.inserts - t0.inserts) / kpkts);
    report->Add("nf.conntrack.lru_evictions_per_kpkt", "1/kpkt",
                static_cast<double>(t1.lru_evictions - t0.lru_evictions) /
                    kpkts);
    report->Add("nf.conntrack.timeout_evictions_per_kpkt", "1/kpkt",
                static_cast<double>(t1.timeout_evictions -
                                    t0.timeout_evictions) /
                    kpkts);
    report->Add("nf.conntrack.expired_lazy_per_kpkt", "1/kpkt",
                static_cast<double>(t1.expired_lazy - t0.expired_lazy) /
                    kpkts);
  });
  steps.push_back([&] {
    ScopedSpan span(rec, "measure.ebpf");
    const ebpf::HelperStats h0 = ebpf::GlobalHelperStats();
    const auto s = Closed(ebpf_path, trace, n_ebpf);
    helpers = {h0, ebpf::GlobalHelperStats(), n_ebpf + kWarmupPackets};
    VerdictLaw("nat_churn/eBPF", s, n_ebpf, checker);
    report->Add("mpps.ebpf", "Mpps", Mpps(s));
  });

  // Traced run: the eNetSTL datapath with about 1 burst in 64 timed around
  // ProcessBurst and AdvanceTo separately (per-repetition samples, medians
  // like the rate, as in ChainSampler), and the harness cost.
  u64 sampled_pkts = 0;
  u64 sampled_burst_ns = 0;
  u64 sampled_advance_ns = 0;
  u32 traced_parent = SpanRecorder::kNone;
  auto traced = [&](XdpContext* ctxs, u32 count, XdpAction* verdicts) {
    if (!rec->SampleBurst()) {
      enetstl_path(ctxs, count, verdicts);
      return;
    }
    enetstl_path.CopyIn(ctxs, count);
    const u64 t0 = NowNs();
    enetstl_path.nf->ProcessBurst(enetstl_path.scratch, count, verdicts);
    const u64 t1 = NowNs();
    enetstl_path.Tick();
    const u64 t2 = NowNs();
    const u32 id = rec->Add("nat.burst", t0, t2, traced_parent, rec->bursts());
    rec->Add("nf.conntrack.process_burst", t0, t1, id, rec->bursts());
    rec->Add("nf.conntrack.advance_to", t1, t2, id, rec->bursts());
    sampled_pkts += count;
    sampled_burst_ns += t1 - t0;
    sampled_advance_ns += t2 - t1;
  };
  if (config.traced()) {
    steps.push_back([&] {
      // Construction is the whole set-up: no priming, no verified program.
      SetupSplit split;
      const u64 t0 = NowNs();
      const Engines e = build();
      split.construct = SecondsSince(t0);
      split.AddTo(report);
    });
    steps.push_back([&] {
      ScopedSpan span(rec, "measure.enetstl.traced");
      traced_parent = span.id();
      const auto s = Closed(traced, trace, n_enetstl);
      VerdictLaw("nat_churn/eNetSTL traced", s, n_enetstl, checker);
      report->Add("traced_mpps", "Mpps", Mpps(s));
      report->Add("nf.conntrack.ns_per_pkt", "ns",
                  Ratio(sampled_burst_ns, sampled_pkts));
      report->Add("nf.conntrack.advance_ns_per_pkt", "ns",
                  Ratio(sampled_advance_ns, sampled_pkts));
      sampled_pkts = sampled_burst_ns = sampled_advance_ns = 0;
    });
    steps.push_back([&] {
      ScopedSpan span(rec, "measure.harness");
      NatDatapath copy_only;
      report->Add("pktgen.harness_ns_per_pkt", "ns",
                  HarnessNsPerPacket(trace, n_enetstl,
                                     [&](XdpContext* c, u32 n) {
                                       copy_only.CopyIn(c, n);
                                     }));
    });
  }

  RunRepetitions(config, steps, kTableState, report);

  // A failed insert drops the packet: an operation that failed.
  const u64 insert_failures = engines.enetstl->table().stats().insert_failures;
  report->Set("nf.conntrack.insert_failures", "count",
              static_cast<double>(insert_failures));
  checker->Checked(0, engines.enetstl->dropped() + engines.ebpf->dropped());

  if (config.traced()) {
    ReportEbpfHelpers(report, helpers, report->Median("mpps.ebpf"));
    report->Set("core.arena.bytes_per_flow", "B",
                ArenaBytesPerFlow(config.seed));
    ReportLedger(report, report->Median("pktgen.harness_ns_per_pkt") +
                             report->Median("nf.conntrack.ns_per_pkt") +
                             report->Median("nf.conntrack.advance_ns_per_pkt"));
  }
}

}  // namespace e2e
