// scaleout_lb: ShardedPipeline::MeasureScaleOut with one
// apps::MakeLbChain replica per shard, built through nf::ShardedChainFactory:
// 3 workers plus the migration controller, 4 threads. The NF code and the
// trace are edge_lb's, so the difference isolates steering, handoff rings
// and the controller. Rates are packets / makespan (the busiest shard's CPU
// time).
//
// Untraced run: eNetSTL and origin replicas with MigrationPolicy{} defaults,
// interleaved. Traced run adds the frozen-table oracle (migration off), the
// steering cost, and a single-core reference for parallel efficiency.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "apps/app_chains.h"
#include "harness.h"
#include "pktgen/sharded_pipeline.h"

namespace e2e {

namespace {

constexpr u32 kShards = 3;

// The run's per-stage counters merged across shards.
std::vector<StageCount> MergedStages(const pktgen::ShardedPipeline::Result& r) {
  std::vector<StageCount> out;
  for (const pktgen::ShardedPipeline::StageBreakdown& s : r.total_stages) {
    out.push_back(
        {s.name, s.in, s.pass, s.drop, s.tx, s.redirect, s.aborted, s.ns});
  }
  return out;
}

// Laws of one sharded run: no worker failed, shard packets sum to the
// budget and to the total, each shard's verdicts sum to its packets, and
// the merged stage counters conserve packets.
void ShardLaws(const std::string& what,
               const pktgen::ShardedPipeline::Result& r, u64 expected,
               Checker* checker) {
  checker->Law(r.failed_workers == 0, what + ": a worker failed");
  checker->Law(r.total.packets == expected,
               what + ": shard packets do not sum to measure_packets");
  u64 sum = 0;
  for (const auto& shard : r.shards) {
    sum += shard.stats.packets;
    checker->Law(shard.stats.passed + shard.stats.dropped +
                         shard.stats.aborted ==
                     shard.stats.packets,
                 what + ": shard verdicts do not sum to its packets");
  }
  checker->Law(sum == r.total.packets,
               what + ": shard packets do not sum to the total");
  StageLaws(what, MergedStages(r), false, checker);
  checker->Checked(r.total.packets, r.total.aborted);
}

}  // namespace

void RunScaleoutLb(const RunConfig& config, Report* report, Checker* checker) {
  SpanRecorder* rec = config.recorder;
  const Trace trace = MakeLbTrace(config);

  pktgen::ShardedPipeline::Options opts;
  opts.num_workers = kShards;
  opts.burst_size = kBurst;
  opts.measure_packets = config.Packets(6'000'000);
  opts.warmup_packets = config.Packets(100'000);
  opts.rss_seed = 0;
  const pktgen::ShardedPipeline pipeline(opts);
  const pktgen::MigrationPolicy migrate;  // defaults
  pktgen::MigrationPolicy frozen;
  frozen.enabled = false;

  // Replicas are built by the engine through this factory at the start of
  // every measured call; they are kept for their counters.
  std::vector<std::shared_ptr<nf::ChainExecutor>> replicas;
  auto factory = [&replicas](apps::CoreKind core) {
    return nf::ShardedChainFactory([core, &replicas](u32) {
      std::shared_ptr<nf::ChainExecutor> chain = apps::MakeLbChain(core);
      replicas.push_back(chain);
      return chain;
    });
  };
  auto run = [&](apps::CoreKind core, const pktgen::MigrationPolicy& policy,
                 const char* what) {
    replicas.clear();
    ScopedSpan span(rec, std::string("pktgen.scaleout.") + what);
    const u64 t0 = NowNs();
    const auto r = pipeline.MeasureScaleOut(factory(core), trace, policy);
    if (rec != nullptr) {
      for (const auto& shard : r.shards) {
        rec->Add("shard.busy", t0,
                 t0 + static_cast<u64>(shard.busy_seconds * 1e9), span.id(), 0,
                 shard.cpu + 1);
      }
    }
    ShardLaws(std::string("scaleout_lb/") + what, r, opts.measure_packets,
              checker);
    return r;
  };

  // Set-up: the shard replicas of one eNetSTL and one origin run (the
  // engine builds them at the start of every measured call).
  auto build = [] {
    std::vector<std::unique_ptr<nf::ChainExecutor>> built;
    for (u32 s = 0; s < kShards; ++s) {
      built.push_back(apps::MakeLbChain(apps::CoreKind::kEnetstl));
      built.push_back(apps::MakeLbChain(apps::CoreKind::kOrigin));
    }
    return built;
  };
  {
    ScopedSpan span(rec, "setup");
    (void)WarmSetup(build);
  }
  {
    // The shard program's burst path against a scalar twin.
    ScopedSpan span(rec, "oracle");
    auto chain = apps::MakeLbChain(apps::CoreKind::kEnetstl);
    auto twin = apps::MakeLbChain(apps::CoreKind::kEnetstl);
    CheckAgainstTwin("scaleout_lb/shard program", *chain, *twin, trace,
                     config.Packets(kOraclePackets), checker);
  }

  std::vector<std::function<void()>> steps;
  steps.push_back([&] {
    ScopedSpan span(rec, "setup.sample");
    SampleSetup(build, report);
  });
  steps.push_back([&] {
    const auto r = run(apps::CoreKind::kEnetstl, migrate, "migrate");
    report->Add("mpps", "Mpps", r.offered_pps / 1e6);
    u64 max_pkts = 0;
    double max_busy = 0.0;
    double busy_sum = 0.0;
    for (const auto& shard : r.shards) {
      max_pkts = std::max(max_pkts, shard.stats.packets);
      max_busy = std::max(max_busy, shard.busy_seconds);
      busy_sum += shard.busy_seconds;
    }
    report->Add("pktgen.scaleout.load_skew", "ratio",
                Ratio(max_pkts * kShards, r.total.packets));
    report->Add("pktgen.scaleout.busy_imbalance", "ratio",
                max_busy * kShards / busy_sum);
    report->Add("pktgen.scaleout.slots_moved", "count",
                static_cast<double>(r.migration.slots_moved));
    report->Add("pktgen.scaleout.handoff_retries", "count",
                static_cast<double>(r.migration.handoff_retries));
    report->Add("pktgen.scaleout.wall_over_makespan", "ratio",
                r.wall_seconds / r.makespan_seconds);
    const u64 walked = r.total.packets + opts.warmup_packets * kShards;
    for (const StageCount& s : MergedStages(r)) {
      if (s.name == "rakelimit") {
        report->Add("apps.rakelimit.ns_per_pkt", "ns", Ratio(s.ns, walked));
        report->Add("apps.rakelimit.drop_ratio", "ratio", Ratio(s.drop, s.in));
      } else if (s.name == "katran-lb") {
        report->Add("apps.katran-lb.ns_per_pkt", "ns", Ratio(s.ns, walked));
      }
    }
    u64 hits = 0;
    u64 lookups = 0;
    for (const auto& chain : replicas) {
      const apps::KatranLb* lb = StageOf<apps::KatranLb>(*chain);
      hits += lb->hits();
      lookups += lb->hits() + lb->misses();
    }
    report->Add("apps.katran-lb.hit_ratio", "ratio", Ratio(hits, lookups));
  });
  steps.push_back([&] {
    const auto r = run(apps::CoreKind::kOrigin, migrate, "origin");
    report->Add("mpps.ebpf", "Mpps", r.offered_pps / 1e6);
  });

  u64 steer_ns = 0;
  u64 steer_pkts = 0;
  std::unique_ptr<nf::ChainExecutor> single;
  if (config.traced()) {
    single = apps::MakeLbChain(apps::CoreKind::kEnetstl);
    steps.push_back([&] {
      SetupSplit split;
      for (u32 s = 0; s < kShards; ++s) {
        (void)SplitLbChain(apps::CoreKind::kEnetstl, &split);
        (void)SplitLbChain(apps::CoreKind::kOrigin, &split);
      }
      split.AddTo(report);
    });
    steps.push_back([&] {
      const auto r = run(apps::CoreKind::kEnetstl, frozen, "static");
      report->Add("mpps.static", "Mpps", r.offered_pps / 1e6);
    });
    steps.push_back([&] {
      // Steering cost through the engine's public slot function.
      ScopedSpan span(rec, "pktgen.steer");
      u64 sink = 0;
      const u64 t0 = NowNs();
      for (const Packet& p : trace) {
        sink += pktgen::RssSlotForPacket(p, pktgen::kRssIndirectionSize,
                                         opts.rss_seed);
      }
      steer_ns += NowNs() - t0 + (sink & 1);
      steer_pkts += trace.size();
    });
    steps.push_back([&] {
      // Single-core reference for the parallel efficiency: edge_lb's
      // measurement, one warm chain across repetitions.
      ScopedSpan span(rec, "measure.single_core");
      const u64 n = config.Packets(2'000'000);
      const auto s = Closed(single->BurstHandler(), trace, n);
      VerdictLaw("scaleout_lb/single core", s, n, checker);
      report->Add("single_core_mpps", "Mpps", Mpps(s));
    });
  }

  // The reference runs on as many threads as there are shards, clocked like
  // the makespan.
  RunRepetitions(config, steps,
                 {kShards, kTableState.table_bytes, kTableState.nominal_ns},
                 report);

  if (config.traced()) {
    report->Set("pktgen.steer.ns_per_pkt", "ns", Ratio(steer_ns, steer_pkts));
    report->Set("pktgen.scaleout.efficiency", "ratio",
                report->Median("mpps") /
                    (kShards * report->Median("single_core_mpps")));
  }
}

}  // namespace e2e
