// Shard-failover tests: RSS indirection steering, the least-loaded adopter
// choice, exact accounting when a worker dies mid-measurement and donates
// its flow-groups, and the end-to-end acceptance run — a million-packet
// sharded measurement over pre-populated cuckoo switches with a seeded
// worker kill, finishing with exact counters and every pre-fault key still
// resolvable.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/fault_injector.h"
#include "nf/cuckoo_switch.h"
#include "pktgen/flow_migration.h"
#include "pktgen/flowgen.h"
#include "pktgen/sharded_pipeline.h"

namespace pktgen {
namespace {

using enetstl::FaultInjector;

// The injector is process-global and gtest runs every test in one process:
// each test starts and ends disarmed.
class ShardFailover : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST(RssIndirection, BuildIsRoundRobinOverQueues) {
  const auto table = BuildRssIndirection(3);
  ASSERT_EQ(table.size(), static_cast<std::size_t>(kRssIndirectionSize));
  for (u32 i = 0; i < kRssIndirectionSize; ++i) {
    EXPECT_EQ(table[i], i % 3u);
  }
  // Degenerate queue counts still produce a full, in-range table.
  for (const u32 q : BuildRssIndirection(0)) {
    EXPECT_EQ(q, 0u);
  }
  for (const u32 q : BuildRssIndirection(1)) {
    EXPECT_EQ(q, 0u);
  }
}

// The adopter choice a dying worker (and the controller's re-delivery)
// makes for each donated slot.
TEST(RssIndirection, LeastLoadedQueueSkipsDeadQueuesAndPicksTheLightest) {
  // Queue 1 is dead (and would be the lightest but for that); queue 2 is the
  // lightest survivor.
  EXPECT_EQ(ChooseLeastLoadedQueue({true, false, true, true},
                                   {1000, 0, 10, 500}),
            2u);
  // Ties go to the lowest index; missing load entries count as zero.
  EXPECT_EQ(ChooseLeastLoadedQueue({false, true, true, true}, {9, 5, 5, 7}),
            1u);
  EXPECT_EQ(ChooseLeastLoadedQueue({true, true, true}, {4, 4}), 2u);
}

// With nobody alive there is no adopter (alive.size()), so a dying worker
// drops its slots and leaves the table as it was.
TEST(RssIndirection, RebuildWithNoSurvivorsIsANoOp) {
  EXPECT_EQ(ChooseLeastLoadedQueue({false, false}, {}), 2u);
  EXPECT_EQ(ChooseLeastLoadedQueue({}, {}), 0u);
}

TEST(RssIndirection, RebuildWithDepthsAndNoSurvivorsIsANoOp) {
  EXPECT_EQ(ChooseLeastLoadedQueue({false, false, false, false},
                                   {100, 200, 300, 400}),
            4u);
}

// Queue a flow steers to through `table`.
u32 QueueVia(const std::vector<u32>& table, const ebpf::FiveTuple& flow,
             u32 seed) {
  return table[RssSlotForPacket(Packet::FromTuple(flow),
                                static_cast<u32>(table.size()), seed)];
}

TEST(RssIndirection, SteeringFollowsTheTable) {
  const auto flows = MakeFlowPopulation(256, 31);
  auto table = BuildRssIndirection(4);
  // Re-steer queue 2's slots the way failover does.
  for (u32& q : table) {
    if (q == 2u) {
      q = 3u;
    }
  }
  for (const auto& flow : flows) {
    const u32 q = QueueVia(table, flow, 7);
    EXPECT_LT(q, 4u);
    EXPECT_NE(q, 2u);  // dead queue is unreachable after the re-steer
    EXPECT_EQ(q, QueueVia(table, flow, 7));  // deterministic
  }
}

TEST(RssIndirection, UnparseablePacketLandsOnTheSlotZeroQueue) {
  Packet junk{};  // all-zero frame: no EtherType, 5-tuple parse fails
  std::vector<u32> table(kRssIndirectionSize, 3);
  table[0] = 7;
  EXPECT_EQ(table[RssSlotForPacket(junk, kRssIndirectionSize, 9)], 7u);
  EXPECT_EQ(RssSlotForPacket(junk, kRssIndirectionSize, 9), 0u);
}

TEST(RssIndirection, NonDividingTableSizesStayInRangeAndDeterministic) {
  const auto flows = MakeFlowPopulation(256, 61);
  const auto trace = MakeUniformTrace(flows, 512, 62);
  // Sizes that do not divide (or are not divided by) the queue count or the
  // canonical 128: steering must stay in range, be deterministic, and reach
  // more than one queue once the table is big enough to alias several slots
  // per queue.
  for (const u32 size : {1u, 3u, 5u, 96u, 100u, 127u}) {
    std::vector<u32> table(size);
    for (u32 i = 0; i < size; ++i) {
      table[i] = i % 4u;
    }
    u32 hits[4] = {0, 0, 0, 0};
    for (const auto& flow : flows) {
      const u32 q = QueueVia(table, flow, 7);
      ASSERT_LT(q, 4u);
      EXPECT_EQ(q, QueueVia(table, flow, 7));
      ++hits[q];
    }
    if (size >= 96u) {
      for (const u32 h : hits) {
        EXPECT_GT(h, 0u) << "table size " << size;
      }
    }
    for (const auto& packet : trace) {
      ASSERT_LT(RssSlotForPacket(packet, size, 7), size);
    }
  }
  // Degenerate sizes collapse to slot 0.
  EXPECT_EQ(RssSlotForPacket(trace[0], 0, 7), 0u);
  EXPECT_EQ(RssSlotForPacket(trace[0], 1, 7), 0u);
}

TEST(RssIndirection, SlotAndQueueSteeringAgree) {
  // The engine splits its trace with RssSlotForPacket and serves slot s on
  // worker table[s]: every flow must reach the worker its slot names, also
  // when the worker count does not divide the table.
  const auto flows = MakeFlowPopulation(256, 63);
  const auto trace = MakeUniformTrace(flows, 512, 64);
  const auto table = BuildRssIndirection(5);
  ShardedPipeline::Options opts;
  opts.num_workers = 5;
  opts.burst_size = 16;
  opts.warmup_packets = 0;
  opts.measure_packets = 2'048;
  opts.rss_seed = 11;
  std::vector<std::set<u32>> src_ips(5);  // per worker; read after the join
  const auto result = ShardedPipeline(opts).MeasureScaleOut(
      [&src_ips](u32 cpu) -> ShardedPipeline::ShardProgram {
        std::set<u32>* mine = &src_ips[cpu];
        return {[mine](ebpf::XdpContext* ctxs, u32 count,
                       ebpf::XdpAction* verdicts) {
                  for (u32 i = 0; i < count; ++i) {
                    ebpf::FiveTuple tuple;
                    if (ebpf::ParseFiveTuple(ctxs[i], &tuple)) {
                      mine->insert(tuple.src_ip);
                    }
                    verdicts[i] = ebpf::XdpAction::kPass;
                  }
                },
                nullptr};
      },
      trace, MigrationPolicy{.enabled = false});
  ASSERT_EQ(result.total.packets, opts.measure_packets);
  u32 flows_seen = 0;
  for (const auto& flow : flows) {
    const u32 q = QueueVia(table, flow, 11);
    for (u32 w = 0; w < 5; ++w) {
      if (src_ips[w].count(flow.src_ip) != 0) {
        EXPECT_EQ(w, q) << "flow served off its slot's worker";
        ++flows_seen;
      }
    }
  }
  EXPECT_GT(flows_seen, 0u);
}

TEST(RssIndirection, SeedChangesTheSteering) {
  const auto flows = MakeFlowPopulation(256, 65);
  const auto table = BuildRssIndirection(8);
  u32 moved = 0;
  for (const auto& flow : flows) {
    if (QueueVia(table, flow, 7) != QueueVia(table, flow, 8)) {
      ++moved;
    }
  }
  // CRC seed sensitivity: a different seed re-shuffles a healthy fraction of
  // the flows (exact count is hash-dependent; zero would mean the seed is
  // dead weight).
  EXPECT_GT(moved, 64u);
}

// Failover runs on the one multi-core engine with its table frozen: only a
// dying worker's donations re-steer slots.
constexpr MigrationPolicy kStatic{.enabled = false};

ShardedPipeline::ProgramFactory VerdictFactory(ebpf::XdpAction verdict) {
  return [verdict](u32) -> ShardedPipeline::ShardProgram {
    return {[verdict](ebpf::XdpContext*, u32 count,
                      ebpf::XdpAction* verdicts) {
              for (u32 i = 0; i < count; ++i) {
                verdicts[i] = verdict;
              }
            },
            nullptr};
  };
}

// The failover conservation law: survivors report exactly the donated
// budget as degraded, and it is what the primary owners left unserved.
void ExpectFailoverBalances(const ShardedPipeline::Result& result,
                            u64 measure_packets) {
  u64 degraded = 0, primary_served = 0;
  for (const auto& shard : result.shards) {
    degraded += shard.stats.degraded;
    primary_served += shard.stats.packets - shard.stats.degraded;
  }
  EXPECT_EQ(degraded, result.failover_packets);
  EXPECT_EQ(result.total.degraded, result.failover_packets);
  EXPECT_EQ(result.failover_packets, measure_packets - primary_served);
}

TEST_F(ShardFailover, KilledWorkerIsDrainedWithExactAccounting) {
  const auto flows = MakeFlowPopulation(512, 33);
  const auto trace = MakeUniformTrace(flows, 4096, 34);
  ShardedPipeline::Options opts;
  opts.num_workers = 3;
  opts.burst_size = 16;
  opts.warmup_packets = 100;
  opts.measure_packets = 30'000;
  const ShardedPipeline pipeline(opts);

  // Worker 1 dies on its 6th measured burst.
  FaultInjector::Global().ArmOneShot("shard.kill.1", 5);

  const auto result = pipeline.MeasureScaleOut(
      VerdictFactory(ebpf::XdpAction::kPass), trace, kStatic);

  EXPECT_EQ(result.failed_workers, 1u);
  ASSERT_EQ(result.shards.size(), 3u);
  EXPECT_TRUE(result.shards[1].failed);
  EXPECT_FALSE(result.shards[0].failed);
  EXPECT_FALSE(result.shards[2].failed);

  // The dead shard served exactly 5 bursts before the kill fired.
  EXPECT_EQ(result.shards[1].stats.packets, 5u * 16u);
  EXPECT_EQ(result.shards[1].stats.degraded, 0u);

  // Its unserved budget moved to the survivors with its flow-groups: the
  // shard counts still sum exactly to measure_packets, and the absorbed
  // packets are surfaced as degraded on the absorbing shards.
  u64 packets = 0, verdicts_total = 0;
  for (const auto& shard : result.shards) {
    packets += shard.stats.packets;
    verdicts_total +=
        shard.stats.dropped + shard.stats.passed + shard.stats.aborted;
  }
  EXPECT_EQ(packets, opts.measure_packets);
  EXPECT_EQ(result.total.packets, opts.measure_packets);
  EXPECT_EQ(verdicts_total, opts.measure_packets);
  EXPECT_GT(result.failover_packets, 0u);
  ExpectFailoverBalances(result, opts.measure_packets);
}

// A dying worker re-steers its own slots, and only those. Four workers:
// worker 1 dies at its first burst boundary, before serving anything.
// Survivors hold their first burst until the kill has fired and then serve
// slowly, so every donation meets near-equal survivor backlogs and the
// least-loaded choice has to spread the orphans. The RssIndirection tests
// have no fixture, so the scenario disarms the injector itself.
constexpr u64 kSpreadMeasurePackets = 40'000;

ShardedPipeline::Result KillWorkerOneBehindSlowSurvivors() {
  FaultInjector::Global().Reset();
  const auto flows = MakeFlowPopulation(512, 39);
  const auto trace = MakeUniformTrace(flows, 4096, 40);
  ShardedPipeline::Options opts;
  opts.num_workers = 4;
  opts.burst_size = 16;
  opts.warmup_packets = 0;
  opts.measure_packets = kSpreadMeasurePackets;
  FaultInjector::Global().ArmOneShot("shard.kill.1", 0);
  const auto result = ShardedPipeline(opts).MeasureScaleOut(
      [](u32) -> ShardedPipeline::ShardProgram {
        return {[](ebpf::XdpContext*, u32 count, ebpf::XdpAction* verdicts) {
                  while (FaultInjector::Global().fires("shard.kill.1") == 0) {
                    std::this_thread::yield();
                  }
                  for (u32 i = 0; i < count; ++i) {
                    volatile u32 sink = 0;
                    for (u32 s = 0; s < 500; ++s) {
                      sink = sink + s;
                    }
                    verdicts[i] = ebpf::XdpAction::kPass;
                  }
                },
                nullptr};
      },
      trace, kStatic);
  FaultInjector::Global().Reset();
  return result;
}

TEST(RssIndirection, RebuildReplacesOnlyDeadSlots) {
  const auto result = KillWorkerOneBehindSlowSurvivors();
  ASSERT_EQ(result.failed_workers, 1u);
  ASSERT_EQ(result.shards.size(), 4u);
  const auto& dead = result.shards[1];
  EXPECT_EQ(dead.stats.packets, 0u);
  EXPECT_GT(dead.slots_initial, 0u);
  // Every slot of the dead worker is donated and adopted exactly once.
  EXPECT_EQ(dead.slots_donated, dead.slots_initial);
  EXPECT_EQ(result.migration.failover_donations, dead.slots_donated);
  u32 adopted = 0;
  for (u32 w = 0; w < 4; ++w) {
    if (w == 1) {
      continue;
    }
    // Live flows keep their affinity: no survivor gives a slot away.
    EXPECT_EQ(result.shards[w].slots_donated, 0u) << "worker " << w;
    adopted += result.shards[w].slots_adopted;
  }
  EXPECT_EQ(adopted, dead.slots_initial);
  EXPECT_EQ(result.total.packets, kSpreadMeasurePackets);
  ExpectFailoverBalances(result, kSpreadMeasurePackets);
}

TEST(RssIndirection, RebuildSpillsOverWhenTheLeastLoadedFillsUp) {
  const auto result = KillWorkerOneBehindSlowSurvivors();
  ASSERT_EQ(result.failed_workers, 1u);
  ASSERT_EQ(result.shards.size(), 4u);
  // Nothing is steered back onto the dead worker.
  EXPECT_EQ(result.shards[1].slots_adopted, 0u);
  u32 adopted = 0, adopters = 0;
  for (u32 w = 0; w < 4; ++w) {
    if (w == 1) {
      continue;
    }
    adopted += result.shards[w].slots_adopted;
    adopters += result.shards[w].slots_adopted > 0 ? 1 : 0;
  }
  EXPECT_EQ(adopted, result.shards[1].slots_initial);
  // The orphans spill over more than one survivor.
  EXPECT_GE(adopters, 2u);
}

TEST_F(ShardFailover, SingleSurvivorAbsorbsEveryDonatedSlot) {
  const auto flows = MakeFlowPopulation(256, 44);
  const auto trace = MakeUniformTrace(flows, 2048, 45);
  ShardedPipeline::Options opts;
  opts.num_workers = 4;
  opts.burst_size = 16;
  opts.warmup_packets = 0;
  opts.measure_packets = 20'000;
  for (const char* point : {"shard.kill.0", "shard.kill.1", "shard.kill.3"}) {
    FaultInjector::Global().ArmOneShot(point, 0);
  }
  const auto result = ShardedPipeline(opts).MeasureScaleOut(
      VerdictFactory(ebpf::XdpAction::kPass), trace, kStatic);

  EXPECT_EQ(result.failed_workers, 3u);
  const auto& survivor = result.shards[2];
  EXPECT_FALSE(survivor.failed);
  EXPECT_EQ(survivor.stats.packets, opts.measure_packets);
  EXPECT_EQ(survivor.slots_donated, 0u);
  // A slot donated to a worker that died in turn is donated again, but it
  // ends on the survivor exactly once.
  EXPECT_EQ(survivor.slots_adopted, result.shards[0].slots_initial +
                                        result.shards[1].slots_initial +
                                        result.shards[3].slots_initial);
  EXPECT_EQ(result.total.packets, opts.measure_packets);
  ExpectFailoverBalances(result, opts.measure_packets);
}

TEST_F(ShardFailover, NoFaultMeansNoFailover) {
  const auto flows = MakeFlowPopulation(128, 35);
  const auto trace = MakeUniformTrace(flows, 1024, 36);
  ShardedPipeline::Options opts;
  opts.num_workers = 2;
  opts.burst_size = 16;
  opts.warmup_packets = 0;
  opts.measure_packets = 10'000;
  const auto result = ShardedPipeline(opts).MeasureScaleOut(
      VerdictFactory(ebpf::XdpAction::kDrop), trace, kStatic);
  EXPECT_EQ(result.failed_workers, 0u);
  EXPECT_EQ(result.failover_packets, 0u);
  EXPECT_EQ(result.total.degraded, 0u);
  EXPECT_EQ(result.total.packets, opts.measure_packets);
  for (const auto& shard : result.shards) {
    EXPECT_FALSE(shard.failed);
  }
}

TEST_F(ShardFailover, AllWorkersDeadDropsTheUnservedBudget) {
  const auto flows = MakeFlowPopulation(64, 37);
  const auto trace = MakeUniformTrace(flows, 512, 38);
  ShardedPipeline::Options opts;
  opts.num_workers = 1;
  opts.burst_size = 16;
  opts.warmup_packets = 0;
  opts.measure_packets = 1'000;
  FaultInjector::Global().ArmOneShot("shard.kill.0", 0);  // dies immediately
  const auto result = ShardedPipeline(opts).MeasureScaleOut(
      VerdictFactory(ebpf::XdpAction::kPass), trace, kStatic);
  EXPECT_EQ(result.failed_workers, 1u);
  EXPECT_EQ(result.failover_packets, 0u);  // nobody left to fail over to
  EXPECT_EQ(result.total.packets, 0u);     // honest shortfall, no crash
}

// Acceptance: a million-packet sharded run over per-worker cuckoo-switch
// replicas with a seeded mid-run worker kill. Must finish with exact
// counters and every pre-fault key still resolvable on every replica.
TEST_F(ShardFailover, MillionPacketRunSurvivesSeededWorkerKill) {
  constexpr u32 kWorkers = 4;
  constexpr u32 kFlows = 2048;
  const auto flows = MakeFlowPopulation(kFlows, 41);
  const auto trace = MakeUniformTrace(flows, 8192, 42);

  // Each worker owns a full replica of the FIB (the CuckooSwitch deployment
  // shape: the control plane programs every core's table identically).
  std::vector<std::unique_ptr<nf::CuckooSwitchKernel>> replicas;
  nf::CuckooSwitchConfig config;
  config.num_buckets = 1024;
  for (u32 w = 0; w < kWorkers; ++w) {
    replicas.push_back(std::make_unique<nf::CuckooSwitchKernel>(config));
    for (u32 f = 0; f < kFlows; ++f) {
      ASSERT_TRUE(replicas[w]->Insert(flows[f], f + 1));
    }
  }

  ShardedPipeline::Options opts;
  opts.num_workers = kWorkers;
  opts.burst_size = 32;
  opts.warmup_packets = 1'000;
  opts.measure_packets = 1'000'000;
  opts.rss_seed = 43;
  const ShardedPipeline pipeline(opts);

  // Worker 2 dies partway through its measured window.
  FaultInjector::Global().ArmOneShot("shard.kill.2", 100);

  const auto result = pipeline.MeasureScaleOut(
      [&replicas](u32 cpu) -> ShardedPipeline::ShardProgram {
        nf::CuckooSwitchKernel* nf = replicas[cpu].get();
        return {[nf](ebpf::XdpContext* ctxs, u32 count,
                     ebpf::XdpAction* verdicts) {
                  nf->ProcessBurst(ctxs, count, verdicts);
                },
                nullptr};
      },
      trace, kStatic);

  // Exact accounting end to end: the kill cost zero packets.
  EXPECT_EQ(result.failed_workers, 1u);
  EXPECT_TRUE(result.shards[2].failed);
  EXPECT_EQ(result.total.packets, 1'000'000u);
  EXPECT_EQ(result.total.dropped + result.total.passed + result.total.aborted,
            1'000'000u);
  // Every flow is in every replica, so nothing may drop or abort.
  EXPECT_EQ(result.total.dropped, 0u);
  EXPECT_EQ(result.total.aborted, 0u);
  EXPECT_GT(result.failover_packets, 0u);
  ExpectFailoverBalances(result, opts.measure_packets);
  u64 shard_sum = 0;
  for (const auto& shard : result.shards) {
    shard_sum += shard.stats.packets;
  }
  EXPECT_EQ(shard_sum, 1'000'000u);

  // Every pre-fault key is still resolvable on every replica (including the
  // dead worker's — its table was abandoned, not corrupted).
  for (u32 w = 0; w < kWorkers; ++w) {
    for (u32 f = 0; f < kFlows; ++f) {
      ASSERT_EQ(replicas[w]->Lookup(flows[f]), std::optional<u64>(f + 1))
          << "replica " << w << " flow " << f;
    }
  }
}

}  // namespace
}  // namespace pktgen
