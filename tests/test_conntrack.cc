// Conntrack/NAT family tests: the arena-backed paired FlowTable (both-tuple
// visibility, lazy expiry, per-class sweeps, reclaim order, batched lookup
// purity), the TCP-ish state machine and SNAT rewrites of both engine
// variants, burst/scalar bit-identity under churn (including the 3*64+7
// remainder tail), filter-mode lowering to a fused key op, and cross-variant
// state transfer.
#include "nf/conntrack.h"

#include <gtest/gtest.h>

#include <cstring>
#include <unordered_map>
#include <vector>

#include "core/fault_injector.h"
#include "ebpf/helper.h"
#include "ebpf/program.h"
#include "ebpf/verifier.h"
#include "pktgen/flowgen.h"
#include "pktgen/packet.h"

namespace nf {
namespace {

ebpf::FiveTuple TcpFlow(u32 i) {
  ebpf::FiveTuple t;
  t.src_ip = 0x0a000000u + i;
  t.dst_ip = 0xc0a80000u + (i * 7u + 1u);
  t.src_port = static_cast<u16>(1024 + (i % 50000));
  t.dst_port = 443;
  t.protocol = kProtoTcp;
  return t;
}

ebpf::FiveTuple UdpFlow(u32 i) {
  ebpf::FiveTuple t = TcpFlow(i);
  t.protocol = 17;
  return t;
}

pktgen::Packet MakePacket(const ebpf::FiveTuple& t, u8 tcp_flags = 0) {
  pktgen::Packet p = pktgen::Packet::FromTuple(t);
  if (tcp_flags != 0) {
    // TCP flags live at kL4HeaderOffset + 13 = byte 1 of payload word 1.
    p.SetPayloadWord(1, static_cast<u32>(tcp_flags) << 8);
  }
  return p;
}

ebpf::XdpAction RunScalar(NetworkFunction& nf, pktgen::Packet& p) {
  ebpf::XdpContext ctx{p.frame, p.frame + ebpf::kFrameSize, 0};
  return nf.Process(ctx);
}

u32 FrameSrcIp(const pktgen::Packet& p) {
  u32 v;
  std::memcpy(&v, p.frame + ebpf::kIpHeaderOffset + 12, 4);
  return v;
}

u32 FrameDstIp(const pktgen::Packet& p) {
  u32 v;
  std::memcpy(&v, p.frame + ebpf::kIpHeaderOffset + 16, 4);
  return v;
}

u16 FrameSrcPort(const pktgen::Packet& p) {
  u16 v;
  std::memcpy(&v, p.frame + ebpf::kL4HeaderOffset, 2);
  return v;
}

u16 FrameDstPort(const pktgen::Packet& p) {
  u16 v;
  std::memcpy(&v, p.frame + ebpf::kL4HeaderOffset + 2, 2);
  return v;
}

class ConntrackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ebpf::SetCurrentCpu(0);
    enetstl::FaultInjector::Global().Reset();
  }
  void TearDown() override { enetstl::FaultInjector::Global().Reset(); }
};

// ---------------------------------------------------------------------------
// FlowTable (arena engine) unit tests.
// ---------------------------------------------------------------------------

using FlowTableTest = ConntrackTest;

TEST_F(FlowTableTest, PairedInsertVisibleUnderBothTuplesOrNeither) {
  FlowTableConfig config;
  FlowTable table(config);
  const ebpf::FiveTuple fwd = TcpFlow(1);
  const ebpf::FiveTuple rev = FlowTable::ReverseTuple(fwd);
  u32 handle;
  FlowEntry* e = table.Insert(fwd, rev, 77, FlowState::kEstablished, 0, 0, 0,
                              &handle);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(table.live_flows(), 1u);

  u8 dir;
  u32 h2;
  FlowEntry* by_fwd = table.Find(fwd, 1, &dir, &h2);
  ASSERT_EQ(by_fwd, e);
  EXPECT_EQ(dir, 0);
  EXPECT_EQ(h2, handle);

  FlowEntry* by_rev = table.Find(rev, 1, &dir, &h2);
  ASSERT_EQ(by_rev, e);
  EXPECT_EQ(dir, 1);
  EXPECT_EQ(h2, handle);
  EXPECT_EQ(by_rev->value, 77u);

  // Erase through the REVERSE tuple removes both directions (the pairing
  // invariant: a flow is observable under both tuples or neither).
  EXPECT_TRUE(table.Erase(rev));
  EXPECT_EQ(table.FindConst(fwd, 1, &dir), nullptr);
  EXPECT_EQ(table.FindConst(rev, 1, &dir), nullptr);
  EXPECT_EQ(table.live_flows(), 0u);
}

TEST_F(FlowTableTest, LazyExpiryFreesOnLookupWithoutSweep) {
  FlowTableConfig config;
  FlowTable table(config);
  const ebpf::FiveTuple fwd = UdpFlow(3);
  u32 handle;
  ASSERT_NE(table.Insert(fwd, FlowTable::ReverseTuple(fwd), 0,
                         FlowState::kUdpIdle, 0, 0, 0, &handle),
            nullptr);
  const u64 dead = config.udp_timeout_ns + 1;
  // FindConst is pure: reports absent, frees nothing.
  u8 dir;
  EXPECT_EQ(table.FindConst(fwd, dead, &dir), nullptr);
  EXPECT_EQ(table.live_flows(), 1u);
  // Find lazily collects the due pair — no sweep ran.
  u32 h2;
  EXPECT_EQ(table.Find(fwd, dead, &dir, &h2), nullptr);
  EXPECT_EQ(table.live_flows(), 0u);
  EXPECT_EQ(table.stats().expired_lazy, 1u);
  EXPECT_EQ(table.stats().timeout_evictions, 0u);
}

TEST_F(FlowTableTest, TimewheelSweepEvictsDueFlowsInBatches) {
  FlowTableConfig config;
  FlowTable table(config);
  constexpr u32 kFlows = 300;  // more than one burst of evictions
  for (u32 i = 0; i < kFlows; ++i) {
    const ebpf::FiveTuple fwd = TcpFlow(i);
    u32 handle;
    ASSERT_NE(table.Insert(fwd, FlowTable::ReverseTuple(fwd), i,
                           FlowState::kNew, 0, 0, 0, &handle),
              nullptr);
  }
  EXPECT_EQ(table.live_flows(), kFlows);
  const u32 evicted =
      table.Advance(config.new_timeout_ns + 2 * config.wheel_granularity_ns);
  EXPECT_EQ(evicted, kFlows);
  EXPECT_EQ(table.live_flows(), 0u);
  EXPECT_EQ(table.stats().timeout_evictions, kFlows);
}

TEST_F(FlowTableTest, RefreshExtendsLifeAndDeliveryReArmsLazily) {
  FlowTableConfig config;
  FlowTable table(config);
  const ebpf::FiveTuple fwd = TcpFlow(9);
  u32 handle;
  FlowEntry* e = table.Insert(fwd, FlowTable::ReverseTuple(fwd), 0,
                              FlowState::kNew, 0, 0, 0, &handle);
  ASSERT_NE(e, nullptr);
  // Refresh at t1: expiry moves to t1 + new_timeout, so a sweep past the
  // original expiry must keep the flow.
  const u64 t1 = config.new_timeout_ns / 2;
  table.Refresh(e, handle, t1);
  EXPECT_EQ(table.Advance(config.new_timeout_ns +
                          2 * config.wheel_granularity_ns),
            0u);
  EXPECT_EQ(table.live_flows(), 1u);
  // A sweep past the refreshed expiry evicts.
  EXPECT_EQ(table.Advance(t1 + config.new_timeout_ns +
                          2 * config.wheel_granularity_ns),
            1u);
  EXPECT_EQ(table.live_flows(), 0u);
}

TEST_F(FlowTableTest, ArenaExhaustionEvictsLruOldestPairConsistently) {
  FlowTableConfig config;
  config.max_flows = 256;  // exactly one slab: hard capacity
  FlowTable table(config);
  std::vector<ebpf::FiveTuple> flows;
  for (u32 i = 0; i < 256; ++i) {
    flows.push_back(TcpFlow(i));
    u32 handle;
    ASSERT_NE(table.Insert(flows[i], FlowTable::ReverseTuple(flows[i]), i,
                           FlowState::kEstablished, 0, 0, 0, &handle),
              nullptr);
  }
  EXPECT_EQ(table.live_flows(), 256u);
  // Touch flow 0 so flow 1 is the LRU victim.
  u8 dir;
  u32 h;
  ASSERT_NE(table.Find(flows[0], 0, &dir, &h), nullptr);
  table.Refresh(table.Find(flows[0], 0, &dir, &h), h, 0);

  const ebpf::FiveTuple extra = TcpFlow(1000);
  u32 handle;
  ASSERT_NE(table.Insert(extra, FlowTable::ReverseTuple(extra), 1000,
                         FlowState::kEstablished, 0, 0, 0, &handle),
            nullptr);
  EXPECT_EQ(table.stats().lru_evictions, 1u);
  EXPECT_EQ(table.live_flows(), 256u);
  // The victim left under BOTH tuples; the touched flow survived.
  EXPECT_EQ(table.FindConst(flows[1], 0, &dir), nullptr);
  EXPECT_EQ(table.FindConst(FlowTable::ReverseTuple(flows[1]), 0, &dir),
            nullptr);
  EXPECT_NE(table.FindConst(flows[0], 0, &dir), nullptr);
  EXPECT_NE(table.FindConst(extra, 0, &dir), nullptr);
}

TEST_F(FlowTableTest, FaultInjectedAllocationTakesEvictionPath) {
  FlowTableConfig config;
  FlowTable table(config);
  std::vector<ebpf::FiveTuple> flows;
  for (u32 i = 0; i < 4; ++i) {
    flows.push_back(TcpFlow(i));
    u32 handle;
    ASSERT_NE(table.Insert(flows[i], FlowTable::ReverseTuple(flows[i]), i,
                           FlowState::kEstablished, 0, 0, 0, &handle),
              nullptr);
  }
  // Force the -ENOSPC degradation without actually filling the arena.
  enetstl::FaultInjector::Global().ArmOneShot("conntrack.insert", 0);
  const ebpf::FiveTuple extra = TcpFlow(50);
  u32 handle;
  ASSERT_NE(table.Insert(extra, FlowTable::ReverseTuple(extra), 50,
                         FlowState::kEstablished, 0, 0, 0, &handle),
            nullptr);
  EXPECT_EQ(table.stats().lru_evictions, 1u);
  u8 dir;
  EXPECT_EQ(table.FindConst(flows[0], 0, &dir), nullptr);  // oldest evicted
  EXPECT_NE(table.FindConst(extra, 0, &dir), nullptr);
  EXPECT_EQ(table.live_flows(), 4u);
}

// Cross-class order: oldest last touch first, and ties inside one `now` go
// by class (NEW, ESTABLISHED, FIN_WAIT, UDP idle), whatever the insert
// order. Reclaim walks the same order, except that a due class tail jumps
// the queue.
TEST_F(FlowTableTest, ReclaimAndExportFollowLastTouchAcrossClasses) {
  FlowTableConfig config;
  const u64 step = config.wheel_granularity_ns;
  config.new_timeout_ns = 100 * step;
  config.established_timeout_ns = 1000 * step;
  config.fin_timeout_ns = 20 * step;
  config.udp_timeout_ns = 50 * step;
  FlowTable table(config);
  const auto insert = [&](u32 id, FlowState state, u64 now) {
    u32 handle;
    ASSERT_NE(table.Insert(TcpFlow(id), FlowTable::ReverseTuple(TcpFlow(id)),
                           id, state, now, 0, 0, &handle),
              nullptr);
  };
  const auto entry = [&](u32 id, u64 now, u32* handle) {
    u8 dir;
    return table.Find(TcpFlow(id), now, &dir, handle);
  };
  // Touch 0, inserted in reverse class order.
  insert(0, FlowState::kUdpIdle, 0);
  insert(1, FlowState::kFinWait, 0);
  insert(2, FlowState::kEstablished, 0);
  insert(3, FlowState::kNew, 0);
  // Touch 1 step.
  insert(4, FlowState::kEstablished, step);
  insert(5, FlowState::kNew, step);
  // Touch 2 steps: a refresh and a class change.
  u32 h;
  FlowEntry* e = entry(0, 2 * step, &h);
  ASSERT_NE(e, nullptr);
  table.Refresh(e, h, 2 * step);
  e = entry(3, 2 * step, &h);
  ASSERT_NE(e, nullptr);
  table.SetState(e, h, FlowState::kEstablished, 2 * step);

  std::vector<u32> walk;
  table.ForEachLruOldestFirst([&](const FlowEntry& f) { walk.push_back(f.value); });
  EXPECT_EQ(walk, (std::vector<u32>{2, 1, 5, 4, 3, 0}));

  // At 25 steps only flow 1 (FIN_WAIT, touched at 0) is due. Every insert
  // now reclaims: the due tail first, then the walk order. Newcomers are
  // touched last, so they never jump ahead.
  const u64 now = 25 * step;
  enetstl::FaultInjector::Global().ArmEveryNth("conntrack.insert", 1);
  std::vector<u32> victims;
  std::vector<u32> alive = {0, 1, 2, 3, 4, 5};
  for (u32 k = 0; k < 6; ++k) {
    insert(100 + k, FlowState::kEstablished, now);
    for (auto it = alive.begin(); it != alive.end(); ++it) {
      u8 dir;
      if (table.FindConst(TcpFlow(*it), 0, &dir) == nullptr) {
        victims.push_back(*it);
        alive.erase(it);
        break;
      }
    }
  }
  EXPECT_EQ(victims, (std::vector<u32>{1, 2, 5, 4, 3, 0}));
  EXPECT_EQ(table.stats().timeout_evictions, 1u);
  EXPECT_EQ(table.stats().lru_evictions, 5u);
  EXPECT_EQ(table.live_flows(), 6u);
}

// A table the sweep keeps clean and a lazy-only twin of it must decide
// alike under capacity pressure with every timeout class mixed: where the
// swept table has room, the twin reclaims a due flow, never a live one. The
// sweep is exact, so the swept table never meets a due flow at lookup.
TEST_F(FlowTableTest, SweptTableAndLazyTwinDecideAlikeAcrossClasses) {
  FlowTableConfig config;
  config.max_flows = 256;  // exactly one slab: hard capacity
  const u64 step = config.wheel_granularity_ns;
  config.new_timeout_ns = 24 * step;
  config.established_timeout_ns = 400 * step;
  config.fin_timeout_ns = 6 * step;
  config.udp_timeout_ns = 90 * step;
  FlowTable swept(config);
  FlowTable lazy(config);
  pktgen::Rng rng(0x7c1a55);
  u64 now = 0;
  for (u32 op = 0; op < 40000; ++op) {
    if (op % 64 == 63) {
      now += step * (1 + rng.NextBounded(4));
      swept.Advance(now);
      ASSERT_EQ(swept.stats().expired_lazy, 0u) << "op=" << op;
    }
    ebpf::FiveTuple t = TcpFlow(static_cast<u32>(rng.NextBounded(700)));
    if (rng.NextBounded(3) == 0) {
      t = FlowTable::ReverseTuple(t);
    }
    u8 ds = 0;
    u8 dl = 0;
    u32 hs = 0;
    u32 hl = 0;
    FlowEntry* es = swept.Find(t, now, &ds, &hs);
    FlowEntry* el = lazy.Find(t, now, &dl, &hl);
    ASSERT_EQ(es != nullptr, el != nullptr) << "op=" << op;
    const u32 r = static_cast<u32>(rng.NextBounded(100));
    if (es == nullptr) {
      const auto st = static_cast<FlowState>(r % kFlowClasses);
      ASSERT_NE(swept.Insert(t, FlowTable::ReverseTuple(t), op, st, now, 0, 0,
                             &hs),
                nullptr);
      ASSERT_NE(lazy.Insert(t, FlowTable::ReverseTuple(t), op, st, now, 0, 0,
                            &hl),
                nullptr);
      continue;
    }
    ASSERT_EQ(ds, dl) << "op=" << op;
    ASSERT_EQ(es->value, el->value) << "op=" << op;
    ASSERT_EQ(es->expires_ns, el->expires_ns) << "op=" << op;
    if (r < 8) {
      swept.EraseEntry(es, hs);
      lazy.EraseEntry(el, hl);
    } else if (r < 30) {
      const auto st = static_cast<FlowState>(r % kFlowClasses);
      swept.SetState(es, hs, st, now);
      lazy.SetState(el, hl, st, now);
    } else {
      swept.Refresh(es, hs, now);
      lazy.Refresh(el, hl, now);
    }
  }
  // Same live flows, in the same order.
  std::vector<u32> live_swept;
  std::vector<u32> live_lazy;
  swept.ForEachLruOldestFirst([&](const FlowEntry& f) {
    live_swept.push_back(f.expires_ns > now ? f.value : ~0u);
  });
  lazy.ForEachLruOldestFirst([&](const FlowEntry& f) {
    if (f.expires_ns > now) {
      live_lazy.push_back(f.value);
    }
  });
  EXPECT_EQ(live_swept, live_lazy);
  // Every regime ran: sweeps, live evictions in both, due reclaims and lazy
  // expiry in the twin only.
  EXPECT_GT(swept.stats().timeout_evictions, 0u);
  EXPECT_GT(swept.stats().lru_evictions, 0u);
  EXPECT_EQ(swept.stats().lru_evictions, lazy.stats().lru_evictions);
  EXPECT_GT(lazy.stats().timeout_evictions, 0u);
  EXPECT_GT(lazy.stats().expired_lazy, 0u);
}

TEST_F(FlowTableTest, FindBatchMatchesScalarAndStaysPure) {
  FlowTableConfig config;
  FlowTable table(config);
  // Mixed population: established (long timeout) and one FIN-wait flow that
  // will be due at probe time.
  std::vector<ebpf::FiveTuple> flows;
  for (u32 i = 0; i < 16; ++i) {
    flows.push_back(TcpFlow(i));
    u32 handle;
    ASSERT_NE(table.Insert(flows[i], FlowTable::ReverseTuple(flows[i]), i,
                           i == 5 ? FlowState::kFinWait
                                  : FlowState::kEstablished,
                           0, 0, 0, &handle),
              nullptr);
  }
  const u64 now = config.fin_timeout_ns + 1;  // flow 5 due, others fresh
  ebpf::FiveTuple keys[48];
  u32 n = 0;
  for (u32 i = 0; i < 16; ++i) {
    keys[n++] = flows[i];                            // forward hits
    keys[n++] = FlowTable::ReverseTuple(flows[i]);   // reverse hits
    keys[n++] = TcpFlow(1000 + i);                   // misses
  }
  FlowTable::Lookup looks[48];
  const u64 epoch = table.mutation_epoch();
  table.FindBatch(keys, n, now, looks);
  EXPECT_EQ(table.mutation_epoch(), epoch);   // pure
  EXPECT_EQ(table.live_flows(), 16u);         // due entry NOT collected
  for (u32 i = 0; i < n; ++i) {
    u8 dir;
    const FlowEntry* scalar = table.FindConst(keys[i], now, &dir);
    if (scalar != nullptr) {
      ASSERT_EQ(looks[i].kind, FlowTable::Lookup::kHit) << "i=" << i;
      EXPECT_EQ(looks[i].entry, scalar);
      EXPECT_EQ(looks[i].dir, dir);
    } else if (looks[i].kind != FlowTable::Lookup::kMiss) {
      // Batch may additionally report kExpired where FindConst says absent.
      ASSERT_EQ(looks[i].kind, FlowTable::Lookup::kExpired) << "i=" << i;
      EXPECT_LE(looks[i].entry->expires_ns, now);
    }
  }
  // The due flow shows up as kExpired under both of its tuples.
  u32 expired_seen = 0;
  for (u32 i = 0; i < n; ++i) {
    expired_seen += looks[i].kind == FlowTable::Lookup::kExpired;
  }
  EXPECT_EQ(expired_seen, 2u);
}

TEST_F(FlowTableTest, LeakCheckerSeesZeroLiveSlotsAfterChurnAndClear) {
  ebpf::RefLeakChecker checker;
  FlowTableConfig config;
  config.max_flows = 256;
  FlowTable table(config);
  table.SetLeakChecker(&checker);
  pktgen::Rng rng(0x51ab);
  std::vector<ebpf::FiveTuple> live;
  for (u32 op = 0; op < 4000; ++op) {
    const u32 r = static_cast<u32>(rng.NextBounded(100));
    if (r < 60 || live.empty()) {
      const ebpf::FiveTuple f = TcpFlow(static_cast<u32>(rng.NextU32()));
      u32 handle;
      if (table.Insert(f, FlowTable::ReverseTuple(f), 0,
                       FlowState::kEstablished, 0, 0, 0, &handle) != nullptr) {
        live.push_back(f);
      }
    } else {
      const std::size_t pick = rng.NextBounded(live.size());
      table.Erase(live[pick]);  // may already be LRU-evicted: fine
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  EXPECT_EQ(checker.LiveCount("conntrack.flow"), table.live_flows());
  table.Clear();
  EXPECT_EQ(table.live_flows(), 0u);
  EXPECT_EQ(checker.LiveCount("conntrack.flow"), 0u);
}

// ---------------------------------------------------------------------------
// Conntrack NF: state machine, NAT rewrites, burst equivalence, lowering.
// ---------------------------------------------------------------------------

std::unique_ptr<ConntrackBase> MakeCt(Variant v, const ConntrackConfig& c) {
  if (v == Variant::kEbpf) {
    return std::make_unique<ConntrackEbpf>(c);
  }
  return std::make_unique<ConntrackEnetstl>(c);
}

class ConntrackBothVariants : public ::testing::TestWithParam<Variant> {
 protected:
  void SetUp() override {
    ebpf::SetCurrentCpu(0);
    enetstl::FaultInjector::Global().Reset();
  }
};

TEST_P(ConntrackBothVariants, TcpStateMachineLifecycle) {
  ConntrackConfig config;
  config.mode = CtMode::kTrack;
  auto ct = MakeCt(GetParam(), config);
  const ebpf::FiveTuple fwd = TcpFlow(1);
  const ebpf::FiveTuple rev = FlowTable::ReverseTuple(fwd);

  // SYN-ish first packet creates a NEW flow and passes.
  pktgen::Packet syn = MakePacket(fwd);
  EXPECT_EQ(RunScalar(*ct, syn), ebpf::XdpAction::kPass);
  EXPECT_EQ(ct->created(), 1u);

  // Reply direction promotes to ESTABLISHED.
  pktgen::Packet reply = MakePacket(rev);
  EXPECT_EQ(RunScalar(*ct, reply), ebpf::XdpAction::kPass);
  EXPECT_EQ(ct->hits(), 1u);

  // FIN moves to FIN-wait (short timeout class) but still passes.
  pktgen::Packet fin = MakePacket(fwd, kTcpFin);
  EXPECT_EQ(RunScalar(*ct, fin), ebpf::XdpAction::kPass);

  // RST tears the flow down immediately...
  pktgen::Packet rst = MakePacket(rev, kTcpRst);
  EXPECT_EQ(RunScalar(*ct, rst), ebpf::XdpAction::kPass);
  EXPECT_EQ(ct->torn_down(), 1u);

  // ...so the next forward packet is a miss that re-creates state.
  pktgen::Packet again = MakePacket(fwd);
  EXPECT_EQ(RunScalar(*ct, again), ebpf::XdpAction::kPass);
  EXPECT_EQ(ct->created(), 2u);

  // A stray RST for an unknown flow passes without creating state.
  pktgen::Packet stray = MakePacket(TcpFlow(99), kTcpRst);
  EXPECT_EQ(RunScalar(*ct, stray), ebpf::XdpAction::kPass);
  EXPECT_EQ(ct->created(), 2u);
}

TEST_P(ConntrackBothVariants, UdpFlowsUseIdleTimeoutClass) {
  ConntrackConfig config;
  config.mode = CtMode::kTrack;
  auto ct = MakeCt(GetParam(), config);
  const ebpf::FiveTuple fwd = UdpFlow(2);
  pktgen::Packet p = MakePacket(fwd);
  EXPECT_EQ(RunScalar(*ct, p), ebpf::XdpAction::kPass);
  EXPECT_EQ(ct->created(), 1u);
  // Beyond the UDP idle timeout the flow lazily expires: the packet is a
  // miss that re-creates state.
  ct->SetNow(config.table.udp_timeout_ns + 1);
  pktgen::Packet q = MakePacket(fwd);
  EXPECT_EQ(RunScalar(*ct, q), ebpf::XdpAction::kPass);
  EXPECT_EQ(ct->created(), 2u);
  EXPECT_EQ(ct->misses(), 2u);
}

TEST_P(ConntrackBothVariants, NatRewritesForwardAndReverse) {
  ConntrackConfig config;
  config.mode = CtMode::kNat;
  auto ct = MakeCt(GetParam(), config);
  const ebpf::FiveTuple fwd = TcpFlow(4);

  // Forward packet: source rewritten to the first pool binding.
  pktgen::Packet out = MakePacket(fwd);
  EXPECT_EQ(RunScalar(*ct, out), ebpf::XdpAction::kPass);
  EXPECT_EQ(FrameSrcIp(out), config.nat_ip_base);
  EXPECT_EQ(FrameSrcPort(out), static_cast<u16>(config.nat_port_base));
  EXPECT_EQ(FrameDstIp(out), fwd.dst_ip);  // destination untouched (SNAT)

  // Reply addressed to the binding: destination rewritten back to the
  // original initiator (the netfilter reply-tuple rule).
  ebpf::FiveTuple reply;
  reply.src_ip = fwd.dst_ip;
  reply.dst_ip = config.nat_ip_base;
  reply.src_port = fwd.dst_port;
  reply.dst_port = static_cast<u16>(config.nat_port_base);
  reply.protocol = fwd.protocol;
  pktgen::Packet back = MakePacket(reply);
  EXPECT_EQ(RunScalar(*ct, back), ebpf::XdpAction::kPass);
  EXPECT_EQ(ct->hits(), 1u);
  EXPECT_EQ(FrameDstIp(back), fwd.src_ip);
  EXPECT_EQ(FrameDstPort(back), fwd.src_port);
  EXPECT_EQ(FrameSrcIp(back), fwd.dst_ip);  // source untouched on replies

  // A second flow draws the next binding — bindings are collision-free.
  pktgen::Packet out2 = MakePacket(TcpFlow(5));
  EXPECT_EQ(RunScalar(*ct, out2), ebpf::XdpAction::kPass);
  EXPECT_EQ(FrameSrcPort(out2), static_cast<u16>(config.nat_port_base + 1));
}

INSTANTIATE_TEST_SUITE_P(Variants, ConntrackBothVariants,
                         ::testing::Values(Variant::kEbpf, Variant::kEnetstl),
                         [](const auto& info) {
                           return info.param == Variant::kEbpf ? "eBPF"
                                                               : "eNetSTL";
                         });

using ConntrackNfTest = ConntrackTest;

// Burst/scalar bit-identity under create/refresh/teardown churn, through the
// 3*64+7 remainder tail (satellite: burst remainder tails through the
// conntrack batched lookup path), with LRU capacity pressure so the
// mutation-epoch fallback is exercised.
TEST_F(ConntrackNfTest, BurstMatchesScalarWithChurnAndRemainderTail) {
  ConntrackConfig config;
  config.mode = CtMode::kTrack;
  config.table.max_flows = 256;  // forces LRU evictions mid-burst
  ConntrackEnetstl burst_ct(config);
  ConntrackEnetstl scalar_ct(config);

  const auto flows = pktgen::MakeFlowPopulation(600, 0xc0ffee);
  pktgen::Rng rng(0xc7a11);
  constexpr u32 kBurst = 3 * 64 + 7;  // 199: three full chunks + tail
  u64 now = 0;
  for (u32 round = 0; round < 12; ++round) {
    std::vector<pktgen::Packet> a(kBurst), b(kBurst);
    for (u32 i = 0; i < kBurst; ++i) {
      ebpf::FiveTuple t = flows[rng.NextBounded(flows.size())];
      if (rng.NextBounded(3) == 0) {
        t = FlowTable::ReverseTuple(t);  // reply direction
      }
      u8 flags = 0;
      const u32 r = static_cast<u32>(rng.NextBounded(100));
      if (r < 4) {
        flags = kTcpRst;
      } else if (r < 10) {
        flags = kTcpFin;
      }
      a[i] = MakePacket(t, flags);
      b[i] = a[i];
    }
    std::vector<ebpf::XdpContext> ctxs(kBurst);
    for (u32 i = 0; i < kBurst; ++i) {
      ctxs[i] = ebpf::XdpContext{a[i].frame, a[i].frame + ebpf::kFrameSize, 0};
    }
    std::vector<ebpf::XdpAction> verdicts(kBurst, ebpf::XdpAction::kAborted);
    burst_ct.ProcessBurst(ctxs.data(), kBurst, verdicts.data());
    for (u32 i = 0; i < kBurst; ++i) {
      EXPECT_EQ(verdicts[i], RunScalar(scalar_ct, b[i]))
          << "round=" << round << " i=" << i;
      EXPECT_EQ(std::memcmp(a[i].frame, b[i].frame, ebpf::kFrameSize), 0)
          << "round=" << round << " i=" << i;
    }
    // Advance both clocks so FIN-wait flows expire between rounds and the
    // kExpired re-probe path runs.
    now += config.table.fin_timeout_ns / 2;
    burst_ct.AdvanceTo(now);
    scalar_ct.SetNow(now);  // scalar twin relies on lazy expiry only
  }
  EXPECT_EQ(burst_ct.hits(), scalar_ct.hits());
  EXPECT_EQ(burst_ct.misses(), scalar_ct.misses());
  EXPECT_EQ(burst_ct.created(), scalar_ct.created());
  EXPECT_EQ(burst_ct.torn_down(), scalar_ct.torn_down());
}

// NAT-mode burst equivalence: rewrites (frame bytes) and binding allocation
// order must match the scalar path exactly.
TEST_F(ConntrackNfTest, NatBurstRewritesMatchScalar) {
  ConntrackConfig config;
  config.mode = CtMode::kNat;
  ConntrackEnetstl burst_ct(config);
  ConntrackEnetstl scalar_ct(config);
  const auto flows = pktgen::MakeFlowPopulation(150, 0xbeef);
  pktgen::Rng rng(0x9a7);
  constexpr u32 kBurst = 199;
  for (u32 round = 0; round < 4; ++round) {
    std::vector<pktgen::Packet> a(kBurst), b(kBurst);
    for (u32 i = 0; i < kBurst; ++i) {
      const ebpf::FiveTuple t = flows[rng.NextBounded(flows.size())];
      const u8 flags =
          rng.NextBounded(100) < 5 ? kTcpRst : static_cast<u8>(0);
      a[i] = MakePacket(t, flags);
      b[i] = a[i];
    }
    std::vector<ebpf::XdpContext> ctxs(kBurst);
    for (u32 i = 0; i < kBurst; ++i) {
      ctxs[i] = ebpf::XdpContext{a[i].frame, a[i].frame + ebpf::kFrameSize, 0};
    }
    std::vector<ebpf::XdpAction> verdicts(kBurst, ebpf::XdpAction::kAborted);
    burst_ct.ProcessBurst(ctxs.data(), kBurst, verdicts.data());
    for (u32 i = 0; i < kBurst; ++i) {
      EXPECT_EQ(verdicts[i], RunScalar(scalar_ct, b[i])) << "i=" << i;
      EXPECT_EQ(std::memcmp(a[i].frame, b[i].frame, ebpf::kFrameSize), 0)
          << "i=" << i;
    }
  }
  EXPECT_EQ(burst_ct.created(), scalar_ct.created());
}

// The two engines (BPF-LRU-map model vs arena) must agree packet-for-packet
// while the flow count stays under capacity (above it their documented
// eviction semantics legitimately differ).
TEST_F(ConntrackNfTest, EnginesAgreeUnderCapacityChurn) {
  ConntrackConfig config;
  config.mode = CtMode::kTrack;
  ConntrackEbpf lhs(config);
  ConntrackEnetstl rhs(config);
  const auto flows = pktgen::MakeFlowPopulation(400, 0x5eed);
  pktgen::Rng rng(0xd1ff);
  u64 now = 0;
  for (u32 i = 0; i < 20000; ++i) {
    ebpf::FiveTuple t = flows[rng.NextBounded(flows.size())];
    if (rng.NextBounded(3) == 0) {
      t = FlowTable::ReverseTuple(t);
    }
    u8 flags = 0;
    const u32 r = static_cast<u32>(rng.NextBounded(100));
    if (r < 3) {
      flags = kTcpRst;
    } else if (r < 8) {
      flags = kTcpFin;
    }
    pktgen::Packet pa = MakePacket(t, flags);
    pktgen::Packet pb = pa;
    ASSERT_EQ(RunScalar(lhs, pa), RunScalar(rhs, pb)) << "i=" << i;
    ASSERT_EQ(std::memcmp(pa.frame, pb.frame, ebpf::kFrameSize), 0);
    if (i % 2000 == 1999) {
      now += config.table.fin_timeout_ns;
      lhs.AdvanceTo(now);
      rhs.AdvanceTo(now);  // also sweeps; verdicts must not depend on it
    }
  }
  EXPECT_EQ(lhs.hits(), rhs.hits());
  EXPECT_EQ(lhs.misses(), rhs.misses());
  EXPECT_EQ(lhs.created(), rhs.created());
  EXPECT_EQ(lhs.torn_down(), rhs.torn_down());
}

TEST_F(ConntrackNfTest, FilterModeLowersToFusedKeyOpTrackAndNatDoNot) {
  ConntrackConfig config;
  config.mode = CtMode::kFilter;
  ConntrackEnetstl filter(config);
  // Pre-populate the membership set directly (the control plane's job).
  std::vector<ebpf::FiveTuple> members;
  for (u32 i = 0; i < 32; ++i) {
    members.push_back(TcpFlow(i));
    u32 handle;
    ASSERT_NE(filter.table().Insert(members[i],
                                    FlowTable::ReverseTuple(members[i]), 0,
                                    FlowState::kEstablished, 0, 0, 0, &handle),
              nullptr);
  }
  auto op = filter.LowerToKeyOp();
  ASSERT_TRUE(op.has_value());
  ebpf::FiveTuple keys[64];
  bool out[64] = {};
  u32 n = 0;
  for (u32 i = 0; i < 16; ++i) {
    keys[n++] = members[i];
    keys[n++] = FlowTable::ReverseTuple(members[i]);
    keys[n++] = TcpFlow(500 + i);
  }
  const u64 epoch = filter.table().mutation_epoch();
  op->contains(keys, n, out);
  EXPECT_EQ(filter.table().mutation_epoch(), epoch);  // side-effect free
  for (u32 i = 0; i < n; ++i) {
    pktgen::Packet p = MakePacket(keys[i]);
    const auto verdict = RunScalar(filter, p);
    EXPECT_EQ(out[i], verdict == ebpf::XdpAction::kPass) << "i=" << i;
  }
  // Stateful modes mutate and rewrite — they must not lower.
  ConntrackConfig track_config;
  track_config.mode = CtMode::kTrack;
  ConntrackEnetstl track(track_config);
  EXPECT_FALSE(track.LowerToKeyOp().has_value());
  ConntrackConfig nat_config;
  nat_config.mode = CtMode::kNat;
  ConntrackEnetstl nat(nat_config);
  EXPECT_FALSE(nat.LowerToKeyOp().has_value());
}

TEST_F(ConntrackNfTest, ExportImportPreservesFlowsAcrossVariants) {
  ConntrackConfig config;
  config.mode = CtMode::kNat;
  ConntrackEbpf src(config);
  // Establish 20 NAT'ed flows on the eBPF-model engine.
  std::vector<ebpf::FiveTuple> flows;
  std::vector<u16> nat_ports;
  for (u32 i = 0; i < 20; ++i) {
    flows.push_back(TcpFlow(i));
    pktgen::Packet p = MakePacket(flows[i]);
    ASSERT_EQ(RunScalar(src, p), ebpf::XdpAction::kPass);
    nat_ports.push_back(FrameSrcPort(p));
  }
  std::vector<u8> blob;
  ASSERT_TRUE(src.ExportState(blob));

  // Hot-swap target: the arena engine. Every existing flow must hit with the
  // SAME binding; the binding counter must carry over.
  ConntrackEnetstl dst(config);
  ASSERT_TRUE(dst.ImportState(blob.data(), blob.size()));
  for (u32 i = 0; i < 20; ++i) {
    pktgen::Packet p = MakePacket(flows[i]);
    ASSERT_EQ(RunScalar(dst, p), ebpf::XdpAction::kPass);
    EXPECT_EQ(FrameSrcPort(p), nat_ports[i]) << "i=" << i;
  }
  EXPECT_EQ(dst.created(), 0u);
  EXPECT_EQ(dst.hits(), 20u);
  // A new flow draws the NEXT counter value, not a colliding reused one.
  pktgen::Packet fresh = MakePacket(TcpFlow(900));
  ASSERT_EQ(RunScalar(dst, fresh), ebpf::XdpAction::kPass);
  EXPECT_EQ(FrameSrcPort(fresh), static_cast<u16>(config.nat_port_base + 20));

  // Round-trip the other way (arena -> LRU-map model).
  std::vector<u8> blob2;
  ASSERT_TRUE(dst.ExportState(blob2));
  ConntrackEbpf back(config);
  ASSERT_TRUE(back.ImportState(blob2.data(), blob2.size()));
  for (u32 i = 0; i < 20; ++i) {
    pktgen::Packet p = MakePacket(flows[i]);
    ASSERT_EQ(RunScalar(back, p), ebpf::XdpAction::kPass);
    EXPECT_EQ(FrameSrcPort(p), nat_ports[i]) << "i=" << i;
  }
  EXPECT_EQ(back.created(), 0u);

  // Truncated blobs are rejected.
  ConntrackEnetstl reject(config);
  EXPECT_FALSE(reject.ImportState(blob.data(), blob.size() - 5));
  EXPECT_FALSE(reject.ImportState(blob.data(), 3));
}

}  // namespace
}  // namespace nf
