// Differential conntrack/NAT soak: the arena-engine NF versus a plain
// hash-map oracle, at a million-plus live flows with Zipf-distributed churn.
// Every packet's verdict AND rewritten frame bytes must match the oracle
// exactly, and the RefLeakChecker must see zero leaked arena slots at the
// end. The nightly variant scales to ten million flows (ENETSTL_NIGHTLY).
//
// ENETSTL_SOAK_FLOWS overrides the live-flow target.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "ebpf/helper.h"
#include "ebpf/program.h"
#include "ebpf/verifier.h"
#include "nf/conntrack.h"
#include "pktgen/flowgen.h"
#include "pktgen/packet.h"

// Sanitizer builds pay a 5-20x slowdown; scale the default population down
// so the sanitize/TSan CI lanes stay within their budget. Explicit
// ENETSTL_SOAK_FLOWS still wins.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CT_SOAK_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CT_SOAK_SANITIZED 1
#endif

namespace nf {
namespace {

u32 SoakFlowTarget(u32 fallback) {
  if (const char* env = std::getenv("ENETSTL_SOAK_FLOWS")) {
    const unsigned long long v = std::strtoull(env, nullptr, 10);
    if (v > 0) {
      return static_cast<u32>(v);
    }
  }
  return fallback;
}

u8 FrameTcpFlags(const pktgen::Packet& p) {
  return p.frame[ebpf::kL4HeaderOffset + 13];
}

void SetFrameTcpFlags(pktgen::Packet& p, u8 flags) {
  p.frame[ebpf::kL4HeaderOffset + 13] = flags;
}

// Reference model: a std::unordered_map-backed conntrack/NAT that mirrors
// the NF's decision procedure statement by statement (state machine, lazy
// expiry, stray-RST rule, deterministic binding counter, header rewrites).
// It models no LRU eviction, so the harness keeps live flows under the
// engine's capacity.
class CtOracle {
 public:
  explicit CtOracle(const ConntrackConfig& config) : config_(config) {}

  ebpf::XdpAction Process(pktgen::Packet& p, u64 now) {
    ebpf::XdpContext ctx{p.frame, p.frame + ebpf::kFrameSize, 0};
    ebpf::FiveTuple key;
    if (!ebpf::ParseFiveTuple(ctx, &key)) {
      return ebpf::XdpAction::kAborted;
    }
    const u8 proto = key.protocol;
    const u8 flags = FrameTcpFlags(p);
    auto it = idx_.find(key);
    if (it != idx_.end()) {
      const u32 slot = it->second.first;
      const u8 dir = it->second.second;
      Flow& f = slots_[slot];
      if (f.expires <= now) {
        Remove(slot);  // lazy expiry: due pair collected on lookup
      } else {
        FlowState next = f.state;
        if (proto == kProtoTcp) {
          if (flags & kTcpRst) {
            Remove(slot);
            return ebpf::XdpAction::kPass;
          }
          if (flags & kTcpFin) {
            next = FlowState::kFinWait;
          } else if (f.state == FlowState::kNew && dir == 1) {
            next = FlowState::kEstablished;
          }
        }
        f.state = next;
        f.expires = now + CtTimeoutFor(config_.table, next);
        if (config_.mode == CtMode::kNat) {
          if (dir == 0) {
            RewriteFwd(p, f.nat_ip, f.nat_port);
          } else {
            RewriteRev(p, f.fwd.src_ip, f.fwd.src_port);
          }
        }
        return ebpf::XdpAction::kPass;
      }
    }
    if (proto == kProtoTcp && (flags & kTcpRst)) {
      return ebpf::XdpAction::kPass;  // stray RST never creates state
    }
    Flow f;
    f.fwd = key;
    f.state = proto != kProtoTcp
                  ? FlowState::kUdpIdle
                  : ((flags & kTcpFin) ? FlowState::kFinWait : FlowState::kNew);
    f.expires = now + CtTimeoutFor(config_.table, f.state);
    if (config_.mode == CtMode::kNat) {
      const u64 k = nat_next_++;
      f.nat_port = static_cast<u16>(
          config_.nat_port_base + static_cast<u32>(k % config_.nat_port_span));
      f.nat_ip = config_.nat_ip_base +
                 static_cast<u32>((k / config_.nat_port_span) %
                                  config_.nat_pool_size);
      f.rev.src_ip = key.dst_ip;
      f.rev.dst_ip = f.nat_ip;
      f.rev.src_port = key.dst_port;
      f.rev.dst_port = f.nat_port;
      f.rev.protocol = key.protocol;
    } else {
      f.rev = FlowTable::ReverseTuple(key);
    }
    const u32 slot = Alloc(f);
    idx_[slots_[slot].fwd] = {slot, 0};
    idx_[slots_[slot].rev] = {slot, 1};
    if (config_.mode == CtMode::kNat) {
      RewriteFwd(p, slots_[slot].nat_ip, slots_[slot].nat_port);
    }
    return ebpf::XdpAction::kPass;
  }

  // Live reply tuple for `fwd`, or nullptr (used to synthesize replies).
  const ebpf::FiveTuple* ReplyTupleFor(const ebpf::FiveTuple& fwd,
                                       u64 now) const {
    auto it = idx_.find(fwd);
    if (it == idx_.end() || it->second.second != 0 ||
        slots_[it->second.first].expires <= now) {
      return nullptr;
    }
    return &slots_[it->second.first].rev;
  }

  std::size_t live() const { return idx_.size() / 2; }

  // The oracle only expires lazily; before comparing populations with the
  // sweep-driven engine, drop everything already due.
  void PurgeExpired(u64 now) {
    std::vector<u32> dead;
    for (const auto& [key, ref] : idx_) {
      if (ref.second == 0 && slots_[ref.first].expires <= now) {
        dead.push_back(ref.first);
      }
    }
    for (const u32 slot : dead) {
      Remove(slot);
    }
  }

 private:
  struct Flow {
    ebpf::FiveTuple fwd;
    ebpf::FiveTuple rev;
    u64 expires = 0;
    FlowState state = FlowState::kNew;
    u32 nat_ip = 0;
    u16 nat_port = 0;
  };

  static void RewriteFwd(pktgen::Packet& p, u32 nat_ip, u16 nat_port) {
    std::memcpy(p.frame + ebpf::kIpHeaderOffset + 12, &nat_ip, 4);
    std::memcpy(p.frame + ebpf::kL4HeaderOffset, &nat_port, 2);
  }
  static void RewriteRev(pktgen::Packet& p, u32 orig_ip, u16 orig_port) {
    std::memcpy(p.frame + ebpf::kIpHeaderOffset + 16, &orig_ip, 4);
    std::memcpy(p.frame + ebpf::kL4HeaderOffset + 2, &orig_port, 2);
  }

  u32 Alloc(const Flow& f) {
    if (!free_.empty()) {
      const u32 slot = free_.back();
      free_.pop_back();
      slots_[slot] = f;
      return slot;
    }
    slots_.push_back(f);
    return static_cast<u32>(slots_.size() - 1);
  }

  void Remove(u32 slot) {
    idx_.erase(slots_[slot].fwd);
    idx_.erase(slots_[slot].rev);
    free_.push_back(slot);
  }

  ConntrackConfig config_;
  std::unordered_map<ebpf::FiveTuple, std::pair<u32, u8>, ebpf::FiveTupleHash>
      idx_;
  std::vector<Flow> slots_;
  std::vector<u32> free_;
  u64 nat_next_ = 0;
};

constexpr u32 kSoakBurst = 3 * 64 + 7;  // always exercises the remainder tail

void RunDifferentialSoak(u32 target_flows) {
  ebpf::SetCurrentCpu(0);
  ConntrackConfig config;
  config.mode = CtMode::kNat;
  // Headroom above the live target so the oracle (which models no LRU
  // eviction) stays a faithful reference.
  config.table.max_flows = target_flows + target_flows / 2;
  ConntrackEnetstl engine(config);
  CtOracle oracle(config);
  ebpf::RefLeakChecker leaks;
  engine.table().SetLeakChecker(&leaks);

  const auto flows = pktgen::MakeFlowPopulation(target_flows, 0x50a4);
  u64 now = 0;

  std::vector<pktgen::Packet> mine(kSoakBurst);
  std::vector<pktgen::Packet> theirs(kSoakBurst);
  std::vector<ebpf::XdpContext> ctxs(kSoakBurst);
  std::vector<ebpf::XdpAction> verdicts(kSoakBurst);

  const auto run_burst = [&](u32 n) {
    for (u32 i = 0; i < n; ++i) {
      theirs[i] = mine[i];
      ctxs[i] =
          ebpf::XdpContext{mine[i].frame, mine[i].frame + ebpf::kFrameSize, 0};
    }
    engine.ProcessBurst(ctxs.data(), n, verdicts.data());
    for (u32 i = 0; i < n; ++i) {
      ASSERT_EQ(verdicts[i], oracle.Process(theirs[i], now)) << "i=" << i;
      ASSERT_EQ(std::memcmp(mine[i].frame, theirs[i].frame, ebpf::kFrameSize),
                0)
          << "i=" << i;
    }
  };

  // Phase 1 — setup: one forward packet then one reply per flow, bringing
  // every TCP flow to ESTABLISHED (long timeout) so the population survives
  // the churn phase's clock advances.
  for (u32 base = 0; base < target_flows; base += kSoakBurst) {
    const u32 n = std::min(kSoakBurst, target_flows - base);
    for (u32 i = 0; i < n; ++i) {
      mine[i] = pktgen::Packet::FromTuple(flows[base + i]);
    }
    run_burst(n);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    for (u32 i = 0; i < n; ++i) {
      const ebpf::FiveTuple* rev = oracle.ReplyTupleFor(flows[base + i], now);
      ASSERT_NE(rev, nullptr) << "flow " << base + i;
      mine[i] = pktgen::Packet::FromTuple(*rev);
    }
    run_burst(n);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  ASSERT_EQ(engine.table().live_flows(), target_flows);
  ASSERT_EQ(oracle.live(), target_flows);
  ASSERT_EQ(leaks.LiveCount("conntrack.flow"), target_flows);

  // Phase 2 — Zipf churn: skewed traffic with replies, FINs, RSTs, and
  // periodic clock advances driving sweeps on the engine side
  // (the oracle only ever expires lazily — verdicts must not care).
  pktgen::Rng rng(0xc417);
  const u32 churn_packets = target_flows;
  const u32 segment = 200 * kSoakBurst;
  // 32 sweeps totalling ~2^29 ns of virtual time — enough to expire FIN-wait
  // flows (2^27 class) while staying under the UDP idle class (2^30), so the
  // unrefreshed Zipf tail survives to the end-of-run census.
  const u32 advance_every = std::max(churn_packets / 32, kSoakBurst);
  u32 next_advance = advance_every;
  u32 emitted = 0;
  u32 seg_seed = 1;
  while (emitted < churn_packets) {
    const u32 seg_len = std::min(segment, churn_packets - emitted);
    const auto trace =
        pktgen::MakeZipfTrace(flows, seg_len, 0.99, 0xe1f0 + seg_seed++);
    u32 off = 0;
    while (off < seg_len) {
      const u32 n = std::min(kSoakBurst, seg_len - off);
      for (u32 i = 0; i < n; ++i) {
        ebpf::FiveTuple t;
        {
          ebpf::XdpContext tc{const_cast<u8*>(trace[off + i].frame),
                              const_cast<u8*>(trace[off + i].frame) +
                                  ebpf::kFrameSize,
                              0};
          ASSERT_TRUE(ebpf::ParseFiveTuple(tc, &t));
        }
        const u32 r = static_cast<u32>(rng.NextBounded(100));
        if (r < 20) {
          if (const ebpf::FiveTuple* rev = oracle.ReplyTupleFor(t, now)) {
            t = *rev;
          }
        }
        mine[i] = pktgen::Packet::FromTuple(t);
        if (r >= 97) {
          SetFrameTcpFlags(mine[i], kTcpRst);
        } else if (r >= 93) {
          SetFrameTcpFlags(mine[i], kTcpFin);
        }
      }
      run_burst(n);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
      off += n;
      emitted += n;
      if (emitted >= next_advance) {
        next_advance += advance_every;
        now += 1ull << 24;
        engine.AdvanceTo(now);
      }
    }
  }

  // The engine and the oracle must agree on the surviving population, and
  // every live arena slot must be accounted for. `now` is a multiple of the
  // sweep step, so after AdvanceTo the engine holds exactly the flows with
  // expires > now — the same census PurgeExpired leaves the oracle.
  engine.AdvanceTo(now);
  oracle.PurgeExpired(now);
  // The sweep must leave no due flow behind: a live-but-expired entry means
  // a class list was out of expiry order, or the sweep stopped early.
  u64 stale_live = 0;
  engine.table().ForEachLruOldestFirst([&](const nf::FlowEntry& e) {
    if (e.expires_ns <= now && stale_live++ < 3) {
      ADD_FAILURE() << "due flow survived the sweep: state "
                    << static_cast<int>(e.state) << " expired "
                    << (now - e.expires_ns) << "ns ago";
    }
  });
  EXPECT_EQ(stale_live, 0u);
  EXPECT_EQ(engine.table().live_flows(), oracle.live());
  EXPECT_GE(engine.table().live_flows(), target_flows * 9ull / 10);
  EXPECT_EQ(leaks.LiveCount("conntrack.flow"), engine.table().live_flows());

  // Phase 3 — drain: advance past every timeout class; the sweep must empty
  // the table with zero leaked slots.
  engine.AdvanceTo(now + config.table.established_timeout_ns +
                   2 * config.table.wheel_granularity_ns);
  EXPECT_EQ(engine.table().live_flows(), 0u);
  EXPECT_EQ(leaks.LiveCount("conntrack.flow"), 0u);
  EXPECT_EQ(engine.table().stats().insert_failures, 0u);
}

TEST(ConntrackSoak, MillionFlowZipfChurnDifferential) {
#ifdef CT_SOAK_SANITIZED
  const u32 n = SoakFlowTarget(100'000);
#else
  const u32 n = SoakFlowTarget(1'000'000);
#endif
  RunDifferentialSoak(n);
}

TEST(ConntrackSoakNightly, TenMillionFlowDifferentialSoak) {
  if (std::getenv("ENETSTL_NIGHTLY") == nullptr) {
    GTEST_SKIP() << "nightly-only: set ENETSTL_NIGHTLY=1 (and optionally "
                    "ENETSTL_SOAK_FLOWS) to run the 10M-flow soak";
  }
  RunDifferentialSoak(SoakFlowTarget(10'000'000));
}

}  // namespace
}  // namespace nf
