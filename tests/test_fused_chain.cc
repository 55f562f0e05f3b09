// Differential suite for the fused executor, the burst path of every chain:
// fused bursts must be bit-identical to the scalar tail-call walk — verdicts,
// frame bytes, per-stage counters, and the sampled obs event stream — across
// depths 1..8, all variants, seeded traffic mixes (resident / non-resident /
// corrupted frames), burst shapes, and fault-injection-degraded structures.
// Plus the build lifecycle: Load() and every committed edit rebuild the fused
// program before the next burst, and a rejected edit keeps it.
#include "nf/fused_chain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fault_injector.h"
#include "nf/chain.h"
#include "nf/nf_registry.h"
#include "obs/telemetry.h"
#include "pktgen/flowgen.h"

namespace nf {
namespace {

const BenchEnv& Env() {
  static const BenchEnv env = MakeDefaultBenchEnv();
  return env;
}

std::vector<std::string> StageNames(u32 length) {
  static const char* kCycle[] = {"cuckoo-filter", "vbf-membership"};
  std::vector<std::string> names;
  for (u32 i = 0; i < length; ++i) {
    names.push_back(kCycle[i % 2]);
  }
  return names;
}

ebpf::XdpContext ContextFor(pktgen::Packet& packet) {
  return ebpf::XdpContext{packet.frame, packet.frame + ebpf::kFrameSize, 0};
}

// Deterministic primed chain; twins built by separate calls are
// bit-identical.
std::unique_ptr<ChainExecutor> MakeChain(
    const std::vector<std::string>& names, Variant v) {
  return MakeBenchChain(names, v, Env());
}

// Seeded op mix: uniform packets over a flow window [first, first + count),
// with every `corrupt_every`-th frame's Ethernet header zeroed so parsing
// fails (kAborted at the first stage that looks).
std::vector<pktgen::Packet> MakeMix(u32 first_flow, u32 flow_count,
                                    u32 packets, u32 seed,
                                    u32 corrupt_every = 0) {
  const std::vector<ebpf::FiveTuple> flows(
      Env().flows.begin() + first_flow,
      Env().flows.begin() + first_flow + flow_count);
  const pktgen::Trace trace = pktgen::MakeUniformTrace(flows, packets, seed);
  std::vector<pktgen::Packet> pkts(trace.begin(), trace.begin() + packets);
  if (corrupt_every != 0) {
    for (u32 i = corrupt_every - 1; i < packets; i += corrupt_every) {
      std::memset(pkts[i].frame, 0, 14);  // wreck the Ethernet header
    }
  }
  return pkts;
}

// Per-stage counters without the timing field (only the burst path times
// stages; everything else must match exactly).
struct StageCounts {
  u64 in, pass, drop, tx, redirect, aborted;
  bool operator==(const StageCounts& o) const {
    return in == o.in && pass == o.pass && drop == o.drop && tx == o.tx &&
           redirect == o.redirect && aborted == o.aborted;
  }
};

std::vector<StageCounts> Counts(const ChainExecutor& chain) {
  std::vector<StageCounts> out;
  for (const ChainStageStats& s : chain.stage_stats()) {
    out.push_back({s.in, s.pass, s.drop, s.tx, s.redirect, s.aborted});
  }
  return out;
}

// What one run left behind: a verdict per packet and the frames as the
// chain left them. Each run deep-copies the input, so frame state never
// leaks between the runs of twins.
struct ChainRun {
  std::vector<ebpf::XdpAction> verdicts;
  std::vector<pktgen::Packet> frames;
};

// Drives `chain` over `pkts` in bursts of `burst` (the fused program).
ChainRun RunBursts(ChainExecutor& chain, const std::vector<pktgen::Packet>& pkts,
              u32 burst) {
  ChainRun run{std::vector<ebpf::XdpAction>(pkts.size()), pkts};
  std::vector<ebpf::XdpContext> ctxs(pkts.size());
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    ctxs[i] = ContextFor(run.frames[i]);
  }
  for (std::size_t base = 0; base < pkts.size(); base += burst) {
    const u32 n =
        static_cast<u32>(std::min<std::size_t>(burst, pkts.size() - base));
    chain.ProcessBurst(ctxs.data() + base, n, run.verdicts.data() + base);
  }
  return run;
}

// Drives `chain` one packet at a time (the scalar tail-call oracle).
ChainRun RunScalar(ChainExecutor& chain, const std::vector<pktgen::Packet>& pkts) {
  ChainRun run{std::vector<ebpf::XdpAction>(pkts.size()), pkts};
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    ebpf::XdpContext ctx = ContextFor(run.frames[i]);
    run.verdicts[i] = chain.Process(ctx);
  }
  return run;
}

void ExpectSameRun(const ChainRun& burst, const ChainRun& scalar,
                   const std::string& label) {
  ASSERT_EQ(burst.verdicts.size(), scalar.verdicts.size()) << label;
  for (std::size_t i = 0; i < burst.verdicts.size(); ++i) {
    ASSERT_EQ(burst.verdicts[i], scalar.verdicts[i])
        << label << " packet " << i;
    ASSERT_EQ(std::memcmp(burst.frames[i].frame, scalar.frames[i].frame,
                          ebpf::kFrameSize),
              0)
        << label << " frame " << i;
  }
}

// Core differential check: twin chains, one driven in bursts (fused), one
// packet by packet (scalar oracle); identical traffic; verdicts, frames and
// per-stage counters must match bit for bit, and every burst packet must
// have run fused.
void ExpectBurstMatchesScalar(const std::vector<std::string>& names,
                              Variant v,
                              const std::vector<pktgen::Packet>& pkts,
                              u32 burst, const std::string& label) {
  auto chain = MakeChain(names, v);
  auto oracle = MakeChain(names, v);
  ASSERT_NE(chain, nullptr) << label;
  ASSERT_NE(oracle, nullptr) << label;

  ExpectSameRun(RunBursts(*chain, pkts, burst), RunScalar(*oracle, pkts),
                label);
  EXPECT_EQ(Counts(*chain), Counts(*oracle)) << label;
  EXPECT_EQ(chain->fusion_stats().fused_packets, pkts.size()) << label;
  EXPECT_EQ(chain->fusion_stats().generic_bursts, 0u) << label;
}

// ---------------------------------------------------------------------------
// Differential: depths x variants x op mixes x burst shapes
// ---------------------------------------------------------------------------

TEST(FusedChainDifferential, MatchesGenericAcrossDepthsVariantsAndMixes) {
  const Variant kVariants[] = {Variant::kEbpf, Variant::kKernel,
                               Variant::kEnetstl};
  // Three seeded mixes: resident-heavy (nearly all PASS, dense lanes),
  // non-resident-heavy (drop at the first stage, sparse lanes), and a mixed
  // window with corrupted frames (kAborted interleaved).
  struct Mix {
    const char* name;
    u32 first, flows, corrupt;
  };
  const Mix kMixes[] = {
      {"resident", 0, 2048, 0},
      {"nonresident", 3500, 596, 0},
      {"mixed+corrupt", 1024, 3000, 13},
  };
  for (u32 depth = 1; depth <= 8; ++depth) {
    const std::vector<std::string> names = StageNames(depth);
    for (const Variant v : kVariants) {
      for (const Mix& mix : kMixes) {
        const u32 seed = 1000 * depth + 10 * static_cast<u32>(v) + mix.first;
        const std::vector<pktgen::Packet> pkts =
            MakeMix(mix.first, mix.flows, 256, seed, mix.corrupt);
        ExpectBurstMatchesScalar(
            names, v, pkts, 32,
            "depth " + std::to_string(depth) + " " +
                std::string(VariantName(v)) + " " + mix.name);
      }
    }
  }
}

TEST(FusedChainDifferential, BurstShapesIncludingOversized) {
  const std::vector<std::string> names = StageNames(4);
  const std::vector<pktgen::Packet> pkts = MakeMix(1024, 3000, 417, 21, 11);
  for (const u32 burst : {1u, 7u, 32u, kMaxNfBurst, 3 * kMaxNfBurst + 7}) {
    ExpectBurstMatchesScalar(names, Variant::kEnetstl, pkts, burst,
                             "burst " + std::to_string(burst));
  }
}

// A stateful, non-lowered stage (heavykeeper mutates its sketch on every
// packet) between two lowered membership stages: the fused walk must feed it
// the exact survivor sequence the scalar walk does, and re-parse keys after
// it (the stage may touch frames).
TEST(FusedChainDifferential, MixedChainWithNonLoweredStage) {
  const std::vector<std::string> names = {"cuckoo-filter", "heavykeeper",
                                          "vbf-membership"};
  const std::vector<pktgen::Packet> pkts = MakeMix(1500, 2500, 384, 33, 17);
  for (const Variant v : {Variant::kEbpf, Variant::kKernel,
                          Variant::kEnetstl}) {
    ExpectBurstMatchesScalar(names, v, pkts, 32,
                             "mixed " + std::string(VariantName(v)));
  }
  // Sanity: heavykeeper must really be the non-lowered one.
  auto chain = MakeChain(names, Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  EXPECT_FALSE(chain->stage(1).LowerToKeyOp().has_value());
  EXPECT_TRUE(chain->stage(0).LowerToKeyOp().has_value());
}

// ---------------------------------------------------------------------------
// Differential under fault injection (degraded structures)
// ---------------------------------------------------------------------------

// Forced kick-chain exhaustion during priming parks fingerprints in the
// cuckoo filter's victim stash, so membership takes the degraded
// stash-probing path — which the fused key op must reproduce exactly.
TEST(FusedChainDifferential, DegradedFilterViaFaultInjectionMatches) {
  auto& inj = enetstl::FaultInjector::Global();
  const std::vector<std::string> names = StageNames(4);
  const std::vector<pktgen::Packet> pkts = MakeMix(0, 4096, 384, 55, 19);

  struct Arm {
    const char* name;
    void (*arm)(enetstl::FaultInjector&);
  };
  const Arm kArms[] = {
      {"every-40th",
       [](enetstl::FaultInjector& f) {
         f.ArmEveryNth("cuckoo_filter.add", 40);
       }},
      {"p=0.02 seeded",
       [](enetstl::FaultInjector& f) {
         f.ArmProbability("cuckoo_filter.add", 0.02, 0xfa7);
       }},
  };
  for (const Arm& arm : kArms) {
    // Re-arm identically before each build so both twins prime against the
    // same deterministic fault stream (and disarm before traffic: lookups
    // have no fault point, this degrades construction only).
    inj.Reset();
    arm.arm(inj);
    auto oracle = MakeChain(names, Variant::kEnetstl);
    inj.Reset();
    arm.arm(inj);
    auto chain = MakeChain(names, Variant::kEnetstl);
    inj.Reset();
    ASSERT_NE(oracle, nullptr);
    ASSERT_NE(chain, nullptr);

    ExpectSameRun(RunBursts(*chain, pkts, 32), RunScalar(*oracle, pkts),
                  arm.name);
    EXPECT_EQ(Counts(*chain), Counts(*oracle)) << arm.name;
  }
}

// ---------------------------------------------------------------------------
// Obs event-stream / histogram parity
// ---------------------------------------------------------------------------

// Flow ids of the sampled packet events, grouped by scope in emission order.
std::map<obs::u16, std::vector<u32>> DrainSampledFlows(
    obs::Telemetry& telemetry) {
  std::map<obs::u16, std::vector<u32>> flows;
  telemetry.ring().Consume([&](const void* data, ebpf::u32 len) {
    if (len != sizeof(obs::ObsEvent)) {
      return;
    }
    obs::ObsEvent event;
    std::memcpy(&event, data, sizeof(event));
    if (event.kind != obs::ObsEvent::kControl) {
      flows[event.scope].push_back(event.flow);
    }
  });
  return flows;
}

std::vector<u64> StageSamples(obs::Telemetry& telemetry,
                              ChainExecutor& chain) {
  std::vector<u64> samples;
  for (u32 s = 0; s < chain.depth(); ++s) {
    samples.push_back(
        telemetry
            .Snapshot(telemetry.RegisterScope(
                "chain/" + std::to_string(s) + ":" +
                std::string(chain.stage(s).name())))
            .samples);
  }
  return samples;
}

// The fused walk must advance the 1/N sampler as the scalar walk does: each
// stage scope sees the same sample count and the same flow sequence. Only
// the event kind (burst-average vs individually timed) and the latency
// values differ, and the scalar walk interleaves scopes per packet where
// the fused walk emits them stage by stage. Sample-every=1 makes the
// comparison exact and independent of the thread-local countdown's phase.
TEST(FusedChainObs, SampledEventStreamMatchesGeneric) {
  if constexpr (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  obs::Telemetry& telemetry = obs::Telemetry::Global();
  const std::vector<std::string> names = StageNames(3);
  const std::vector<pktgen::Packet> pkts = MakeMix(1024, 3000, 192, 91, 13);

  auto oracle = MakeChain(names, Variant::kEnetstl);
  auto chain = MakeChain(names, Variant::kEnetstl);
  ASSERT_NE(oracle, nullptr);
  ASSERT_NE(chain, nullptr);

  telemetry.Enable(1);
  (void)DrainSampledFlows(telemetry);  // discard anything older

  // Twin chains share scope ids (same chain/stage names), so snapshots taken
  // between runs need a reset, not separate scopes.
  telemetry.ResetCounts();
  (void)RunScalar(*oracle, pkts);
  const auto scalar_flows = DrainSampledFlows(telemetry);
  const std::vector<u64> scalar_samples = StageSamples(telemetry, *oracle);

  telemetry.ResetCounts();
  (void)RunBursts(*chain, pkts, 32);
  const auto fused_flows = DrainSampledFlows(telemetry);
  const std::vector<u64> fused_samples = StageSamples(telemetry, *chain);
  telemetry.Disable();

  ASSERT_EQ(scalar_flows.size(), names.size());
  EXPECT_EQ(scalar_flows, fused_flows);
  EXPECT_EQ(scalar_samples, fused_samples);
  EXPECT_EQ(scalar_samples[0], pkts.size());
}

// ---------------------------------------------------------------------------
// Build lifecycle: Load and committed edits rebuild the fused program
// ---------------------------------------------------------------------------

// Reconfiguring a chain mid-traffic rebuilds its fused program before the
// next burst, and that burst runs the new stage set.
TEST(FusedChainStateMachine, ReplaceStageDemotesBeforeNextBurst) {
  auto chain = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  const FusionStats before = chain->fusion_stats();
  EXPECT_EQ(before.promotions, 1u) << "Load() builds the fused program";

  const std::vector<pktgen::Packet> pkts = MakeMix(0, 2048, 64, 11);
  (void)RunBursts(*chain, pkts, 32);

  // Swap stage 1 for an unprimed vbf (empty table: everything drops there).
  ASSERT_TRUE(chain
                  ->ReplaceStage(1, NfRegistry::Global().Create(
                                        "vbf-membership", Variant::kEnetstl))
                  .ok);
  EXPECT_EQ(chain->fusion_stats().generation, before.generation + 1);
  EXPECT_EQ(chain->fusion_stats().promotions, before.promotions + 1);
  EXPECT_EQ(chain->fusion_stats().demotions, before.demotions + 1);

  // The next burst runs the rebuilt program: it drops everything that
  // reaches the new stage, counts into the new stage's fresh slot, and
  // matches a freshly built oracle of the post-edit shape.
  auto oracle = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(oracle, nullptr);
  ASSERT_TRUE(oracle
                  ->ReplaceStage(1, NfRegistry::Global().Create(
                                        "vbf-membership", Variant::kEnetstl))
                  .ok);
  const ChainRun run = RunBursts(*chain, pkts, 32);
  ExpectSameRun(run, RunScalar(*oracle, pkts), "post-replace");
  for (std::size_t i = 0; i < run.verdicts.size(); ++i) {
    EXPECT_NE(run.verdicts[i], ebpf::XdpAction::kPass) << i;
  }
  EXPECT_EQ(Counts(*chain)[1], Counts(*oracle)[1]);
  EXPECT_GT(chain->stage_stats()[1].in, 0u);
  EXPECT_EQ(chain->stage_stats()[1].drop, chain->stage_stats()[1].in);
}

// Reloading is a whole-chain rebuild: a new fused program and generation,
// and the chain keeps matching the scalar oracle.
TEST(FusedChainStateMachine, ReloadRebuildsTheFusedProgram) {
  auto chain = MakeChain(StageNames(2), Variant::kEnetstl);
  auto oracle = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  ASSERT_NE(oracle, nullptr);
  const FusionStats before = chain->fusion_stats();
  ASSERT_TRUE(chain->Load().ok);
  EXPECT_GT(chain->fusion_stats().generation, before.generation)
      << "Load() is a reconfiguration";
  EXPECT_EQ(chain->fusion_stats().promotions, before.promotions + 1);
  EXPECT_EQ(chain->fusion_stats().demotions, before.demotions + 1);

  const std::vector<pktgen::Packet> pkts = MakeMix(1024, 3000, 128, 17, 13);
  ExpectSameRun(RunBursts(*chain, pkts, 32), RunScalar(*oracle, pkts),
                "reloaded");
  EXPECT_EQ(Counts(*chain), Counts(*oracle));
}

TEST(FusedChainStateMachine, FailedReplacementRollsBackAndStaysRunnable) {
  auto chain = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  const FusionStats before = chain->fusion_stats();
  // Rejected up front: nothing is built, so the fused program and its
  // generation stay as they were.
  EXPECT_FALSE(chain->ReplaceStage(1, nullptr).ok);
  EXPECT_FALSE(chain->ReplaceStage(99, nullptr).ok);
  EXPECT_EQ(chain->fusion_stats().generation, before.generation);
  EXPECT_EQ(chain->fusion_stats().promotions, before.promotions);
  EXPECT_EQ(chain->fusion_stats().demotions, before.demotions);
  // The chain is still runnable.
  const std::vector<pktgen::Packet> pkts = MakeMix(0, 2048, 32, 13);
  EXPECT_EQ(RunBursts(*chain, pkts, 32).verdicts.size(), pkts.size());
}

// ---------------------------------------------------------------------------
// Tail-call budget eligibility
// ---------------------------------------------------------------------------

class PassNf : public NetworkFunction {
 public:
  ebpf::XdpAction Process(ebpf::XdpContext&) override {
    return ebpf::XdpAction::kPass;
  }
  std::string_view name() const override { return "pass"; }
  Variant variant() const override { return Variant::kKernel; }
};

TEST(FusedChainBudget, DepthAtTailCallLimitFusesAndRuns) {
  ChainExecutor chain("deep-33-fused");
  for (u32 i = 0; i < ebpf::kMaxTailCallChain; ++i) {
    chain.AddStage(std::make_unique<PassNf>());
  }
  ASSERT_TRUE(chain.Load().ok);
  EXPECT_EQ(chain.fusion_stats().promotions, 1u);
  pktgen::Packet pkt = Env().uniform[0];
  ebpf::XdpContext ctx = ContextFor(pkt);
  ebpf::XdpAction verdict;
  chain.ProcessBurst(&ctx, 1, &verdict);
  EXPECT_EQ(verdict, ebpf::XdpAction::kPass);
  EXPECT_EQ(chain.stage_stats().back().pass, 1u);
  EXPECT_EQ(chain.fusion_stats().fused_packets, 1u);
}

TEST(FusedChainBudget, EligibilityTracksTailCallBudget) {
  EXPECT_TRUE(ebpf::FusionWithinTailCallBudget(1));
  EXPECT_TRUE(ebpf::FusionWithinTailCallBudget(ebpf::kMaxTailCallChain));
  EXPECT_FALSE(ebpf::FusionWithinTailCallBudget(0));
  EXPECT_FALSE(ebpf::FusionWithinTailCallBudget(ebpf::kMaxTailCallChain + 1));
  // FusedChain::Fuse enforces it independently of the executor.
  std::vector<FusedStage> too_deep(ebpf::kMaxTailCallChain + 1);
  EXPECT_EQ(FusedChain::Fuse(std::move(too_deep), 0), nullptr);
}

}  // namespace
}  // namespace nf
