// Measurement harness shared by the four workloads: closed-loop runs through
// the pktgen pipeline, the scalar-twin oracle, conservation laws, set-up
// timing, and the per-layer ledger pieces (sampled chain bursts, harness
// cost, helper crossings).
#ifndef ENETSTL_BENCH_E2E_HARNESS_H_
#define ENETSTL_BENCH_E2E_HARNESS_H_

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "apps/katran_lb.h"
#include "apps/rakelimit.h"
#include "e2e.h"
#include "ebpf/helper.h"
#include "nf/chain.h"
#include "nf/nf_registry.h"
#include "pktgen/pipeline.h"
#include "span_recorder.h"

namespace e2e {

using ebpf::XdpAction;
using ebpf::XdpContext;
using pktgen::Packet;
using pktgen::Trace;

inline constexpr u32 kBurst = 32;               // every burst in the benchmark
inline constexpr u64 kWarmupPackets = 32768;    // per measured call
inline constexpr u64 kOraclePackets = 65536;    // scalar-twin prefix
inline constexpr u32 kSetupWarmup = 20;         // untimed set-up builds
inline constexpr u32 kMinReps = 3;

inline XdpContext ContextOf(Packet& packet) {
  return XdpContext{packet.frame, packet.frame + ebpf::kFrameSize, 0};
}

inline double Ratio(u64 num, u64 den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

// ---------------------------------------------------------------------------
// Library introspection. The ledger and the laws read counters the library
// already keeps (ChainExecutor::stage_stats() and fusion_stats()), called
// directly: a change that removes one breaks this build rather than silently
// dropping a conservation law.
// ---------------------------------------------------------------------------

struct StageCount {
  std::string name;
  u64 in = 0;
  u64 pass = 0;
  u64 drop = 0;
  u64 tx = 0;
  u64 redirect = 0;
  u64 aborted = 0;
  u64 ns = 0;
};

std::vector<StageCount> StageCounts(const nf::ChainExecutor& chain);

// Stage ns per chain packet between two snapshots, summed over the stages
// called `name` (a name may occur more than once in a chain).
double StageNsPerPacket(const std::vector<StageCount>& before,
                        const std::vector<StageCount>& after,
                        const std::string& name, u64 packets);

// ---------------------------------------------------------------------------
// Conservation laws and the scalar-twin oracle.
// ---------------------------------------------------------------------------

// Pipeline accounting: the packets asked for were measured and every one got
// exactly one verdict. Measured packets count as checked; XDP_ABORTED ones
// as failed.
void VerdictLaw(const std::string& what, const pktgen::ThroughputStats& s,
                u64 expected, Checker* checker);

// stage in = pass + drop + tx + redirect + aborted; with `flow`, each stage
// also received exactly the previous stage's survivors.
void StageLaws(const std::string& what, const std::vector<StageCount>& stages,
               bool flow, Checker* checker);

// Copies `count` frames of `trace` starting at `first` (wrapping) into
// `out`, so rewrites never compound.
void CopyFrames(const Trace& trace, std::size_t first, u32 count, Packet* out);

// Replays trace[0, count) through `burst` (the measured path) and `scalar`
// (the oracle) in lockstep on private frame copies, in bursts of kBurst;
// `after` runs after each burst on both sides (e.g. a clock advance).
// Returns verdict + frame mismatches plus XDP_ABORTED verdicts.
template <typename Burst, typename Scalar, typename After>
u64 TwinMismatches(const Trace& trace, u64 count, Burst&& burst,
                   Scalar&& scalar, After&& after) {
  Packet a[kBurst];
  Packet b[kBurst];
  XdpContext ca[kBurst];
  XdpAction va[kBurst];
  u64 bad = 0;
  for (u64 done = 0; done < count; done += kBurst) {
    const u32 n = static_cast<u32>(std::min<u64>(kBurst, count - done));
    CopyFrames(trace, done, n, a);
    CopyFrames(trace, done, n, b);
    for (u32 i = 0; i < n; ++i) {
      ca[i] = ContextOf(a[i]);
    }
    burst(ca, n, va);
    for (u32 i = 0; i < n; ++i) {
      XdpContext cb = ContextOf(b[i]);
      const XdpAction vb = scalar(cb);
      const bool same = va[i] == vb && va[i] != XdpAction::kAborted &&
                        ca[i].data - a[i].frame == cb.data - b[i].frame &&
                        std::memcmp(a[i].frame, b[i].frame,
                                    ebpf::kFrameSize) == 0;
      bad += same ? 0 : 1;
    }
    after();
  }
  return bad;
}

// Counts `bad` of `count` oracle-checked packets, naming the divergence.
void CountOracle(const std::string& what, u64 count, u64 bad,
                 Checker* checker);

// The measured NF's burst path against a scalar twin built the same way.
template <typename NF>
void CheckAgainstTwin(const std::string& what, NF& measured, NF& twin,
                      const Trace& trace, u64 count, Checker* checker) {
  const u64 bad = TwinMismatches(
      trace, count,
      [&](XdpContext* c, u32 n, XdpAction* v) {
        measured.ProcessBurst(c, n, v);
      },
      [&](XdpContext& c) { return twin.Process(c); }, [] {});
  CountOracle(what, count, bad, checker);
}

// ---------------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------------

// One closed-loop measurement through the pktgen pipeline: kWarmupPackets,
// then `packets` timed, bursts of kBurst.
pktgen::ThroughputStats Closed(pktgen::PacketBurstHandler handler,
                               const Trace& trace, u64 packets);

inline double Mpps(const pktgen::ThroughputStats& s) { return s.pps / 1e6; }

// Host reference. The rates drift with the host's load over minutes (other
// tenants, clock frequency), by up to 16% between batches of runs of the
// same code, and a run's median cannot remove that. So every repetition
// also times a fixed loop that calls no library code: dependent random
// read-modify-writes over a table per thread, sized like the workload's NF
// state so it sits in the same cache level. A repetition on a slow host
// moment runs both the loop and the NFs slowly; scaling its samples by
// host.ref_ns / nominal_ns cancels most of that. The loop lives in the
// benchmark, so no library change can move it.
struct ReferenceShape {
  // Concurrent copies for a makespan rate: its workers; else 1.
  u32 threads;
  std::size_t table_bytes;  // per thread
  // ns per iteration on the calibration host (4-vCPU KVM guest, Intel Xeon
  // family 6 model 207), so normalised rates read close to raw ones there.
  double nominal_ns;
};
// Membership filters of a few thousand flows: L2-resident.
inline constexpr ReferenceShape kCacheResidentState{1, 256u << 10, 5.7};
// Flow and connection tables of 16k-64k flows: misses to memory.
inline constexpr ReferenceShape kTableState{1, 4u << 20, 24.0};

// The measurement loop. Each repetition runs every step once plus the host
// reference, in an order that rotates with the repetition so no step always
// runs right after the same neighbour. From the samples the repetition just
// took it then adds the end-to-end metrics: mpps.norm and mpps.ebpf.norm
// (the raw rates times the reference's ns / nominal_ns, on the rates' own
// clock), setup_s (the raw set-up time divided by the wall-clock factor)
// and speedup.ebpf = mpps / mpps.ebpf, paired within the repetition.
// Repetitions continue until the run's time budget is spent, and at least
// kMinReps times.
void RunRepetitions(const RunConfig& config,
                    const std::vector<std::function<void()>>& steps,
                    const ReferenceShape& reference, Report* report);

// Set-up timing. The first builds of a process run several times slower
// (cold code, a growing heap), so WarmSetup builds the workload's NF set
// kSetupWarmup times untimed and returns the last build. SampleSetup, one
// step of every repetition, times one more build (destroyed untimed) into
// setup.raw_s, from which RunRepetitions derives setup_s: sampled across the
// whole run like the rates, set-up time does not hang on the host's state in
// the run's first milliseconds.
template <typename Build>
auto WarmSetup(Build&& build) {
  decltype(build()) kept;
  for (u32 i = 0; i < kSetupWarmup; ++i) {
    kept = build();
  }
  return kept;
}

template <typename Build>
void SampleSetup(Build&& build, Report* report) {
  const u64 t0 = NowNs();
  const auto built = build();
  report->Add("setup.raw_s", "s", SecondsSince(t0));
}

// Set-up time of one build split into its phases (traced run); phases a
// workload does not have stay 0.
struct SetupSplit {
  double construct = 0.0;
  double prime = 0.0;
  double load = 0.0;
  void AddTo(Report* report) const;
};

// nf::MakeBenchChain's steps (factory under the reseeded prandom helper,
// bench priming, then Load/verify) with the phases timed into `split`.
std::unique_ptr<nf::ChainExecutor> SplitBenchChain(
    const std::vector<std::string>& stages, nf::Variant variant,
    const nf::BenchEnv& env, SetupSplit* split);

// ---------------------------------------------------------------------------
// Per-layer ledger (traced run).
// ---------------------------------------------------------------------------

// Sampled bursts of one measured chain: the chain's own time (timed around
// ProcessBurst) and its stages' share, rebuilt as child spans from
// stage_stats() ns deltas.
struct ChainSampler {
  SpanRecorder* recorder = nullptr;
  u32 parent = SpanRecorder::kNone;
  u64 packets = 0;
  u64 chain_ns = 0;
  u64 stage_ns = 0;

  // Adds this repetition's nf.chain.ns_per_pkt and nf.chain.self_ns_per_pkt
  // and clears the sums. One preemption inside a sampled burst can double a
  // repetition's mean, so these are medians over repetitions, like the rate
  // the ledger compares them with.
  void EndRepetition(Report* report);
};

template <typename Chain>
void SampledChainBurst(Chain& chain, ChainSampler* s, XdpContext* ctxs,
                       u32 count, XdpAction* verdicts) {
  if (!s->recorder->SampleBurst()) {
    chain.ProcessBurst(ctxs, count, verdicts);
    return;
  }
  const std::vector<StageCount> before = StageCounts(chain);
  const u64 t0 = NowNs();
  chain.ProcessBurst(ctxs, count, verdicts);
  const u64 t1 = NowNs();
  const std::vector<StageCount> after = StageCounts(chain);
  const u64 burst = s->recorder->bursts();
  const u32 id = s->recorder->Add("nf.chain.burst", t0, t1, s->parent, burst);
  u64 cursor = t0;
  for (std::size_t i = 0; i < after.size() && i < before.size(); ++i) {
    const u64 d = after[i].ns >= before[i].ns ? after[i].ns - before[i].ns
                                              : after[i].ns;
    s->recorder->Add(after[i].name, cursor, cursor + d, id, burst);
    cursor += d;
    s->stage_ns += d;
  }
  s->packets += count;
  s->chain_ns += t1 - t0;
}

// Closed-loop cost of the harness alone: the same pipeline loop over the
// same trace with a handler that only writes verdicts, after `extra` (the
// per-burst work a workload's handler does outside the NF).
double HarnessNsPerPacket(const Trace& trace, u64 packets,
                          const std::function<void(XdpContext*, u32)>& extra);

// Helper-boundary counts of the eBPF-model variant over one measured call
// (HelperStats deltas) and the micro-timed crossing cost, reported as
// ebpf.helper.*.
struct HelperWindow {
  ebpf::HelperStats before{};
  ebpf::HelperStats after{};
  u64 packets = 0;
};
void ReportEbpfHelpers(Report* report, const HelperWindow& window,
                       double ebpf_mpps);

// ---------------------------------------------------------------------------
// The L4 edge app (edge_lb and scaleout_lb).
// ---------------------------------------------------------------------------

// Zipf 1.1 over 65 536 flows, 4x katran's 16 384-entry connection table, so
// inserts and LRU evictions run beside lookups and rakelimit drops the
// elephants. The flow population is fixed; the seed draws the packet
// sequence. (Where the elephants hash decides scaleout_lb's shard balance, so
// a seeded population would make the seed, not the code, move its rate.)
Trace MakeLbTrace(const RunConfig& config);

// apps::MakeLbChain's steps (construct both stages, then Load/verify and
// arm fusion) with the phases timed into `split`.
std::unique_ptr<nf::ChainExecutor> SplitLbChain(apps::CoreKind core,
                                                SetupSplit* split);

// The chain's first stage of type T (never null for the apps::KatranLb and
// apps::RakeLimit stages of an apps::MakeLbChain chain).
template <typename T>
T* StageOf(nf::ChainExecutor& chain) {
  for (u32 i = 0; i < chain.depth(); ++i) {
    if (auto* stage = dynamic_cast<T*>(&chain.stage(i))) {
      return stage;
    }
  }
  return nullptr;
}

// Traced-run ledger: residual = 1 - (sum of layer ns/pkt) / (e2e ns/pkt of
// the traced measurement), plus the tracing overhead against the untraced
// measurement of the same run.
void ReportLedger(Report* report, double layers_ns_per_pkt);

}  // namespace e2e

#endif  // ENETSTL_BENCH_E2E_HARNESS_H_
