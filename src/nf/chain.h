// Service-chain runtime: an ordered NF chain executed through the tail-call
// model (prog-array map, depth <= 33), over single packets and bursts.
//
// Scalar path — each stage is wrapped in an XdpProgram; stage i's program
// runs its NF and, on kPass, bpf_tail_calls stage i+1 through the prog array
// (the SRv6 service-function-chaining pattern). Any other verdict exits the
// chain with that verdict, exactly as an XDP program returning DROP/TX ends
// packet processing. Load() pushes every stage through the metadata-assisted
// verifier; a chain of more than ebpf::kMaxTailCallChain (33) programs is
// rejected at load time, mirroring MAX_TAIL_CALL_CNT. The scalar walk is the
// semantic oracle every other execution path is checked against.
//
// Burst path — the fused executor (nf/fused_chain.h), built at Load() and
// rebuilt inside every committed stage edit: one stage-major pass per burst
// that carries a verdict bitmask through constant-folded stages. Every stage
// sees exactly the packets (in exactly the order) it would see under
// per-packet scalar traversal, so burst verdicts, frames and per-stage
// counters are bit-identical to the scalar path.
#ifndef ENETSTL_NF_CHAIN_H_
#define ENETSTL_NF_CHAIN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ebpf/prog_array.h"
#include "nf/fused_chain.h"
#include "nf/nf_interface.h"
#include "nf/nf_registry.h"
#include "pktgen/sharded_pipeline.h"

namespace nf {

struct ChainStageStats {
  std::string name;
  Variant variant = Variant::kKernel;
  u64 in = 0;  // packets entering the stage
  // Verdict histogram; `pass` is also the packets-out count (survivors).
  u64 pass = 0;
  u64 drop = 0;
  u64 tx = 0;
  u64 redirect = 0;
  u64 aborted = 0;
  // Stage time, accumulated on the burst path only (per-packet timing would
  // distort the scalar latency measurements).
  u64 ns = 0;

  u64 out() const { return pass; }

  // Verdict-histogram update shared by the scalar walk and the fused
  // executor.
  void Count(ebpf::XdpAction action) {
    switch (action) {
      case ebpf::XdpAction::kPass:
        ++pass;
        break;
      case ebpf::XdpAction::kDrop:
        ++drop;
        break;
      case ebpf::XdpAction::kTx:
        ++tx;
        break;
      case ebpf::XdpAction::kRedirect:
        ++redirect;
        break;
      case ebpf::XdpAction::kAborted:
        ++aborted;
        break;
    }
  }
};

// An ordered NF chain that is itself a NetworkFunction, so chains register,
// bench, and shard exactly like single NFs (and can nest).
class ChainExecutor : public NetworkFunction {
 public:
  explicit ChainExecutor(std::string name = "chain");
  ~ChainExecutor() override;

  ChainExecutor(const ChainExecutor&) = delete;
  ChainExecutor& operator=(const ChainExecutor&) = delete;

  // Appends a stage; only valid before Load().
  ChainExecutor& AddStage(std::unique_ptr<NetworkFunction> stage);

  // Builds the per-stage XDP programs, the prog array and the fused burst
  // program, verifying every stage program. The chain is runnable only if
  // the result is ok; chains deeper than ebpf::kMaxTailCallChain stages fail
  // verification. Reloading a loaded chain rebuilds everything.
  ebpf::VerifyResult Load();
  bool loaded() const { return loaded_; }

  // Scalar path: one tail-call walk per packet. Throws (like
  // XdpProgram::Run) if the chain is not loaded.
  ebpf::XdpAction Process(ebpf::XdpContext& ctx) override;

  // Burst path: the fused program; accepts any count.
  void ProcessBurst(ebpf::XdpContext* ctxs, u32 count,
                    ebpf::XdpAction* verdicts) override;

  std::string_view name() const override { return name_; }
  // The weakest execution model among the stages dominates the label:
  // eNetSTL if any stage uses kfuncs, else eBPF if any stage is pure eBPF,
  // else kernel.
  Variant variant() const override;

  u32 depth() const { return static_cast<u32>(stages_.size()); }
  NetworkFunction& stage(u32 i) { return *stages_[i]; }
  const std::vector<ChainStageStats>& stage_stats() const { return stats_; }
  void ResetStageStats();

  // No-op, kept so existing callers build: every loaded chain already runs
  // its bursts fused.
  void EnableFusion() {}
  const FusionStats& fusion_stats() const { return fusion_stats_; }

  // Atomically replaces stage `i`: builds and verifies a fresh program bound
  // to the new NF first, then commits by updating the PROG_ARRAY slot (the
  // live-update idiom prog arrays exist for) and swapping the stage in.
  // Ordering guarantees:
  //  * verification failure or a rejected prog-array update happens BEFORE
  //    anything is committed — the chain (including its fused program and
  //    generation) is left bit-identical to its pre-call state;
  //  * the fused program is rebuilt against the new stage before the old NF
  //    is destroyed, so the next burst runs the new stage set (a fused
  //    program never outlives the stage set it was folded from).
  ebpf::VerifyResult ReplaceStage(u32 i,
                                  std::unique_ptr<NetworkFunction> stage);

  // Structural chain edits on a loaded chain. Stage program manifests
  // declare the remaining suffix depth, so an edit rebuilds and re-verifies
  // EVERY stage program and a fresh prog array aside, then commits the whole
  // set at once — no packet can observe a half-edited chain, and the
  // tail-call budget (<= 33 stages) is revalidated before any commit.
  // Failure leaves the chain bit-identical; success commits a rebuilt fused
  // program with the rest. `pos` for InsertStage may equal depth() (append).
  ebpf::VerifyResult InsertStage(u32 pos,
                                 std::unique_ptr<NetworkFunction> stage);
  ebpf::VerifyResult RemoveStage(u32 pos);

 private:
  // Everything a whole-chain build commits at once, built aside so a
  // failure commits nothing: the stage programs, the prog array over them,
  // the per-stage counters and scopes, and the fused program folded over
  // exactly those counters (a vector move keeps their addresses).
  struct ChainBuild {
    std::vector<std::unique_ptr<ebpf::XdpProgram>> programs;
    std::unique_ptr<ebpf::ProgArrayMap> prog_array;
    std::vector<ChainStageStats> stats;
    std::vector<u16> scopes;
    std::unique_ptr<FusedChain> fused;
  };

  // Builds and verifies the chain `view` (the post-edit stage order) into
  // *out, keeping `stats[i]`'s verdict counters. Touches no chain state.
  ebpf::VerifyResult BuildChain(const std::vector<NetworkFunction*>& view,
                                std::vector<ChainStageStats> stats,
                                ChainBuild* out);
  // Installs a successful build; the caller edits stages_ around it.
  void CommitChain(ChainBuild build);

  // Builds + verifies one stage program bound to `nf` at slot `i` of a chain
  // of `depth` stages, into *out. Binding the NF pointer at build time (not
  // looking stages_[i] up at run time) is what makes a prog-array slot
  // update the real commit point of a replacement: the old program keeps
  // running the old NF until the slot flips. Touches no chain state, so
  // build-aside-then-commit edits verify before mutating anything.
  ebpf::VerifyResult BuildProgramFor(NetworkFunction* nf, u32 i, u32 depth,
                                     std::unique_ptr<ebpf::XdpProgram>* out);
  // Telemetry scope "<chain>/<i>:<stage>".
  u16 StageScope(u32 i, const NetworkFunction& nf) const;
  std::vector<NetworkFunction*> StageView() const;
  // Constant-folds `view` into the next generation's fused program: stage
  // pointers, scope ids, stats slots and key-level lowerings resolve once,
  // here.
  std::unique_ptr<FusedChain> Fuse(const std::vector<NetworkFunction*>& view,
                                   const std::vector<u16>& scopes,
                                   ChainStageStats* stats) const;
  // Retires the running fused program (if any) for `fused`.
  void InstallFused(std::unique_ptr<FusedChain> fused);

  std::string name_;
  std::vector<std::unique_ptr<NetworkFunction>> stages_;
  std::vector<std::unique_ptr<ebpf::XdpProgram>> programs_;
  std::unique_ptr<ebpf::ProgArrayMap> prog_array_;
  std::vector<ChainStageStats> stats_;
  // Telemetry scope per stage; obs::kInvalidScope when the observability
  // plane is compiled out.
  std::vector<u16> stage_scopes_;
  bool loaded_ = false;

  FusionStats fusion_stats_;
  std::unique_ptr<FusedChain> fused_;
};

// Builds (and Load()s) a chain whose stages are registry NFs in the given
// variant, each primed with its bench resident state against `env` so
// membership/classification stages see their intended hit rates. Returns
// nullptr when a name is unknown, the variant is unsupported, or the chain
// fails to load (e.g. more than 33 stages).
std::unique_ptr<ChainExecutor> MakeBenchChain(
    const std::vector<std::string>& stage_names, Variant variant,
    const BenchEnv& env, std::string chain_name = "chain");

// Adapts a per-cpu chain factory into a ShardedPipeline program factory:
// every shard drives its own chain replica (the RSS model — flow-disjoint
// shards, no cross-core state), and each chain's per-stage counters are
// exported into the shard's StageBreakdown when the run finishes.
pktgen::ShardedPipeline::ProgramFactory ShardedChainFactory(
    std::function<std::shared_ptr<ChainExecutor>(u32 cpu)> make_chain);

}  // namespace nf

#endif  // ENETSTL_NF_CHAIN_H_
