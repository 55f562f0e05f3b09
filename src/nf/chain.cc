#include "nf/chain.h"

#include <stdexcept>
#include <utility>

#include "obs/telemetry.h"

namespace nf {

namespace {

ChainStageStats FreshStats(const NetworkFunction& nf) {
  ChainStageStats stats;
  stats.name = std::string(nf.name());
  stats.variant = nf.variant();
  return stats;
}

}  // namespace

ChainExecutor::ChainExecutor(std::string name) : name_(std::move(name)) {}

ChainExecutor::~ChainExecutor() = default;

ChainExecutor& ChainExecutor::AddStage(std::unique_ptr<NetworkFunction> stage) {
  if (loaded_) {
    throw std::logic_error("ChainExecutor::AddStage after Load on '" + name_ +
                           "'");
  }
  stages_.push_back(std::move(stage));
  return *this;
}

u16 ChainExecutor::StageScope(u32 i, const NetworkFunction& nf) const {
  // Registering scopes also constructs the telemetry singleton, which
  // registers the ringbuf kfuncs the stage manifests declare.
  return obs::Telemetry::Global().RegisterScope(
      name_ + "/" + std::to_string(i) + ":" + std::string(nf.name()));
}

std::vector<NetworkFunction*> ChainExecutor::StageView() const {
  std::vector<NetworkFunction*> view;
  view.reserve(stages_.size());
  for (const auto& stage : stages_) {
    view.push_back(stage.get());
  }
  return view;
}

ebpf::VerifyResult ChainExecutor::BuildProgramFor(
    NetworkFunction* nf, u32 i, u32 depth,
    std::unique_ptr<ebpf::XdpProgram>* out) {
  ebpf::ProgramSpec spec;
  spec.name = name_ + "/" + std::string(nf->name());
  spec.type = ebpf::ProgramType::kXdp;
  // Stage i can still walk through every downstream stage, so its declared
  // chain depth is the remaining suffix; the entry program declares the
  // full chain and is what trips the 33-program limit.
  spec.tail_call_chain_depth = depth - i;
  if (i + 1 < depth) {
    spec.helpers_used.push_back("bpf_tail_call");
  }
  if constexpr (obs::kCompiledIn) {
    // The sampled path times the stage and emits a ring event; the
    // manifest declares it so the verifier sees the acquire/release pair.
    spec.helpers_used.push_back("bpf_ktime_get_ns");
    spec.kfunc_calls.push_back({"bpf_ringbuf_reserve", true});
    spec.kfunc_calls.push_back({"bpf_ringbuf_submit", false});
  }
  const bool last = i + 1 == depth;
  // The NF pointer is bound here, at build time: a replacement program runs
  // its replacement NF, and the old program keeps running the old NF until
  // the prog-array slot flips — that slot update is the commit point.
  *out = std::make_unique<ebpf::XdpProgram>(
      std::move(spec),
      [this, nf, i, last](ebpf::XdpContext& ctx) -> ebpf::XdpAction {
        ChainStageStats& stats = stats_[i];
        ++stats.in;
        ebpf::XdpAction action;
        {
          // Scoped so the sample covers only this stage's Process, not
          // the tail-called suffix below.
          obs::ScalarSample sample(stage_scopes_[i]);
          if (sample.armed()) {
            sample.set_flow(obs::FlowOf(ctx));
          }
          action = nf->Process(ctx);
        }
        stats.Count(action);
        if (action != ebpf::XdpAction::kPass || last) {
          return action;
        }
        if (auto verdict = ebpf::TailCall(ctx, *prog_array_, i + 1)) {
          return *verdict;
        }
        // Tail-call failure (missing slot / depth budget spent): the real
        // program would fall through; with nothing after the call, the
        // packet exits with the stage verdict.
        return action;
      });
  return (*out)->Load();
}

std::unique_ptr<FusedChain> ChainExecutor::Fuse(
    const std::vector<NetworkFunction*>& view, const std::vector<u16>& scopes,
    ChainStageStats* stats) const {
  std::vector<FusedStage> fused(view.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    fused[i].nf = view[i];
    fused[i].scope = scopes[i];
    fused[i].stats = &stats[i];
    if (auto op = view[i]->LowerToKeyOp()) {
      fused[i].lowered = true;
      fused[i].contains = std::move(op->contains);
    }
  }
  return FusedChain::Fuse(std::move(fused), fusion_stats_.generation + 1);
}

void ChainExecutor::InstallFused(std::unique_ptr<FusedChain> fused) {
  if (fused_ != nullptr) {
    ++fusion_stats_.demotions;
  }
  ++fusion_stats_.promotions;
  fusion_stats_.generation = fused->generation();
  fused_ = std::move(fused);
}

ebpf::VerifyResult ChainExecutor::BuildChain(
    const std::vector<NetworkFunction*>& view,
    std::vector<ChainStageStats> stats, ChainBuild* out) {
  ebpf::VerifyResult result;
  const u32 depth = static_cast<u32>(view.size());
  // Scope names embed the stage index, so every slot re-registers.
  out->scopes.resize(depth);
  for (u32 i = 0; i < depth; ++i) {
    out->scopes[i] = StageScope(i, *view[i]);
  }
  out->programs.resize(depth);
  for (u32 i = 0; i < depth; ++i) {
    const ebpf::VerifyResult stage_result =
        BuildProgramFor(view[i], i, depth, &out->programs[i]);
    if (!stage_result.ok) {
      result.ok = false;
      for (const std::string& error : stage_result.errors) {
        result.errors.push_back(error);
      }
    }
  }
  if (!result.ok) {
    return result;
  }
  out->prog_array = std::make_unique<ebpf::ProgArrayMap>(depth);
  for (u32 i = 0; i < depth; ++i) {
    if (out->prog_array->UpdateElem(i, out->programs[i].get()) != ebpf::kOk) {
      result.Fail(name_ + ": prog array rejected stage " + std::to_string(i));
      return result;
    }
  }
  out->stats = std::move(stats);
  out->fused = Fuse(view, out->scopes, out->stats.data());
  if (out->fused == nullptr) {
    result.Fail(name_ + ": fused program refused the stage set");
  }
  return result;
}

void ChainExecutor::CommitChain(ChainBuild build) {
  InstallFused(std::move(build.fused));
  programs_ = std::move(build.programs);
  prog_array_ = std::move(build.prog_array);
  stats_ = std::move(build.stats);  // keeps the slots the fused program uses
  stage_scopes_ = std::move(build.scopes);
}

ebpf::VerifyResult ChainExecutor::Load() {
  ebpf::VerifyResult result;
  if (stages_.empty()) {
    result.Fail(name_ + ": chain has no stages");
    return result;
  }
  std::vector<ChainStageStats> stats;
  for (const auto& stage : stages_) {
    stats.push_back(FreshStats(*stage));
  }
  ChainBuild build;
  result = BuildChain(StageView(), std::move(stats), &build);
  if (result.ok) {
    CommitChain(std::move(build));
  }
  loaded_ = result.ok;
  return result;
}

ebpf::VerifyResult ChainExecutor::ReplaceStage(
    u32 i, std::unique_ptr<NetworkFunction> stage) {
  ebpf::VerifyResult result;
  if (!loaded_ || i >= depth() || stage == nullptr) {
    result.Fail(name_ + ": ReplaceStage(" + std::to_string(i) +
                ") on unloaded chain or bad argument");
    return result;
  }

  // Build + verify the replacement program and the fused program over the
  // post-edit stages aside. Nothing is committed yet: a rejected
  // replacement must leave the chain bit-identical — old stage, old
  // program, old fused program and generation (the pre-commit rollback
  // contract of the reconfig plane relies on it).
  std::unique_ptr<ebpf::XdpProgram> program;
  result = BuildProgramFor(stage.get(), i, depth(), &program);
  if (!result.ok) {
    return result;
  }
  std::vector<NetworkFunction*> view = StageView();
  view[i] = stage.get();
  std::vector<u16> scopes = stage_scopes_;
  scopes[i] = StageScope(i, *stage);
  // Slot i keeps its address; the commit below resets its counters.
  std::unique_ptr<FusedChain> fused = Fuse(view, scopes, stats_.data());
  if (fused == nullptr) {
    result.Fail(name_ + ": fused program refused replacement stage " +
                std::to_string(i));
    return result;
  }

  // Commit point: the PROG_ARRAY slot update. If the helper rejects it
  // (injected -ENOMEM), the slot still holds the old program and no chain
  // state has changed.
  if (prog_array_->UpdateElem(i, program.get()) != ebpf::kOk) {
    result.Fail(name_ + ": prog array rejected replacement stage " +
                std::to_string(i));
    return result;
  }

  // Committed. The fused program folded over the old stage pointer retires
  // before the old NF is destroyed; the next burst runs the rebuilt one.
  InstallFused(std::move(fused));
  stages_[i] = std::move(stage);
  programs_[i] = std::move(program);
  stats_[i] = FreshStats(*stages_[i]);
  stage_scopes_ = std::move(scopes);
  return result;
}

ebpf::VerifyResult ChainExecutor::InsertStage(
    u32 pos, std::unique_ptr<NetworkFunction> stage) {
  ebpf::VerifyResult result;
  if (!loaded_ || pos > depth() || stage == nullptr) {
    result.Fail(name_ + ": InsertStage(" + std::to_string(pos) +
                ") on unloaded chain or bad argument");
    return result;
  }
  const u32 new_depth = depth() + 1;
  // Tail-call budget revalidation before anything is built: an edit may
  // never produce a chain Load() would reject.
  if (new_depth > ebpf::kMaxTailCallChain) {
    result.Fail(name_ + ": InsertStage would exceed the tail-call budget (" +
                std::to_string(new_depth) + " > " +
                std::to_string(ebpf::kMaxTailCallChain) + ")");
    return result;
  }

  // Post-edit view (suffix depths shift, so every program rebuilds); the
  // surviving stages keep their verdict counters.
  std::vector<NetworkFunction*> view = StageView();
  view.insert(view.begin() + pos, stage.get());
  std::vector<ChainStageStats> stats = stats_;
  stats.insert(stats.begin() + pos, FreshStats(*stage));
  ChainBuild build;
  result = BuildChain(view, std::move(stats), &build);
  if (!result.ok) {
    return result;  // nothing committed; chain bit-identical
  }
  // Commit the whole post-edit set at once: no packet observes a mix of old
  // and new suffix depths.
  stages_.insert(stages_.begin() + pos, std::move(stage));
  CommitChain(std::move(build));
  return result;
}

ebpf::VerifyResult ChainExecutor::RemoveStage(u32 pos) {
  ebpf::VerifyResult result;
  if (!loaded_ || pos >= depth()) {
    result.Fail(name_ + ": RemoveStage(" + std::to_string(pos) +
                ") on unloaded chain or bad position");
    return result;
  }
  if (depth() == 1) {
    result.Fail(name_ + ": RemoveStage would leave an empty chain");
    return result;
  }

  std::vector<NetworkFunction*> view = StageView();
  view.erase(view.begin() + pos);
  std::vector<ChainStageStats> stats = stats_;
  stats.erase(stats.begin() + pos);
  ChainBuild build;
  result = BuildChain(view, std::move(stats), &build);
  if (!result.ok) {
    return result;
  }
  // Commit first: the retired fused program and stage programs are the last
  // holders of the removed NF's pointer, which the erase destroys.
  CommitChain(std::move(build));
  stages_.erase(stages_.begin() + pos);
  return result;
}

ebpf::XdpAction ChainExecutor::Process(ebpf::XdpContext& ctx) {
  if (!loaded_) {
    throw std::logic_error("ChainExecutor::Process on unloaded chain '" +
                           name_ + "'");
  }
  return ebpf::RunChainEntry(*programs_[0], ctx);
}

void ChainExecutor::ProcessBurst(ebpf::XdpContext* ctxs, u32 count,
                                 ebpf::XdpAction* verdicts) {
  if (!loaded_) {
    throw std::logic_error("ChainExecutor::ProcessBurst on unloaded chain '" +
                           name_ + "'");
  }
  fusion_stats_.fused_packets += count;
  fused_->ExecuteBurst(ctxs, count, verdicts);
}

Variant ChainExecutor::variant() const {
  bool has_enetstl = false;
  bool has_ebpf = false;
  for (const auto& stage : stages_) {
    switch (stage->variant()) {
      case Variant::kEnetstl:
        has_enetstl = true;
        break;
      case Variant::kEbpf:
        has_ebpf = true;
        break;
      case Variant::kKernel:
        break;
    }
  }
  if (has_enetstl) {
    return Variant::kEnetstl;
  }
  return has_ebpf ? Variant::kEbpf : Variant::kKernel;
}

void ChainExecutor::ResetStageStats() {
  for (u32 i = 0; i < depth(); ++i) {
    stats_[i] = FreshStats(*stages_[i]);
  }
}

std::unique_ptr<ChainExecutor> MakeBenchChain(
    const std::vector<std::string>& stage_names, Variant variant,
    const BenchEnv& env, std::string chain_name) {
  auto chain = std::make_unique<ChainExecutor>(std::move(chain_name));
  for (const std::string& name : stage_names) {
    const NfEntry* entry = NfRegistry::Global().Lookup(name);
    if (entry == nullptr || !entry->Supports(variant)) {
      return nullptr;
    }
    NfVariantSetup setup = MakeVariantSetup(*entry, variant, env);
    if (setup.nf == nullptr) {
      return nullptr;
    }
    chain->AddStage(std::move(setup.nf));
  }
  if (!chain->Load().ok) {
    return nullptr;
  }
  return chain;
}

pktgen::ShardedPipeline::ProgramFactory ShardedChainFactory(
    std::function<std::shared_ptr<ChainExecutor>(u32 cpu)> make_chain) {
  return [make_chain =
              std::move(make_chain)](u32 cpu) -> pktgen::ShardedPipeline::ShardProgram {
    std::shared_ptr<ChainExecutor> chain = make_chain(cpu);
    pktgen::ShardedPipeline::ShardProgram program;
    program.handler = [chain](ebpf::XdpContext* ctxs, u32 count,
                              ebpf::XdpAction* verdicts) {
      chain->ProcessBurst(ctxs, count, verdicts);
    };
    program.finish = [chain](pktgen::ShardedPipeline::ShardStats& shard) {
      shard.stages.clear();
      for (const ChainStageStats& stage : chain->stage_stats()) {
        pktgen::ShardedPipeline::StageBreakdown breakdown;
        breakdown.name = stage.name;
        breakdown.in = stage.in;
        breakdown.pass = stage.pass;
        breakdown.drop = stage.drop;
        breakdown.tx = stage.tx;
        breakdown.redirect = stage.redirect;
        breakdown.aborted = stage.aborted;
        breakdown.ns = stage.ns;
        shard.stages.push_back(std::move(breakdown));
      }
    };
    return program;
  };
}

}  // namespace nf
