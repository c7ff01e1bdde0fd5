#include "session.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/sha256.h"
#include "lane.h"
#include "sim/workloads.h"
#include "trace.h"

namespace perfbench {

namespace {

using mlcask::Hash256;
using mlcask::Json;
using mlcask::Status;
using mlcask::StatusOr;
using mlcask::pipeline::ComponentVersionSpec;
using mlcask::pipeline::Pipeline;

/// Edited 1 KiB regions per library version: a fixed count keeps the new
/// bytes of every archived version the same size.
constexpr size_t kExecutableEdits = 4;
constexpr size_t kEditBytes = 1024;
constexpr size_t kPreprocessorUpdates = 2;
constexpr size_t kModelUpdates = 3;

uint64_t StringSeed(uint64_t seed, const std::string& text) {
  const Hash256 h = mlcask::Sha256::Digest(text);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | h.bytes[i];
  return MixSeed(seed, v);
}

void FillRandom(mlcask::Pcg32* rng, char* out, size_t n) {
  for (size_t i = 0; i + 4 <= n; i += 4) {
    const uint32_t r = rng->NextU32();
    std::memcpy(out + i, &r, 4);
  }
}

mlcask::pipeline::ExecutorOptions RunOptions(uint64_t seed,
                                             mlcask::SimClock* clock) {
  mlcask::pipeline::ExecutorOptions opts;
  opts.reuse_cached_outputs = true;
  opts.precheck_compatibility = true;
  opts.store_outputs = true;
  opts.num_workers = 1;
  opts.seed = seed;
  opts.clock = clock;
  return opts;
}

StatusOr<std::vector<Hash256>> DigestsFromCache(
    const mlcask::pipeline::Executor& executor, const Pipeline& pipeline) {
  MLCASK_ASSIGN_OR_RETURN(auto order, pipeline.TopologicalOrder());
  std::vector<const ComponentVersionSpec*> prefix;
  std::vector<Hash256> digests;
  for (const ComponentVersionSpec* spec : order) {
    prefix.push_back(spec);
    auto entry = executor.FindCachedEntry(prefix);
    if (entry == nullptr) {
      return Status::Internal("no cached output for " + spec->Key());
    }
    digests.push_back(mlcask::Sha256::Digest(entry->table.Serialize()));
  }
  return digests;
}

}  // namespace

StatusOr<WorkloadBase> MakeWorkloadBase(const std::string& name, double scale,
                                        int64_t dataset_seed) {
  MLCASK_ASSIGN_OR_RETURN(mlcask::sim::Workload w,
                          mlcask::sim::MakeWorkload(name, scale));
  WorkloadBase base;
  base.name = w.name;
  base.preprocessors = w.preprocessors;
  base.model = w.model;
  MLCASK_ASSIGN_OR_RETURN(auto order, w.initial.TopologicalOrder());
  ComponentVersionSpec dataset = *order.front();
  base.dataset = dataset.name;
  dataset.params.Set("seed", Json::Int(dataset_seed));
  MLCASK_ASSIGN_OR_RETURN(base.master,
                          mlcask::sim::WithComponent(w.initial, dataset));
  return base;
}

std::string LibraryPayload(const ComponentVersionSpec& spec, uint64_t seed) {
  std::string bytes = spec.ToJson().Dump();
  const size_t header = bytes.size();
  bytes.resize(header + kExecutableBytes);
  mlcask::Pcg32 base_rng(StringSeed(seed, spec.name));
  FillRandom(&base_rng, bytes.data() + header, kExecutableBytes);
  mlcask::Pcg32 edit_rng(
      StringSeed(seed, spec.name + "@" + spec.version.ToString(false)));
  for (size_t e = 0; e < kExecutableEdits; ++e) {
    const size_t offset =
        edit_rng.Below(static_cast<uint32_t>(kExecutableBytes - kEditBytes));
    FillRandom(&edit_rng, bytes.data() + header + offset, kEditBytes);
  }
  return bytes;
}

SessionScript DrawSessionScript(uint64_t seed, size_t base_index,
                                const WorkloadBase& base, uint64_t round,
                                std::string branch) {
  mlcask::Pcg32 rng(seed);
  SessionScript script;
  script.base = base_index;
  script.branch = std::move(branch);
  script.dataset_seed = static_cast<int64_t>(rng.NextU32() % 1000000) + 1;
  script.bytes_seed = rng.NextU64();
  script.updates.push_back(base.dataset);
  const size_t n = base.preprocessors.size();
  size_t next_preprocessor = static_cast<size_t>(round) * kPreprocessorUpdates;
  for (size_t kind :
       ShuffledBlock(&rng, {kPreprocessorUpdates, kModelUpdates})) {
    script.updates.push_back(kind == 0
                                 ? base.preprocessors[next_preprocessor++ % n]
                                 : base.model);
  }
  return script;
}

Session::Session(const WorkloadBase* base, const SessionScript* script,
                 mlcask::storage::StorageEngine* engine,
                 mlcask::pipeline::LibraryRepo* libraries,
                 const mlcask::pipeline::LibraryRegistry* registry)
    : base_(base),
      script_(script),
      engine_(engine),
      libraries_(libraries),
      registry_(registry),
      current_(base->master) {
  clock_.AdvanceTo(base->master_clock_s);
}

IterationInput Session::NextInput() const {
  const std::string& name = script_->updates[next_];
  const ComponentVersionSpec* cur = *current_.Find(name);
  IterationInput in;
  in.spec = *cur;
  in.spec.version = cur->version.OnBranch(script_->branch).BumpIncrement();
  if (name == base_->dataset) {
    in.spec.params.Set("seed", Json::Int(script_->dataset_seed));
  } else {
    // Updates of one component alternate between two behaviours, so every
    // update changes the output while the cost stays stationary.
    const size_t prior = static_cast<size_t>(
        std::count(script_->updates.begin(), script_->updates.begin() +
                                                 static_cast<long>(next_),
                   name));
    in.spec.params.Set("variant", Json::Int(1 + static_cast<int64_t>(prior % 2)));
  }
  in.pipeline = *mlcask::sim::WithComponent(current_, in.spec);
  in.payload = LibraryPayload(in.spec, script_->bytes_seed);
  return in;
}

Status Session::Apply(const IterationInput& in) {
  if (next_ == 0) {
    {
      Span span(SpanKind::kVersionOther);
      auto imported = mlcask::version::PipelineRepo::ImportState(
          base_->master_state, engine_, &clock_);
      MLCASK_RETURN_IF_ERROR(imported.status());
      repo_.emplace(*std::move(imported));
    }
    {
      Span span(SpanKind::kVersionOther);
      MLCASK_RETURN_IF_ERROR(repo_->Branch(script_->branch, "master"));
    }
    executor_ = std::make_unique<mlcask::pipeline::Executor>(
        registry_, engine_, &clock_);
  }
  {
    Span span(SpanKind::kPipelineLibrary);
    MLCASK_RETURN_IF_ERROR(libraries_->Put(in.spec));
  }
  MLCASK_ASSIGN_OR_RETURN(mlcask::storage::PutResult archived,
                          engine_->Put("library/" + in.spec.name, in.payload));
  archive_id_ = archived.id;
  {
    Span span(SpanKind::kPipelineRun);
    MLCASK_ASSIGN_OR_RETURN(
        run_, executor_->Run(in.pipeline,
                             RunOptions(script_->bytes_seed, &clock_)));
    uint64_t reused = 0;
    for (const auto& c : run_.components) reused += c.reused ? 1 : 0;
    span.Set(reused, run_.components.size());
  }
  if (run_.compatibility_failure) {
    return Status::Incompatible("session run failed compatibility at " +
                                run_.failed_component);
  }
  mlcask::Hash256 commit_id;
  {
    Span span(SpanKind::kVersionCommit);
    MLCASK_ASSIGN_OR_RETURN(
        commit_id, repo_->CommitOn(script_->branch, run_.snapshot, "dev",
                                   "update " + in.spec.Key()));
  }
  MLCASK_ASSIGN_OR_RETURN(commit_, repo_->Get(commit_id));
  current_ = in.pipeline;
  ++next_;
  return Status::Ok();
}

Status Session::Verify(const IterationInput& in) {
  if (!run_.has_score()) {
    return Status::Internal("run of " + in.spec.Key() + " has no score");
  }
  MLCASK_ASSIGN_OR_RETURN(const mlcask::version::Commit* head,
                          repo_->Head(script_->branch));
  if (head != commit_ ||
      head->snapshot.components.size() != run_.snapshot.components.size()) {
    return Status::Internal("commit of " + in.spec.Key() +
                            " is not the branch head");
  }
  for (size_t i = 0; i < head->snapshot.components.size(); ++i) {
    if (!(head->snapshot.components[i] == run_.snapshot.components[i])) {
      return Status::Internal("commit of " + in.spec.Key() +
                              " differs from its run's snapshot");
    }
  }
  MLCASK_ASSIGN_OR_RETURN(std::string stored, engine_->GetVersion(archive_id_));
  if (stored != in.payload) {
    return Status::Internal("archived library " + in.spec.Key() +
                            " reads back different bytes");
  }
  return Status::Ok();
}

StatusOr<std::vector<Hash256>> Session::OutputDigests() const {
  return DigestsFromCache(*executor_, current_);
}

StatusOr<std::map<std::string, Hash256>> BuildMaster(
    WorkloadBase* base, mlcask::storage::StorageEngine* engine,
    mlcask::pipeline::LibraryRepo* libraries,
    const mlcask::pipeline::LibraryRegistry* registry, uint64_t bytes_seed,
    mlcask::version::Commit* master_commit,
    std::vector<Hash256>* output_digests) {
  mlcask::SimClock clock;
  std::map<std::string, Hash256> archives;
  for (const ComponentVersionSpec& spec : base->master.components()) {
    MLCASK_RETURN_IF_ERROR(libraries->Put(spec));
    MLCASK_ASSIGN_OR_RETURN(
        mlcask::storage::PutResult put,
        engine->Put("library/" + spec.name, LibraryPayload(spec, bytes_seed)));
    archives[spec.Key()] = put.id;
  }
  mlcask::pipeline::Executor executor(registry, engine, &clock);
  MLCASK_ASSIGN_OR_RETURN(mlcask::pipeline::PipelineRunResult run,
                          executor.Run(base->master,
                                       RunOptions(bytes_seed, &clock)));
  if (run.compatibility_failure || !run.has_score()) {
    return Status::Internal("master run of " + base->name + " failed");
  }
  mlcask::version::PipelineRepo repo(base->name, engine, &clock);
  MLCASK_ASSIGN_OR_RETURN(Hash256 id,
                          repo.Init(run.snapshot, "lead", "master pipeline"));
  MLCASK_ASSIGN_OR_RETURN(const mlcask::version::Commit* commit, repo.Get(id));
  if (master_commit != nullptr) *master_commit = *commit;
  if (output_digests != nullptr) {
    MLCASK_ASSIGN_OR_RETURN(*output_digests,
                            DigestsFromCache(executor, base->master));
  }
  base->master_state = repo.ExportState();
  base->master_clock_s = clock.Now();
  return archives;
}

}  // namespace perfbench
