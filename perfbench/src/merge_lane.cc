// `merge`: replayed metric-driven merges (Algorithm 2).
//
// Setup builds six Fig. 3 two-branch histories per paper workload, widened
// through sim::BuildDistributedMergeScenario, and snapshots each repo with
// PipelineRepo::ExportState. Each op restores one history (ImportState) and
// runs MergeOperation::Merge with PC and PR on and one worker. Library
// compute, executor cache leases and search/pruning do the work here and
// storage does almost none, so a storage-only gain should not move this
// lane.
//
// A merge appends the winner's artifacts and the merge commit to the
// history's engine. After each op the lane deletes exactly those versions
// again, untimed, so every replay starts from the same engine state and
// must reproduce the first run's winner bit for bit, artifact version ids
// included.
#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "lane.h"
#include "merge/merge_op.h"
#include "service/merge_service.h"
#include "sim/scenario.h"
#include "sim/workloads.h"
#include "trace.h"

namespace perfbench {

namespace {

using mlcask::Hash256;
using mlcask::Status;
using mlcask::StatusOr;

/// The middle history of each workload, in sim::WorkloadNames() order
/// (readmission, dpm, sa, autolearn): its dataset scale and how far Fig. 3
/// is widened (extra increments of the schema-bumped extractor and of the
/// model on the dev branch). Small datasets keep each op's working set
/// small, which makes ops less sensitive to the host's memory-bound slow
/// phases; the widening gives every workload's middle history about the
/// same merge cost, so no workload forms a mode of its own.
struct HistoryShape {
  double scale;
  int extra_extractors;
  int extra_models;
};
constexpr HistoryShape kShapes[] = {
    {0.06, 1, 4}, {0.06, 1, 3}, {0.06, 2, 4}, {0.05, 1, 1}};
/// Histories per workload, each on its own seeded dataset, widened by one
/// model increment less than, equal to and more than the middle shape. A
/// merge's cost depends on its data (AdaBoost stops early on separable
/// data, vocabulary and feature counts vary), so six datasets per workload
/// keep that dependence from moving a run's percentiles with the seed; the
/// graded widening spreads op costs evenly over about ±20%, so the host's
/// fast and slow phases shift the median smoothly instead of flipping it
/// between two modes.
constexpr int kModelOffsets[] = {-1, 0, 1, -1, 0, 1};
constexpr size_t kHistoriesPerWorkload = std::size(kModelOffsets);

using VersionSet = std::set<std::pair<std::string, Hash256>>;

VersionSet AllVersions(const mlcask::storage::StorageEngine& engine) {
  const auto all = engine.ListAllVersions();
  return VersionSet(all.begin(), all.end());
}

/// Field-by-field comparison, so a failed check names what differs.
std::string WinnerDiff(const mlcask::service::MergeWinner& a,
                       const mlcask::service::MergeWinner& b) {
  if (a.winner_chain != b.winner_chain) return "winner chain";
  if (a.component_executions != b.component_executions) {
    return "component_executions";
  }
  if (a.artifact_hashes != b.artifact_hashes) return "artifact hashes";
  if (!(a.Fingerprint() == b.Fingerprint())) return "winner fingerprint";
  return "";
}

class MergeLane : public Lane {
 public:
  MergeLane(uint64_t seed, bool traced) : seed_(seed), traced_(traced) {}

  Status Setup() override;
  uint64_t StoredBytes() const override { return stored_bytes_; }
  OpOutcome RunNext(uint64_t op_id) override;

 private:
  struct History {
    std::unique_ptr<mlcask::sim::Deployment> deployment;
    /// The engine the merges use: the deployment's, or a tracing wrapper
    /// that owns it.
    mlcask::storage::StorageEngine* engine = nullptr;
    mlcask::storage::StorageEngine* backing = nullptr;
    std::unique_ptr<mlcask::pipeline::LibraryRegistry> traced_registry;
    mlcask::sim::ScenarioInfo info;
    mlcask::Json state;
    double clock_s = 0;
    VersionSet base_versions;
    uint64_t base_physical_bytes = 0;
    std::optional<mlcask::service::MergeWinner> first;
  };

  Status Rollback(History* h);

  const uint64_t seed_;
  const bool traced_;
  std::vector<History> histories_;
  std::vector<size_t> block_;
  uint64_t ops_ = 0;
  uint64_t stored_bytes_ = 0;
};

Status MergeLane::Setup() {
  const std::vector<std::string> names = mlcask::sim::WorkloadNames();
  if (names.size() != std::size(kShapes)) {
    return Status::Internal("merge lane has no history shape per workload");
  }
  histories_.resize(names.size() * kHistoriesPerWorkload);
  for (size_t k = 0; k < histories_.size(); ++k) {
    const size_t i = k / kHistoriesPerWorkload;
    History& h = histories_[k];
    MLCASK_ASSIGN_OR_RETURN(
        h.deployment, mlcask::sim::MakeDeployment(names[i], kShapes[i].scale));
    mlcask::sim::Deployment* d = h.deployment.get();
    // Reseed the dataset before the history is built from it.
    MLCASK_ASSIGN_OR_RETURN(auto order, d->workload.initial.TopologicalOrder());
    mlcask::pipeline::ComponentVersionSpec dataset = *order.front();
    dataset.params.Set(
        "seed",
        mlcask::Json::Int(static_cast<int64_t>(MixSeed(seed_, 500 + k) %
                                               1000000) + 1));
    MLCASK_ASSIGN_OR_RETURN(d->workload.initial,
                            mlcask::sim::WithComponent(d->workload.initial,
                                                       dataset));
    MLCASK_ASSIGN_OR_RETURN(
        h.info, mlcask::sim::BuildDistributedMergeScenario(
                    d, kShapes[i].extra_extractors,
                    kShapes[i].extra_models +
                        kModelOffsets[k % kHistoriesPerWorkload]));
    h.state = d->repo->ExportState();
    h.clock_s = d->clock->Now();
    h.backing = d->engine.get();
    if (traced_) {
      // The deployment's repo, libraries and executor keep pointing at the
      // inner engine, which the wrapper now owns; only merges go through
      // the wrapper.
      auto wrapped = std::make_unique<TracingEngine>(std::move(d->engine),
                                                     /*backend=*/false);
      h.engine = wrapped.get();
      d->engine = std::move(wrapped);
      h.traced_registry = WrapRegistry(*d->registry);
    } else {
      h.engine = d->engine.get();
    }
    h.base_versions = AllVersions(*h.backing);
    h.base_physical_bytes = h.backing->stats().physical_bytes;
    stored_bytes_ += h.base_physical_bytes;
  }
  // Warm-up: one replay per history records the winner every later replay
  // must reproduce.
  for (size_t i = 0; i < histories_.size(); ++i) {
    OpOutcome warm = RunNext(0);
    if (!warm.ok) return Status::Internal("merge warm-up: " + warm.error);
  }
  return Status::Ok();
}

Status MergeLane::Rollback(History* h) {
  for (const auto& version : AllVersions(*h->backing)) {
    if (h->base_versions.count(version) != 0) continue;
    MLCASK_RETURN_IF_ERROR(h->backing->DeleteVersion(version.second).status());
  }
  if (h->backing->stats().physical_bytes != h->base_physical_bytes ||
      AllVersions(*h->backing) != h->base_versions) {
    return Status::Internal("rollback left the history's engine changed");
  }
  return Status::Ok();
}

OpOutcome MergeLane::RunNext(uint64_t op_id) {
  const size_t slot = static_cast<size_t>(ops_ % histories_.size());
  if (slot == 0) {
    mlcask::Pcg32 rng(MixSeed(seed_, 600 + ops_));
    block_ = ShuffledBlock(&rng, std::vector<size_t>(histories_.size(), 1));
  }
  ++ops_;
  History& h = histories_[block_[slot]];
  mlcask::sim::Deployment* d = h.deployment.get();
  mlcask::SimClock clock;
  clock.AdvanceTo(h.clock_s);
  mlcask::merge::MergeOptions options;
  options.prune_compatibility = true;
  options.reuse_outputs = true;
  options.num_workers = 1;
  options.seed = MixSeed(seed_, 700);
  options.core = d->core.get();

  OpOutcome out;
  out.kind = "merge";
  std::optional<StatusOr<mlcask::version::PipelineRepo>> repo;
  std::optional<StatusOr<mlcask::merge::MergeReport>> report;
  {
    OpTimer timer(op_id);
    {
      Span span(SpanKind::kVersionOther);
      repo.emplace(mlcask::version::PipelineRepo::ImportState(
          h.state, h.engine, &clock));
    }
    if (repo->ok()) {
      mlcask::merge::MergeOperation merge(
          &**repo, d->libraries.get(),
          traced_ ? h.traced_registry.get() : d->registry.get(), h.engine,
          &clock);
      Span span(SpanKind::kMerge);
      report.emplace(
          merge.Merge(h.info.head_branch, h.info.merge_branch, options));
      if (report->ok()) {
        const mlcask::merge::MergeReport& r = **report;
        span.Set(r.candidates_considered, r.component_executions,
                 r.pruned_by_compatibility, r.checkpoints_marked);
      }
    }
    out.ms = timer.StopMs();
  }

  Status status = !repo->ok() ? repo->status() : report->status();
  if (status.ok()) {
    auto winner = mlcask::service::WinnerFromReport(**report, &**repo,
                                                    h.info.head_branch);
    status = winner.status();
    if (status.ok() && !h.first.has_value()) {
      h.first = *winner;
    } else if (status.ok()) {
      const std::string diff = WinnerDiff(*h.first, *winner);
      if (!diff.empty()) {
        status = Status::Internal("merge replay of " + d->workload.name +
                                  " changed its " + diff);
      }
    }
  }
  const Status rolled_back = Rollback(&h);
  if (status.ok()) status = rolled_back;
  if (!status.ok()) {
    out.ok = false;
    out.error = status.ToString();
  }
  return out;
}

}  // namespace

std::unique_ptr<Lane> MakeMergeLane(uint64_t seed, bool traced) {
  return std::make_unique<MergeLane>(seed, traced);
}

}  // namespace perfbench
