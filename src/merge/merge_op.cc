#include "merge/merge_op.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <set>
#include <unordered_map>

#include "merge/compat_lut.h"
#include "pipeline/checkout.h"

namespace mlcask::merge {

namespace {

/// Groups candidate indices by their subtree — the leaves under one deepest
/// shared prefix (the chain minus its final component) — and balances the
/// groups across `num_shards` shards, longest-processing-time first. A
/// subtree never splits: its candidates share cached prefixes, and keeping
/// them on one shard (one trial executor) is what keeps the summed
/// execution count identical to the single-node drain. Returns per-shard
/// candidate-index lists in DFS order and fills `shard_of` per candidate.
std::vector<std::vector<size_t>> PartitionSubtrees(
    const std::vector<CandidateChain>& candidates, size_t num_shards,
    std::vector<size_t>* shard_of) {
  std::unordered_map<Hash256, size_t, Hash256Hasher> group_of;
  std::vector<std::vector<size_t>> groups;  // first-appearance (DFS) order
  for (size_t i = 0; i < candidates.size(); ++i) {
    CandidateChain prefix = candidates[i];
    if (!prefix.empty()) prefix.pop_back();
    auto [it, inserted] =
        group_of.emplace(pipeline::Executor::ChainKey(prefix), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  // LPT: biggest group onto the least-loaded shard; stable sort and
  // lowest-index tie-breaks keep the assignment deterministic.
  std::vector<size_t> order(groups.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return groups[a].size() > groups[b].size();
  });
  std::vector<std::vector<size_t>> shards(num_shards);
  std::vector<size_t> load(num_shards, 0);
  for (size_t g : order) {
    const size_t target = static_cast<size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    load[target] += groups[g].size();
    for (size_t i : groups[g]) shards[target].push_back(i);
  }
  for (std::vector<size_t>& list : shards) {
    std::sort(list.begin(), list.end());  // DFS order within the shard
  }
  shard_of->assign(candidates.size(), 0);
  for (size_t s = 0; s < num_shards; ++s) {
    for (size_t i : shards[s]) (*shard_of)[i] = s;
  }
  return shards;
}

}  // namespace

StatusOr<MergeReport> MergeOperation::Merge(const std::string& head_branch,
                                            const std::string& merge_branch,
                                            const MergeOptions& options) {
  MergeReport report;

  MLCASK_ASSIGN_OR_RETURN(bool ff,
                          repo_->CanFastForward(head_branch, merge_branch));
  MLCASK_ASSIGN_OR_RETURN(const version::Commit* merge_head,
                          repo_->Head(merge_branch));
  if (ff) {
    // Fast-forward (Fig. 2): duplicate MERGE_HEAD's latest version onto the
    // base branch with both parents; no search needed.
    report.fast_forward = true;
    report.best_score = merge_head->snapshot.score;
    report.metric = merge_head->snapshot.metric;
    MLCASK_ASSIGN_OR_RETURN(
        report.merge_commit,
        repo_->CommitMerge(head_branch, merge_head->id, merge_head->snapshot,
                           options.author,
                           "fast-forward merge of " + merge_branch));
    return report;
  }

  MLCASK_ASSIGN_OR_RETURN(
      SearchSpace space,
      BuildSearchSpace(*repo_, *libraries_, head_branch, merge_branch));
  report.common_ancestor = space.common_ancestor;
  report.candidates_total = space.NumCandidates();

  PipelineSearchTree tree = PipelineSearchTree::Build(space);
  report.tree_nodes_before_pruning = tree.NumNodes();

  if (options.prune_compatibility) {
    CompatLut lut = CompatLut::Build(space);
    report.pruned_by_compatibility = tree.PruneIncompatible(lut);
  }

  // One trial executor per shard (single-node = exactly one): each shard's
  // artifact cache is private — the real deployment this models keeps trial
  // outputs on the worker that computed them — so every shard seeds its own
  // checkpoints from the shared storage engine.
  const size_t num_shards = std::max<size_t>(1, options.shards);
  pipeline::ArtifactCache::Options cache_options;
  cache_options.max_bytes = options.cache_max_bytes;
  std::vector<std::unique_ptr<pipeline::Executor>> executors;
  executors.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    executors.push_back(std::make_unique<pipeline::Executor>(
        registry_, engine_, /*clock=*/nullptr, cache_options));
  }
  std::set<Hash256> checkpoint_keys;
  if (options.reuse_outputs) {
    // Checkpoints come from every pipeline trained in the history relevant
    // to the merge: the common ancestor plus the commits on both branches
    // (the green nodes of Fig. 4).
    MLCASK_ASSIGN_OR_RETURN(
        std::vector<const version::Commit*> history,
        MergeHistory(*repo_, head_branch, merge_branch, space.common_ancestor));
    for (std::unique_ptr<pipeline::Executor>& executor : executors) {
      MLCASK_RETURN_IF_ERROR(pipeline::SeedExecutorFromHistory(
          history, *libraries_, engine_, executor.get(), &checkpoint_keys));
    }
    report.checkpoints_marked =
        tree.MarkCheckpoints([&](const CandidateChain& chain) {
          return checkpoint_keys.count(pipeline::Executor::ChainKey(chain)) !=
                 0;
        });
  }

  const std::string pipeline_name = repo_->name();

  std::vector<CandidateChain> candidates = tree.Candidates();
  report.candidates_considered = candidates.size();

  const uint64_t bytes_before = engine_->stats().physical_bytes;
  const double clock_start = clock_ != nullptr ? clock_->Now() : 0;
  const size_t num_workers = std::max<size_t>(1, options.num_workers);

  // One pool for the whole merge: the caller's, or this operation's own,
  // built on its first call with a real thread for every virtual worker of
  // every shard. The shard drains, their candidate claims and every
  // candidate's pipeline run all schedule on it.
  pipeline::ExecutionCore* core =
      fallback_core_.Get(options.core, num_shards * num_workers);

  pipeline::ExecutorOptions eo;
  eo.reuse_cached_outputs = options.reuse_outputs;
  // Runtime discovery of incompatibility: when PC pruning is on the
  // remaining candidates are all compatible anyway; when it is off the
  // incompatible ones must burn upstream compute before failing, exactly as
  // "MLCask w/o PCPR" does in Sec. VII-D.
  eo.precheck_compatibility = false;
  eo.store_outputs = options.store_trial_outputs;
  eo.seed = options.seed;
  eo.streamed_handoff = options.streamed_handoff;
  eo.core = core;

  // Assign candidate subtrees to shards. Single-node keeps the whole DFS
  // list on shard 0 — the partitioner degenerates to one group list there,
  // so both modes share one drain implementation.
  std::vector<size_t> shard_of(candidates.size(), 0);
  std::vector<std::vector<size_t>> shard_lists;
  if (num_shards > 1) {
    shard_lists = PartitionSubtrees(candidates, num_shards, &shard_of);
  } else {
    shard_lists.emplace_back(candidates.size());
    std::iota(shard_lists[0].begin(), shard_lists[0].end(), 0);
  }
  report.shards_used = num_shards;
  for (const std::vector<size_t>& list : shard_lists) {
    report.shard_candidates.push_back(list.size());
  }

  std::vector<pipeline::PipelineRunResult> runs(candidates.size());
  std::vector<double> end_times(candidates.size(), 0);
  std::vector<double> shard_makespans(num_shards, clock_start);

  // Drain one shard's candidate list through its executor: a RunGraph over
  // a graph with no edges, so Algorithm 2's claims stay FIFO in candidate
  // (DFS) order — the prefix locality the search tree was built for
  // survives both parallelism and sharding — and each claimed candidate
  // starts on the earliest free VIRTUAL worker slot (list scheduling, the
  // repo-wide virtual-time convention). A checkpoint one worker publishes
  // propagates to every later claim through the shard's shared artifact
  // cache, and two workers racing the same prefix dedup through its
  // in-flight lease — which is why component_executions and the selected
  // winner are provably identical to the serial walk. With one worker the
  // drain reproduces the serial loop exactly (same claims, same single
  // timeline, on the calling thread). Every shard starts at clock_start on
  // its own virtual timeline: shards model machines running in parallel,
  // so the merge's makespan is the slowest shard's drain. Drain state is
  // per-shard (executor, cache, candidate indices, makespan slot; `runs` /
  // `end_times` writes are disjoint by index), so the shards may drain in
  // any real-time order, or at once, with identical results.
  auto drain_shard = [&](size_t shard_index) -> Status {
    pipeline::Executor& executor = *executors[shard_index];
    const std::vector<size_t>& indices = shard_lists[shard_index];
    auto run_candidate = [&](size_t task, SimClock* clock) -> Status {
      const size_t index = indices[task];
      std::vector<pipeline::ComponentVersionSpec> specs;
      specs.reserve(candidates[index].size());
      for (const pipeline::ComponentVersionSpec* s : candidates[index]) {
        specs.push_back(*s);
      }
      MLCASK_ASSIGN_OR_RETURN(pipeline::Pipeline p,
                              pipeline::Pipeline::Chain(pipeline_name, specs));
      pipeline::ExecutorOptions candidate_eo = eo;
      candidate_eo.clock = clock;  // this claim's virtual timeline
      MLCASK_ASSIGN_OR_RETURN(runs[index], executor.Run(p, candidate_eo));
      return Status::Ok();
    };
    std::vector<double> finish;
    MLCASK_ASSIGN_OR_RETURN(
        shard_makespans[shard_index],
        core->RunGraph(std::vector<std::vector<size_t>>(indices.size()),
                       run_candidate, num_workers, clock_start, &finish));
    for (size_t task = 0; task < indices.size(); ++task) {
      end_times[indices[task]] = finish[task] - clock_start;
    }
    return Status::Ok();
  };

  // The shards fan out on the pool; a failing merge reports the failure of
  // its lowest-numbered failing shard.
  const auto drain_wall_start = std::chrono::steady_clock::now();
  MLCASK_RETURN_IF_ERROR(core->RunWorkers(drain_shard, num_shards));
  report.drain_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - drain_wall_start)
          .count();
  double makespan = clock_start;
  for (double m : shard_makespans) makespan = std::max(makespan, m);
  report.makespan_s = makespan - clock_start;
  if (clock_ != nullptr) clock_->AdvanceTo(makespan);

  // Reduce in candidate order — stable across worker AND shard counts, so
  // the argmax (first maximum in DFS order) matches the serial walk exactly.
  version::PipelineSnapshot best_snapshot;
  for (size_t index = 0; index < candidates.size(); ++index) {
    const pipeline::PipelineRunResult& run = runs[index];
    CandidateOutcome outcome;
    outcome.chain = candidates[index];
    outcome.incompatible = run.compatibility_failure;
    outcome.metrics = run.metrics;
    outcome.time = run.time;
    outcome.end_time_s = end_times[index];
    report.total_time += run.time;

    // The objective: the primary score, or the named metric when the user
    // asked to optimize a specific one.
    double objective = run.score;
    std::string objective_name = run.metric;
    if (!options.optimize_metric.empty()) {
      auto it = run.metrics.find(options.optimize_metric);
      if (it == run.metrics.end() && !run.compatibility_failure) {
        return Status::InvalidArgument(
            "candidate does not report metric '" + options.optimize_metric +
            "'");
      }
      objective = it != run.metrics.end() ? it->second : std::nan("");
      objective_name = options.optimize_metric;
    }
    outcome.score = objective;

    if (!run.compatibility_failure && !std::isnan(objective) &&
        (std::isnan(report.best_score) || objective > report.best_score)) {
      report.best_score = objective;
      report.metric = objective_name;
      report.best_index = static_cast<int>(report.outcomes.size());
      best_snapshot = run.snapshot;
    }
    report.outcomes.push_back(std::move(outcome));
  }
  if (report.best_index < 0) {
    return Status::FailedPrecondition(
        "merge found no feasible pipeline candidate");
  }

  // MLCask keeps trial outputs local; only the merge result is persisted
  // ("saves the final optimal pipeline only once", Sec. VII-D). The winner's
  // artifacts are assembled from the cache of the shard that ran it, then
  // committed through ONE PutMany batch — on a ShardedStorageEngine that is
  // a two-phase commit across the shards the artifact keys route to, so a
  // merge result spanning shards persists all-or-nothing.
  if (!options.store_trial_outputs) {
    const size_t winner_index = static_cast<size_t>(report.best_index);
    const CandidateChain& winner = report.outcomes[winner_index].chain;
    pipeline::Executor& winner_executor = *executors[shard_of[winner_index]];
    CandidateChain prefix;
    std::vector<storage::PutRequest> batch;
    std::vector<size_t> batch_component;  ///< Winner position per request.
    // Rolling pin: holding prefix i's EntryPtr keeps it resident (eviction
    // skips pinned entries) while prefix i+1 is fetched or recomputed, so
    // the pinned working set stays the same couple of entries as during
    // the drain; each serialized payload is copied into the batch, so the
    // entry itself need not stay pinned until the commit.
    pipeline::ArtifactCache::EntryPtr prev_pin;
    for (size_t i = 0; i < winner.size(); ++i) {
      prefix.push_back(winner[i]);
      pipeline::ArtifactCache::EntryPtr entry =
          winner_executor.FindCachedEntry(prefix);
      if (entry == nullptr) {
        // The byte cap evicted this prefix during the drain. The merge
        // result must still persist complete: recompute it (the previous
        // prefix is pinned, so the re-run resumes there and recomputes
        // exactly one component) and charge the time like any other
        // cap-induced recomputation.
        std::vector<pipeline::ComponentVersionSpec> specs;
        specs.reserve(prefix.size());
        for (const pipeline::ComponentVersionSpec* s : prefix) {
          specs.push_back(*s);
        }
        MLCASK_ASSIGN_OR_RETURN(
            pipeline::Pipeline p,
            pipeline::Pipeline::Chain(pipeline_name, specs));
        pipeline::ExecutorOptions rerun_eo = eo;
        rerun_eo.reuse_cached_outputs = true;
        SimClock rerun_clock;
        rerun_clock.AdvanceTo(clock_ != nullptr ? clock_->Now() : 0);
        rerun_eo.clock = &rerun_clock;
        MLCASK_ASSIGN_OR_RETURN(pipeline::PipelineRunResult rerun,
                                winner_executor.Run(p, rerun_eo));
        report.total_time += rerun.time;
        if (clock_ != nullptr) clock_->AdvanceTo(rerun_clock.Now());
        entry = winner_executor.FindCachedEntry(prefix);
        if (entry == nullptr) continue;  // defensive; publish just happened
      }
      batch.push_back({"artifact/" + pipeline_name + "/" + winner[i]->Key(),
                       entry->table.Serialize()});
      batch_component.push_back(i);
      prev_pin = std::move(entry);
    }
    MLCASK_ASSIGN_OR_RETURN(std::vector<storage::PutResult> puts,
                            engine_->PutMany(batch));
    for (size_t j = 0; j < puts.size(); ++j) {
      report.total_time.storage_s += puts[j].storage_time_s;
      if (clock_ != nullptr) clock_->Advance(puts[j].storage_time_s);
      const size_t i = batch_component[j];
      if (i < best_snapshot.components.size()) {
        best_snapshot.components[i].output_id = puts[j].id;
      }
    }
  }
  // Snapshotted AFTER winner materialization so cap-induced rerun activity
  // (executions, evictions, peak bytes) is visible in the report, matching
  // the time already charged to total_time. Uncapped merges never rerun,
  // so the executions-identical-across-workers invariant is unaffected.
  // Sharded merges sum across the per-shard executors and caches.
  report.component_executions = 0;
  report.cache_stats = pipeline::ArtifactCache::Stats();
  for (const std::unique_ptr<pipeline::Executor>& executor : executors) {
    report.component_executions += executor->executions();
    pipeline::ArtifactCache::Stats s = executor->cache_stats();
    report.cache_stats.bytes += s.bytes;
    report.cache_stats.peak_bytes += s.peak_bytes;
    report.cache_stats.evictions += s.evictions;
    report.cache_stats.insertions += s.insertions;
    report.cache_stats.largest_entry_bytes =
        std::max(report.cache_stats.largest_entry_bytes,
                 s.largest_entry_bytes);
  }
  report.storage_bytes = engine_->stats().physical_bytes - bytes_before;

  MLCASK_ASSIGN_OR_RETURN(
      report.merge_commit,
      repo_->CommitMerge(head_branch, merge_head->id, best_snapshot,
                         options.author,
                         "metric-driven merge of " + merge_branch));
  // Transfer ownership of the specs the candidate chains point into; moving
  // the vectors preserves their heap buffers, so the pointers stay valid.
  report.search_space = std::move(space);
  return report;
}

}  // namespace mlcask::merge
