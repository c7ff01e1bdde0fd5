#include "merge/prioritized.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <numeric>

#include "common/rng.h"
#include "merge/compat_lut.h"
#include "pipeline/checkout.h"
#include "pipeline/execution_core.h"

namespace mlcask::merge {

Status PrioritizedSearch::Prepare(const std::string& head_branch,
                                  const std::string& merge_branch) {
  head_branch_ = head_branch;
  merge_branch_ = merge_branch;

  MLCASK_ASSIGN_OR_RETURN(
      SearchSpace space,
      BuildSearchSpace(*repo_, *libraries_, head_branch, merge_branch));
  space_ = std::make_unique<SearchSpace>(std::move(space));

  tree_ = std::make_unique<PipelineSearchTree>(
      PipelineSearchTree::Build(*space_));
  CompatLut lut = CompatLut::Build(*space_);
  tree_->PruneIncompatible(lut);

  // Index leaves by candidate order (the DFS enumeration order).
  candidates_ = tree_->Candidates();
  leaves_ = tree_->Leaves();
  leaf_index_.clear();
  for (size_t i = 0; i < leaves_.size(); ++i) leaf_index_[leaves_[i]] = i;

  // Initial scores from pipelines trained in history on either branch.
  initial_scores_.clear();
  std::unordered_map<Hash256, size_t, Hash256Hasher> key_to_index;
  for (size_t i = 0; i < candidates_.size(); ++i) {
    key_to_index[pipeline::Executor::ChainKey(candidates_[i])] = i;
  }
  MLCASK_ASSIGN_OR_RETURN(std::vector<const version::Commit*> commits,
                          MergeHistory(*repo_, head_branch, merge_branch,
                                       space_->common_ancestor));
  for (const version::Commit* commit : commits) {
    if (!commit->snapshot.has_score()) continue;
    bool resolved = true;
    std::vector<const pipeline::ComponentVersionSpec*> ptrs;
    for (const version::ComponentRecord& rec : commit->snapshot.components) {
      auto spec = libraries_->Get(rec.name, rec.version);
      if (!spec.ok()) {
        resolved = false;
        break;
      }
      ptrs.push_back(*spec);
    }
    if (!resolved) continue;
    auto it = key_to_index.find(pipeline::Executor::ChainKey(ptrs));
    if (it != key_to_index.end()) {
      initial_scores_[it->second] = commit->snapshot.score;
    }
  }
  return Status::Ok();
}

StatusOr<SearchStep> PrioritizedSearch::RunCandidate(
    pipeline::Executor* executor, pipeline::ExecutionCore* core,
    SimClock* clock, size_t index, uint64_t seed) {
  const CandidateChain& chain = candidates_[index];
  std::vector<pipeline::ComponentVersionSpec> specs;
  specs.reserve(chain.size());
  for (const pipeline::ComponentVersionSpec* s : chain) specs.push_back(*s);
  MLCASK_ASSIGN_OR_RETURN(pipeline::Pipeline p,
                          pipeline::Pipeline::Chain(repo_->name(), specs));
  pipeline::ExecutorOptions eo;
  eo.reuse_cached_outputs = true;
  eo.precheck_compatibility = false;  // tree is already PC-pruned
  eo.store_outputs = false;           // trials stay local
  eo.seed = seed;
  eo.clock = clock;  // this worker's virtual timeline
  eo.core = core;    // the trial's pool, not one per executor
  MLCASK_ASSIGN_OR_RETURN(pipeline::PipelineRunResult run,
                          executor->Run(p, eo));
  SearchStep step;
  step.candidate_index = index;
  step.end_time_s = clock->Now();
  step.score = run.has_score() ? run.score : 0.0;
  return step;
}

StatusOr<TrialResult> PrioritizedSearch::RunTrial(const TrialOptions& options) {
  if (tree_ == nullptr) {
    return Status::FailedPrecondition("Prepare() must be called first");
  }
  // The executor is shared by all workers: one artifact cache, so sibling
  // candidates share prefixes across workers, and the in-flight guards keep
  // the execution count equal to the serial search's. Each worker charges
  // time to its own clock (passed per-run through ExecutorOptions::clock).
  pipeline::Executor executor(registry_, engine_, nullptr);

  // PR: seed the executor with checkpoints from history so shared prefixes
  // are free, exactly as the real merge does.
  MLCASK_ASSIGN_OR_RETURN(std::vector<const version::Commit*> commits,
                          MergeHistory(*repo_, head_branch_, merge_branch_,
                                       space_->common_ancestor));
  MLCASK_RETURN_IF_ERROR(pipeline::SeedExecutorFromHistory(
      commits, *libraries_, engine_, &executor));

  const size_t num_workers = std::max<size_t>(1, options.num_workers);
  pipeline::ExecutionCore* core = fallback_core_.Get(options.core, num_workers);
  TrialResult trial;

  // Frontier state, shared by the workers and guarded by `mu`:
  //  - unclaimed: leaves below a node not yet dequeued — what the greedy
  //    descent walks, so two workers never claim the same candidate;
  //  - unrun: leaves below a node not yet completed;
  //  - score: latest propagated node scores. A completed run updates them
  //    before any later claim, so one worker's result steers candidates the
  //    other workers have not dequeued yet (the paper's pruning semantics).
  // With one worker claim and completion alternate, unclaimed == unrun at
  // every decision point, and the trial reproduces the serial search
  // exactly (same RNG consumption, same visit order, same timings).
  std::mutex mu;
  Pcg32 rng(options.seed);
  std::unordered_map<const TreeNode*, double> score;
  std::unordered_map<const TreeNode*, size_t> unrun;
  std::unordered_map<const TreeNode*, size_t> unclaimed;
  std::unordered_map<const TreeNode*, const TreeNode*> parent;
  std::vector<size_t> random_order;
  size_t random_cursor = 0;
  bool aborted = false;
  // Virtual worker-availability slots (list scheduling), decoupled from the
  // real threads: each claimed candidate starts on the earliest free
  // virtual worker (same model as ExecutionCore::RunGraph).
  pipeline::VirtualWorkerPool worker_slots(num_workers, 0.0);
  double makespan = 0;

  if (options.mode == SearchMode::kRandom) {
    random_order.resize(candidates_.size());
    std::iota(random_order.begin(), random_order.end(), 0);
    rng.Shuffle(&random_order);
  } else {
    parent = tree_->ParentIndex();
    std::function<size_t(const TreeNode*)> init = [&](const TreeNode* node) {
      if (node->is_leaf() && node->spec != nullptr) {
        unrun[node] = 1;
        auto it = leaf_index_.find(node);
        if (it != leaf_index_.end()) {
          auto is = initial_scores_.find(it->second);
          if (is != initial_scores_.end()) score[node] = is->second;
        }
        return size_t{1};
      }
      size_t total = 0;
      for (const auto& child : node->children) total += init(child.get());
      unrun[node] = total;
      return total;
    };
    init(tree_->root());
    unclaimed = unrun;

    // Propagate initial scores: parent = mean of scored children.
    std::function<void(const TreeNode*)> propagate = [&](const TreeNode* node) {
      if (node->is_leaf()) return;
      double sum = 0;
      size_t n = 0;
      for (const auto& child : node->children) {
        propagate(child.get());
        auto it = score.find(child.get());
        if (it != score.end()) {
          sum += it->second;
          ++n;
        }
      }
      if (n > 0) score[node] = sum / static_cast<double>(n);
    };
    propagate(tree_->root());
  }

  auto worker_body = [&](size_t) -> Status {
    for (;;) {
      size_t index = 0;
      const TreeNode* leaf = nullptr;
      SimClock clock;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (aborted) return Status::Ok();
        if (options.mode == SearchMode::kRandom) {
          if (random_cursor >= random_order.size()) return Status::Ok();
          index = random_order[random_cursor++];
        } else {
          if (unclaimed[tree_->root()] == 0) return Status::Ok();
          // Greedy descent to the best-scoring unclaimed leaf under the
          // scores known right now.
          const TreeNode* node = tree_->root();
          while (!node->is_leaf()) {
            const TreeNode* best = nullptr;
            double best_score = -1;
            size_t ties = 0;
            double inherit = 0.5;
            auto self = score.find(node);
            if (self != score.end()) inherit = self->second;
            for (const auto& child : node->children) {
              if (unclaimed[child.get()] == 0) continue;
              auto it = score.find(child.get());
              double s = it != score.end() ? it->second : inherit;
              if (best == nullptr || s > best_score) {
                best = child.get();
                best_score = s;
                ties = 1;
              } else if (s == best_score) {
                // Reservoir-style random tie-break keeps trials diverse.
                ++ties;
                if (rng.Below(static_cast<uint32_t>(ties)) == 0) {
                  best = child.get();
                }
              }
            }
            node = best;
          }
          leaf = node;
          index = leaf_index_.at(leaf);
          // Claim the path so no other worker dequeues this candidate.
          for (const TreeNode* cur = leaf; cur != nullptr;
               cur = parent.at(cur)) {
            unclaimed[cur] -= 1;
          }
        }
        // Start on the earliest free virtual worker.
        clock.AdvanceTo(worker_slots.ClaimEarliest());
      }

      StatusOr<SearchStep> step =
          RunCandidate(&executor, core, &clock, index, options.seed);

      {
        std::lock_guard<std::mutex> lock(mu);
        worker_slots.Release(clock.Now());
        if (!step.ok()) {
          aborted = true;
          return step.status();
        }
        makespan = std::max(makespan, step->end_time_s);
        trial.steps.push_back(*step);
        if (options.mode == SearchMode::kPrioritized) {
          score[leaf] = step->score;
          // Decrement unrun along the path and refresh ancestor scores, so
          // the next claim anywhere in the tree sees this result.
          const TreeNode* cur = leaf;
          while (cur != nullptr) {
            unrun[cur] -= 1;
            cur = parent.at(cur);
            if (cur != nullptr) {
              double sum = 0;
              size_t n = 0;
              for (const auto& child : cur->children) {
                auto it = score.find(child.get());
                if (it != score.end()) {
                  sum += it->second;
                  ++n;
                }
              }
              if (n > 0) score[cur] = sum / static_cast<double>(n);
            }
          }
        }
      }
    }
  };

  MLCASK_RETURN_IF_ERROR(core->RunWorkers(worker_body, num_workers));
  trial.wall_clock_s = makespan;
  trial.executions = executor.executions();

  // Parallel completion order interleaves worker timelines; report steps on
  // the virtual timeline so positions mean "finished k-th".
  if (num_workers > 1) {
    std::stable_sort(trial.steps.begin(), trial.steps.end(),
                     [](const SearchStep& a, const SearchStep& b) {
                       return a.end_time_s < b.end_time_s;
                     });
  }

  trial.best_score = 0;
  for (const SearchStep& s : trial.steps) {
    trial.best_score = std::max(trial.best_score, s.score);
  }
  for (size_t i = 0; i < trial.steps.size(); ++i) {
    if (trial.steps[i].score == trial.best_score) {
      trial.steps_to_optimal = i + 1;
      break;
    }
  }
  return trial;
}

}  // namespace mlcask::merge
