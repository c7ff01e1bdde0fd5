#ifndef MLCASK_MERGE_PRIORITIZED_H_
#define MLCASK_MERGE_PRIORITIZED_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "merge/merge_op.h"
#include "merge/search_tree.h"

namespace mlcask::merge {

/// Order in which the pre-merge candidates are visited.
enum class SearchMode {
  kPrioritized,  ///< Greedy descent by propagated node scores (Sec. VII-E).
  kRandom,       ///< Uniformly random order (the paper's comparison arm).
};

/// One candidate visit within a trial.
struct SearchStep {
  size_t candidate_index = 0;  ///< Index into candidates().
  double end_time_s = 0;       ///< Sim-clock offset when the run finished.
  double score = 0;
};

/// One full pass over all N candidates.
struct TrialResult {
  std::vector<SearchStep> steps;
  double best_score = 0;
  /// 1-based step at which the trial's best score was first reached.
  size_t steps_to_optimal = 0;
  /// Virtual makespan of the trial: with one worker the serial sim time,
  /// with N workers the longest worker timeline.
  double wall_clock_s = 0;
  /// Component executions the trial performed (cache hits excluded) — the
  /// paper's pruned-candidate metric. Identical between serial and parallel
  /// runs: the cache's in-flight guards dedup shared prefixes across
  /// workers.
  uint64_t executions = 0;
};

/// Knobs for one trial.
struct TrialOptions {
  SearchMode mode = SearchMode::kPrioritized;
  uint64_t seed = 1;
  /// Workers draining the candidate frontier concurrently. 1 reproduces the
  /// serial search exactly; N > 1 preserves the prioritized semantics —
  /// every claim takes the best-scoring unclaimed leaf under the scores
  /// known at claim time, and a worker's completed score steers candidates
  /// not yet dequeued.
  size_t num_workers = 1;
  /// Shared long-lived ExecutionCore (non-owning; must outlive the trial).
  /// The trial's frontier workers and every candidate's pipeline run share
  /// it. When null the search lazily builds one fallback pool and reuses it
  /// across its trials (sized by the first trial's worker count; virtual
  /// widths per trial are unaffected). Pass the deployment pool to share
  /// real threads with the rest of the system.
  pipeline::ExecutionCore* core = nullptr;
};

/// The prioritized pipeline search: visits all candidates of the (PC-pruned,
/// PR-seeded) search tree, preferring subtrees with high propagated scores.
/// Node scores start from the trained pipelines on HEAD and MERGE_HEAD and
/// each parent's score is the mean of its scored children; after every run
/// the new leaf score is propagated back up.
class PrioritizedSearch {
 public:
  PrioritizedSearch(version::PipelineRepo* repo,
                    pipeline::LibraryRepo* libraries,
                    const pipeline::LibraryRegistry* registry,
                    storage::StorageEngine* engine)
      : repo_(repo),
        libraries_(libraries),
        registry_(registry),
        engine_(engine) {}

  /// Builds the search context for merging `merge_branch` into
  /// `head_branch`: search space, PC-pruned tree, and initial scores.
  Status Prepare(const std::string& head_branch,
                 const std::string& merge_branch);

  size_t num_candidates() const { return candidates_.size(); }
  const std::vector<CandidateChain>& candidates() const { return candidates_; }

  /// Scores seeded from history (candidate index -> committed score) — the
  /// "initial scores ... assigned using scores of the trained pipelines on
  /// MERGE_HEAD and HEAD".
  const std::unordered_map<size_t, double>& initial_scores() const {
    return initial_scores_;
  }

  /// Runs one trial: visits all candidates in the mode's order, measuring
  /// simulated end time and score per step. Each trial uses a fresh executor
  /// (seeded with history checkpoints) and `seed` for model training, so
  /// repeated trials vary realistically. With options.num_workers > 1 the
  /// frontier is drained concurrently on the ExecutionCore; steps are
  /// reported in virtual end-time order.
  StatusOr<TrialResult> RunTrial(const TrialOptions& options);

  /// Serial convenience overload (the pre-parallel API).
  StatusOr<TrialResult> RunTrial(SearchMode mode, uint64_t seed) {
    TrialOptions options;
    options.mode = mode;
    options.seed = seed;
    return RunTrial(options);
  }

 private:
  StatusOr<SearchStep> RunCandidate(pipeline::Executor* executor,
                                    pipeline::ExecutionCore* core,
                                    SimClock* clock, size_t index,
                                    uint64_t seed);

  version::PipelineRepo* repo_;
  pipeline::LibraryRepo* libraries_;
  const pipeline::LibraryRegistry* registry_;
  storage::StorageEngine* engine_;

  std::unique_ptr<SearchSpace> space_;
  std::unique_ptr<PipelineSearchTree> tree_;
  std::vector<CandidateChain> candidates_;
  /// Leaves in candidate order: leaves_[i] ends Candidates()[i].
  std::vector<const TreeNode*> leaves_;
  std::unordered_map<const TreeNode*, size_t> leaf_index_;
  /// Initial scores for leaves that correspond to pipelines trained in
  /// history (keyed by candidate index).
  std::unordered_map<size_t, double> initial_scores_;
  std::string head_branch_;
  std::string merge_branch_;
  /// Fallback pool for trials that inject no TrialOptions::core; built at
  /// most once per search, not per trial.
  pipeline::LazyExecutionCore fallback_core_;
};

}  // namespace mlcask::merge

#endif  // MLCASK_MERGE_PRIORITIZED_H_
