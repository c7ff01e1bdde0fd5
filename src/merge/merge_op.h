#ifndef MLCASK_MERGE_MERGE_OP_H_
#define MLCASK_MERGE_MERGE_OP_H_

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "merge/search_space.h"
#include "merge/search_tree.h"
#include "pipeline/execution_core.h"
#include "pipeline/executor.h"
#include "pipeline/library_repo.h"
#include "storage/storage_engine.h"
#include "version/pipeline_repo.h"

namespace mlcask::merge {

/// Ablation knobs matching the paper's evaluation arms (Sec. VII-B):
///  - MLCask:            prune_compatibility=true,  reuse_outputs=true
///  - MLCask w/o PR:     prune_compatibility=true,  reuse_outputs=false
///  - MLCask w/o PCPR:   prune_compatibility=false, reuse_outputs=false
struct MergeOptions {
  bool prune_compatibility = true;  ///< PC: prune via the compatibility LUT.
  bool reuse_outputs = true;        ///< PR: reuse checkpoints + tree outputs.
  /// Whether trial runs archive every component output to storage. MLCask
  /// keeps trial outputs local and materializes only the winner; the
  /// ablation arms archive like the folder-based baselines do.
  bool store_trial_outputs = false;
  /// Which metric to maximize. Empty selects each pipeline's primary score;
  /// otherwise the named entry of the model's metric set is used (Sec. V:
  /// different metrics can yield different optimal merge results).
  std::string optimize_metric;
  uint64_t seed = 1;
  std::string author = "mlcask";
  /// Workers draining the candidate list concurrently; 1 reproduces
  /// Algorithm 2's serial depth-first walk exactly. `component_executions`
  /// and the selected winner are identical across worker counts — racing
  /// shared prefixes dedup through the artifact cache's in-flight leases.
  /// The virtual makespan is run-to-run identical at 1 worker, or on a
  /// one-thread core. With more workers on a multi-thread pool a claim
  /// takes the earliest virtual slot already released in REAL time, so
  /// thread timing can move makespan_s (and, under a cache cap, the
  /// executions that evictions cost).
  size_t num_workers = 1;
  /// Shared long-lived ExecutionCore (non-owning; must outlive the call)
  /// for the whole merge: the shard drains fan out on it, each shard's
  /// candidate claims are scheduled on it, and every candidate's pipeline
  /// run gets it as ExecutorOptions::core. When null, the MergeOperation
  /// lazily builds one pool of `shards × num_workers` threads on its first
  /// call and reuses it across its Merge calls — never one per call (see
  /// the pool-ownership rules in execution_core.h); a later call asking
  /// for more runs on that pool, with the same results and less real
  /// parallelism. A one-thread core drains every shard in turn on the
  /// calling thread: the sequential real-time baseline, with results
  /// identical to a wide pool's.
  pipeline::ExecutionCore* core = nullptr;
  /// Distributed-merge partitioning (paper Sec. VII-F made real): with
  /// shards >= 2, Algorithm 2's candidate subtrees — leaves grouped under
  /// their deepest shared prefix — are assigned to shards by longest-
  /// processing-time-first balancing, and each shard drains its groups
  /// through its own trial executor on an independent virtual timeline
  /// (num_workers applies per shard). Winners reduce in global DFS order,
  /// so the selected winner and the summed component_executions are
  /// identical to the single-node path whenever cross-group shared
  /// prefixes are checkpointed (always true for two-branch scenario
  /// merges: interior levels come from committed pipelines); makespan_s
  /// becomes the slowest shard's drain. Shard state is disjoint (each shard
  /// owns its executor, cache, and candidate indices), so the shards drain
  /// concurrently on the merge's pool — real OS threads, so merge
  /// wall-clock scales with cores (`MergeReport::drain_wall_ms`) — with
  /// results bit-identical to a sequential drain. On an error every shard
  /// still drains, and the merge reports the failure of the
  /// lowest-numbered failing shard. 0/1 = single-node (the historical
  /// path, bit-for-bit).
  size_t shards = 1;
  /// Byte cap for the trial executor's artifact cache (0 = unbounded): long
  /// merge searches trade recomputation for bounded memory. Leased slots
  /// and entries held by running candidates are never evicted.
  uint64_t cache_max_bytes = 0;
  /// Streamed prefix handoff in the virtual-time model (see
  /// ExecutorOptions::streamed_handoff): candidates that reuse an artifact
  /// still being produced on another worker's timeline charge
  /// overlap-adjusted wait (start at the first chunk boundary) instead of
  /// the producer's full finish time. Tightens makespan_s, never inflates
  /// it; executions and the winner are charging-invariant. False restores
  /// the legacy full-wait charging for A/B comparison.
  bool streamed_handoff = true;
};

/// One executed (or skipped) pre-merge pipeline candidate.
struct CandidateOutcome {
  CandidateChain chain;
  double score = std::nan("");
  std::map<std::string, double> metrics;  ///< Full metric set, if evaluated.
  TimeBreakdown time;
  bool incompatible = false;  ///< Failed (or would fail) at runtime.
  double end_time_s = 0;      ///< Sim-clock offset when this candidate finished.
};

/// Full accounting of a metric-driven merge.
struct MergeReport {
  bool fast_forward = false;
  Hash256 common_ancestor;
  size_t tree_nodes_before_pruning = 0;
  size_t pruned_by_compatibility = 0;
  size_t checkpoints_marked = 0;
  size_t candidates_total = 0;      ///< Upper bound before PC pruning.
  size_t candidates_considered = 0; ///< Actually walked by Algorithm 2.
  uint64_t component_executions = 0;
  std::vector<CandidateOutcome> outcomes;
  int best_index = -1;
  double best_score = std::nan("");
  std::string metric;
  TimeBreakdown total_time;  ///< CET/CST components; CPT = Total().
  /// Virtual makespan of the candidate drain: the wall-clock of the search
  /// on a num_workers-wide machine (list-scheduled over virtual worker
  /// slots). With one worker this equals the serial candidate time; CPT
  /// (total_time) is worker-count-invariant while makespan_s shrinks.
  double makespan_s = 0;
  /// Artifact-cache telemetry of the trial executor: peak resident bytes
  /// vs. the configured cap, and how many entries the LRU policy dropped.
  /// Sharded merges aggregate across the per-shard caches (byte fields sum,
  /// so peak_bytes upper-bounds the true concurrent peak).
  pipeline::ArtifactCache::Stats cache_stats;
  /// Sharded-drain accounting: how many shards drained candidates and how
  /// many candidates each was assigned (single-node reports one entry
  /// holding the full candidate count).
  size_t shards_used = 1;
  std::vector<size_t> shard_candidates;
  /// REAL (steady-clock) wall time of the candidate-drain phase, in
  /// milliseconds — the one deliberately non-virtual number in the report,
  /// measuring how well concurrent shard drains use the host's cores
  /// (bench_micro_merge_realtime gates on a one-thread core's drain against
  /// a pool of one thread per shard).
  /// Virtual metrics (makespan_s, total_time) are unaffected by it.
  double drain_wall_ms = 0;
  uint64_t storage_bytes = 0;  ///< Bytes written during merge (CSS delta).
  Hash256 merge_commit;
  /// Owns the component specs that every CandidateChain in `outcomes` points
  /// into — keeps those pointers valid for the lifetime of the report.
  SearchSpace search_space;
};

/// The metric-driven merge operation (Sec. V-VI): builds the component
/// search space from both branches' history since the common ancestor,
/// constructs the pipeline search tree (Algorithm 1), prunes it (PC),
/// seeds checkpoints (PR), executes the candidates depth-first
/// (Algorithm 2), and commits the argmax-score pipeline as a two-parent
/// merge commit.
class MergeOperation {
 public:
  MergeOperation(version::PipelineRepo* repo, pipeline::LibraryRepo* libraries,
                 const pipeline::LibraryRegistry* registry,
                 storage::StorageEngine* engine, SimClock* clock)
      : repo_(repo),
        libraries_(libraries),
        registry_(registry),
        engine_(engine),
        clock_(clock) {}

  /// Merges `merge_branch` into `head_branch`. Handles fast-forward when
  /// possible; otherwise performs the metric-driven search.
  StatusOr<MergeReport> Merge(const std::string& head_branch,
                              const std::string& merge_branch,
                              const MergeOptions& options);

 private:
  version::PipelineRepo* repo_;
  pipeline::LibraryRepo* libraries_;
  const pipeline::LibraryRegistry* registry_;
  storage::StorageEngine* engine_;
  SimClock* clock_;
  /// The merge pool for Merge calls that inject no shared core; built at
  /// most once per MergeOperation, sized by its first call, and reused.
  pipeline::LazyExecutionCore fallback_core_;
};

}  // namespace mlcask::merge

#endif  // MLCASK_MERGE_MERGE_OP_H_
