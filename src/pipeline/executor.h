#ifndef MLCASK_PIPELINE_EXECUTOR_H_
#define MLCASK_PIPELINE_EXECUTOR_H_

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "data/table.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/execution_core.h"
#include "pipeline/library_registry.h"
#include "pipeline/pipeline.h"
#include "storage/storage_engine.h"
#include "version/commit.h"

namespace mlcask::pipeline {

/// Knobs that distinguish the systems under evaluation:
///  - ModelDB-style: reuse=false, precheck=false  (rerun everything, discover
///    incompatibility only when the failing component runs)
///  - MLflow-style:  reuse=true,  precheck=false
///  - MLCask:        reuse=true,  precheck=true   (skips doomed runs upfront)
struct ExecutorOptions {
  bool reuse_cached_outputs = true;
  bool precheck_compatibility = true;
  /// Materialize component outputs into the storage engine.
  bool store_outputs = true;
  uint64_t seed = 1;
  /// Virtual machine width of a run: independent DAG components dispatch
  /// concurrently through the ExecutionCore. 1 = explicitly serial
  /// (deterministic FIFO topological order, the pre-parallel behaviour);
  /// 0 = unset, meaning serial unless a driver-level default (e.g.
  /// sim::Deployment::num_workers) fills it in.
  size_t num_workers = 0;
  /// Per-run clock override. When set, this run charges its simulated time
  /// here instead of the executor's constructor clock — parallel searches
  /// give each worker its own timeline this way.
  SimClock* clock = nullptr;
  /// Streamed prefix handoff (virtual-time pipelined chunk streaming).
  /// When a run reuses an artifact another worker finishes at a LATER
  /// virtual time, the legacy charging advances this run's clock to the
  /// producer's full finish (`ready_at_s`) before anything else happens.
  /// With streaming on, the consumer instead starts once the producer's
  /// FIRST chunk crosses the handoff boundary and overlaps its own compute
  /// with the producer's tail; its finish is floored so it still processes
  /// the last chunk after the producer publishes it (see StreamSpan). The
  /// charged wait is never larger than the legacy one, so makespans only
  /// tighten; executions, scores, and winners are charging-invariant. A
  /// candidate whose FINAL component is a reuse still pays the full finish
  /// time — its score is not known before the producer completes. Set
  /// false to preserve the legacy full-wait charging (A/B comparison).
  bool streamed_handoff = true;
  /// Shared long-lived ExecutionCore (non-owning; must outlive the run).
  /// When set, Run schedules on it instead of the executor's own
  /// fallback pool — one deployment-wide pool serves every run and merge
  /// candidate (see the pool-ownership rules in execution_core.h). The
  /// pool's real thread count is independent of `num_workers`, which is the
  /// VIRTUAL machine width of this run.
  ExecutionCore* core = nullptr;
};

/// Per-component accounting of one pipeline run.
struct ComponentRunInfo {
  std::string name;
  version::SemanticVersion version;
  ComponentKind kind = ComponentKind::kPreprocessor;
  bool reused = false;    ///< Served from the artifact cache.
  bool executed = false;  ///< Actually ran its library function.
  double exec_s = 0;      ///< Simulated execution seconds charged.
  double storage_s = 0;   ///< Simulated storage seconds charged.
  uint64_t bytes_written = 0;
  Hash256 output_id;      ///< Materialized artifact version (zero if none).
};

/// Result of running one pipeline end to end.
struct PipelineRunResult {
  std::vector<ComponentRunInfo> components;
  TimeBreakdown time;
  double score = std::nan("");
  std::string metric;
  /// All score-oriented metrics reported by the pipeline's model component.
  std::map<std::string, double> metrics;
  /// Set when the run was aborted by a schema incompatibility: either
  /// detected upfront (precheck) or mid-run at the failing component.
  bool compatibility_failure = false;
  std::string failed_component;
  /// Snapshot with output ids and score, ready to commit.
  version::PipelineSnapshot snapshot;

  bool has_score() const { return !std::isnan(score); }
};

/// Runs pipelines against a library registry, charging simulated execution
/// and storage time, and maintaining the artifact cache keyed by the recursive
/// node key H(spec, parent keys). For a chain this collapses to a prefix
/// chain key, which is what lets sibling pipelines in a merge search tree
/// share everything up to their divergence point (paper Sec. VI-B: "nodes
/// sharing the same parent node also share the same path to the tree root").
/// A chain is the DAG special case: one scheduler runs both, and a
/// checkpoint seeded for a chain prefix (SeedCache) is the same cache entry
/// a run of that chain looks up.
///
/// Thread safety: one executor may serve many workers at once. The cache's
/// per-key in-flight guards make concurrent candidates sharing a prefix
/// compute it exactly once (the second worker waits and reuses), so
/// executions() matches the serial count. Callers running in parallel pass a
/// per-worker clock through ExecutorOptions::clock.
class Executor {
 public:
  /// All pointers must outlive the executor; `clock` may be nullptr.
  /// `cache_options` bounds the artifact cache (see ArtifactCache::Options;
  /// the default is unbounded).
  Executor(const LibraryRegistry* registry, storage::StorageEngine* engine,
           SimClock* clock, ArtifactCache::Options cache_options = {})
      : registry_(registry),
        engine_(engine),
        clock_(clock),
        cache_(cache_options) {}

  /// Runs a pipeline DAG (Definition 1; a chain is the special case).
  /// Components with several predecessors receive all their inputs
  /// (name-sorted) through ExecInput::inputs. With options.num_workers > 1,
  /// independent components run concurrently on the ExecutionCore; reported
  /// times model the resulting schedule's makespan. Compatibility requires
  /// every predecessor's output schema to match the consumer's declared
  /// input schema. Compatibility failures are reported in the result, not as
  /// an error status; hard errors (unknown impl, malformed pipeline) are
  /// error statuses.
  ///
  /// Cached outputs are planned sinks first: a node is looked up only when
  /// it is a sink or an executing successor needs its table, so a chain
  /// resumes from its longest cached prefix. The run pins the cache hits it
  /// plans on, and every other table only until its last executing consumer
  /// finishes; a byte-capped cache can evict everything else mid-run.
  StatusOr<PipelineRunResult> Run(const Pipeline& pipeline,
                                  const ExecutorOptions& options);

  /// Pre-seeds the artifact cache under `key`, a chain prefix's ChainKey —
  /// used to install checkpoints from commit history (the green nodes of the
  /// paper's Fig. 4) before a merge search.
  void SeedCache(const Hash256& key, data::Table output, double score,
                 const std::string& metric, const Hash256& output_id,
                 std::map<std::string, double> metrics = {});

  /// Recursive node key: order-sensitive hash over the component identity,
  /// version, impl, and hyperparameters, chained with the keys of the
  /// component's (name-sorted) predecessors. The one keying scheme behind
  /// both chain and DAG caching.
  static Hash256 NodeKey(const ComponentVersionSpec& spec,
                         const std::vector<Hash256>& parent_keys);

  /// Cache key for a chain prefix: NodeKey folded along the chain.
  static Hash256 ChainKey(const std::vector<const ComponentVersionSpec*>& chain);

  /// Returns the cached entry for an exact chain, or nullptr. Used by the
  /// merge operation to materialize the winning pipeline's outputs after
  /// the search (MLCask stores trial outputs locally and persists only the
  /// merge result). Holding the EntryPtr pins the entry: LRU eviction skips
  /// entries with outstanding readers, and even a concurrent Clear() or
  /// eviction only drops the cache's own reference — the table stays valid
  /// for as long as the caller keeps the pointer.
  ArtifactCache::EntryPtr FindCachedEntry(
      const std::vector<const ComponentVersionSpec*>& chain) const;

  void ClearCache() { cache_.Clear(); }
  /// Byte/eviction accounting of the artifact cache (LRU cap telemetry).
  ArtifactCache::Stats cache_stats() const { return cache_.stats(); }

  /// Cumulative number of component executions this executor performed
  /// (cache hits excluded) — the quantity PR pruning minimizes.
  uint64_t executions() const {
    return executions_.load(std::memory_order_relaxed);
  }

 private:
  const LibraryRegistry* registry_;
  storage::StorageEngine* engine_;
  SimClock* clock_;
  ArtifactCache cache_;
  std::atomic<uint64_t> executions_{0};
  /// Fallback pool for runs that pass no ExecutorOptions::core: built
  /// lazily once, sized by the first request, reused for the executor's
  /// lifetime — Run never constructs a per-call pool
  /// (ExecutionCore::instances_created() proves it). Later runs requesting
  /// a wider machine still report correct makespans: the virtual width is
  /// passed per call, independent of the pool's real thread count.
  LazyExecutionCore fallback_core_;
};

}  // namespace mlcask::pipeline

#endif  // MLCASK_PIPELINE_EXECUTOR_H_
