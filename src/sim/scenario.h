#ifndef MLCASK_SIM_SCENARIO_H_
#define MLCASK_SIM_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "pipeline/execution_core.h"
#include "pipeline/executor.h"
#include "pipeline/library_registry.h"
#include "pipeline/library_repo.h"
#include "sim/workloads.h"
#include "storage/storage_engine.h"
#include "version/pipeline_repo.h"

namespace mlcask::storage {
class ShardedStorageEngine;
}  // namespace mlcask::storage

namespace mlcask::sim {

/// A fully provisioned MLCask deployment around one workload: storage
/// engine, library registry/repository, pipeline repository, executor, and
/// simulated clock. Everything the drivers, benches, and examples need.
struct Deployment {
  std::unique_ptr<storage::StorageEngine> engine;
  std::unique_ptr<SimClock> clock;
  std::unique_ptr<pipeline::LibraryRegistry> registry;
  std::unique_ptr<pipeline::LibraryRepo> libraries;
  std::unique_ptr<version::PipelineRepo> repo;
  std::unique_ptr<pipeline::Executor> executor;
  /// The deployment-wide shared ExecutionCore: one long-lived pool reused
  /// by every RunAndCommit run and merge drain (threaded through
  /// ExecutorOptions::core / MergeOptions::core). Sized by `num_workers`
  /// real threads at deployment creation. Passed as MergeOptions::core it
  /// carries a sharded merge too: at `num_workers` = 1 it is inline, so the
  /// shards drain one after another on the calling thread, with results
  /// identical to a concurrent drain's.
  std::unique_ptr<pipeline::ExecutionCore> core;
  Workload workload;
  /// Default worker count applied to runs whose options leave num_workers
  /// unset (0) — the deployment-wide parallelism knob the drivers and
  /// benches thread through to the ExecutionCore. An explicit
  /// ExecutorOptions::num_workers (including 1 = serial) always wins.
  size_t num_workers = 1;

  /// The storage engine as the sharded router, or nullptr when the
  /// deployment runs a single local engine (storage_shards <= 1 and no
  /// endpoints). This is the handle for elastic-topology drills: the
  /// rebalance tests and bench call AddShard / RemoveShard on it while a
  /// merge is draining on the same deployment.
  storage::ShardedStorageEngine* sharded_engine() const;

  /// Runs `p` (a chain or a general DAG), commits the result snapshot on
  /// `branch`, and registers every component version in the library
  /// repository. Returns the commit id.
  StatusOr<Hash256> RunAndCommit(const pipeline::Pipeline& p,
                                 const std::string& branch,
                                 const std::string& author,
                                 const std::string& message,
                                 const pipeline::ExecutorOptions& opts = {});
};

/// Deployment provisioning knobs (the growing axes get a struct; the old
/// positional overload below stays for existing call sites).
struct DeploymentConfig {
  bool folder_storage = false;  ///< LocalDir archival instead of ForkBase.
  size_t num_workers = 1;       ///< Deployment-wide parallelism default.
  /// >= 2 provisions a DISTRIBUTED storage deployment: that many backend
  /// engines, each behind a StorageEngineService + LoopbackTransport +
  /// RemoteStorageEngine proxy, routed by one ShardedStorageEngine (keys
  /// consistent-hashed, `pipeline/` + `library/` metadata replicated via
  /// two-phase commit — see storage/sharded_engine.h). Every storage call
  /// then crosses a real serialization boundary. 0/1 = one local engine.
  size_t storage_shards = 1;
  /// Non-empty provisions the storage tier OUT OF PROCESS: one socket
  /// connection per endpoint spec (`unix:/path`, `tcp:host:port` — each a
  /// running `mlcask_server`), routed by the same ShardedStorageEngine as
  /// the loopback cluster (see storage::ConnectCluster). Overrides
  /// storage_shards and folder_storage: the shard count is the endpoint
  /// count and each server chose its own backend at launch.
  std::vector<std::string> storage_endpoints;
  /// Chaos harness: a storage::FaultSpec string applied to the CLIENT side
  /// of every storage connection (frame drops, drop-after-send, garbling,
  /// delays — see FaultSpec::Parse). Only meaningful with
  /// storage_endpoints; the transports redial and replay through the
  /// faults, so a deployment under injection must still produce
  /// bit-identical results. Empty = no injection.
  std::string client_fault_spec;
};

/// Creates a deployment with a ForkBase engine (pass `folder_storage` for
/// the baselines' local-dir archival engine instead). `num_workers` is the
/// deployment-wide parallelism default.
StatusOr<std::unique_ptr<Deployment>> MakeDeployment(
    const std::string& workload_name, double scale,
    bool folder_storage = false, size_t num_workers = 1);

/// Struct-config overload; supports distributed storage deployments.
StatusOr<std::unique_ptr<Deployment>> MakeDeployment(
    const std::string& workload_name, double scale,
    const DeploymentConfig& config);

/// Reproduces the paper's Fig. 3 two-branch history on a deployment:
///
///   master.0.0 (common ancestor, all components 0.0)
///   ├─ master.0.1      : first preprocessor 0.1, model 0.4   (HEAD side)
///   └─ dev.0.0..dev.0.2: model 0.1; last preprocessor 1.0 (schema bump) +
///                        model 0.2 (adapted); model 0.3     (MERGE_HEAD)
///
/// This yields the paper's search space: 5 model versions, 2 versions of the
/// schema-bumped preprocessor (0.0/1.0), 2 of the first preprocessor, and a
/// compatibility split exactly like Fig. 4's (3 models follow the old
/// schema, 2 the new).
struct ScenarioInfo {
  std::string head_branch = "master";
  std::string merge_branch = "dev";
  /// Name of the preprocessor whose schema was bumped on the dev branch.
  std::string schema_bumped_component;
};

/// `extra_model_versions` appends that many further increment updates of the
/// model on the dev branch after the Fig. 3 history — numbered 0.5, 0.6, ...
/// (0.4 is skipped: master's independently-authored model already owns it) —
/// widening the merge frontier, which is what the parallel-search scaling
/// bench exercises. 0 reproduces the paper's scenario exactly.
StatusOr<ScenarioInfo> BuildTwoBranchScenario(Deployment* deployment,
                                              int extra_model_versions = 0);

/// The distributed-merge (Fig. 11) scenario: the Fig. 3 history, optionally
/// widened with extra model versions, plus `extra_extractor_versions`
/// further increment updates of the schema-bumped preprocessor committed on
/// dev (1.1, 1.2, ...). Each new extractor version multiplies the search
/// tree's subtree count — extraction-level nodes are the deepest shared
/// prefixes — which is what gives a sharded merge drain
/// (MergeOptions::shards) balanced work to distribute. 0 extra extractors
/// reduces to BuildTwoBranchScenario.
StatusOr<ScenarioInfo> BuildDistributedMergeScenario(
    Deployment* deployment, int extra_extractor_versions,
    int extra_model_versions = 0);

}  // namespace mlcask::sim

#endif  // MLCASK_SIM_SCENARIO_H_
