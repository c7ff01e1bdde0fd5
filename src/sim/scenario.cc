#include "sim/scenario.h"

#include "pipeline/checkout.h"
#include "sim/libraries.h"
#include "storage/fault_injector.h"
#include "storage/forkbase_engine.h"
#include "storage/local_dir_engine.h"
#include "storage/server_cluster.h"
#include "storage/sharded_engine.h"

namespace mlcask::sim {

storage::ShardedStorageEngine* Deployment::sharded_engine() const {
  return dynamic_cast<storage::ShardedStorageEngine*>(engine.get());
}

StatusOr<Hash256> Deployment::RunAndCommit(
    const pipeline::Pipeline& p, const std::string& branch,
    const std::string& author, const std::string& message,
    const pipeline::ExecutorOptions& opts) {
  for (const pipeline::ComponentVersionSpec& spec : p.components()) {
    MLCASK_RETURN_IF_ERROR(libraries->Put(spec));
  }
  pipeline::ExecutorOptions eo = opts;
  if (eo.num_workers == 0) eo.num_workers = num_workers;  // 0 = unset
  if (eo.core == nullptr) eo.core = core.get();  // share the deployment pool
  MLCASK_ASSIGN_OR_RETURN(pipeline::PipelineRunResult run,
                          executor->Run(p, eo));
  if (run.compatibility_failure) {
    return Status::Incompatible("pipeline failed compatibility at " +
                                run.failed_component);
  }
  if (!repo->branches().Exists("master")) {
    return repo->Init(run.snapshot, author, message);
  }
  if (!repo->branches().Exists(branch)) {
    MLCASK_RETURN_IF_ERROR(repo->Branch(branch, "master"));
  }
  return repo->CommitOn(branch, run.snapshot, author, message);
}

StatusOr<std::unique_ptr<Deployment>> MakeDeployment(
    const std::string& workload_name, double scale, bool folder_storage,
    size_t num_workers) {
  DeploymentConfig config;
  config.folder_storage = folder_storage;
  config.num_workers = num_workers;
  return MakeDeployment(workload_name, scale, config);
}

StatusOr<std::unique_ptr<Deployment>> MakeDeployment(
    const std::string& workload_name, double scale,
    const DeploymentConfig& config) {
  auto d = std::make_unique<Deployment>();
  d->num_workers = config.num_workers == 0 ? 1 : config.num_workers;
  auto backend_factory = [&]() -> std::unique_ptr<storage::StorageEngine> {
    if (config.folder_storage) {
      return std::make_unique<storage::LocalDirEngine>();
    }
    return std::make_unique<storage::ForkBaseEngine>();
  };
  if (!config.storage_endpoints.empty()) {
    // Out-of-process shards: dial the running mlcask_server processes,
    // optionally through a client-side fault injector (chaos harness).
    storage::SocketTransport::Options transport_options;
    if (!config.client_fault_spec.empty()) {
      MLCASK_ASSIGN_OR_RETURN(
          storage::FaultSpec spec,
          storage::FaultSpec::Parse(config.client_fault_spec));
      transport_options.injector =
          std::make_shared<storage::FaultInjector>(spec);
    }
    MLCASK_ASSIGN_OR_RETURN(
        d->engine,
        storage::ConnectCluster(config.storage_endpoints,
                                storage::ShardedStorageEngine::Options(),
                                transport_options));
  } else if (config.storage_shards >= 2) {
    d->engine = storage::MakeLoopbackCluster(config.storage_shards,
                                             backend_factory);
  } else {
    d->engine = backend_factory();
  }
  d->clock = std::make_unique<SimClock>();
  d->registry = std::make_unique<pipeline::LibraryRegistry>();
  MLCASK_RETURN_IF_ERROR(RegisterWorkloadLibraries(d->registry.get()));
  d->libraries = std::make_unique<pipeline::LibraryRepo>(d->engine.get(),
                                                         d->clock.get());
  MLCASK_ASSIGN_OR_RETURN(d->workload, MakeWorkload(workload_name, scale));
  d->repo = std::make_unique<version::PipelineRepo>(
      workload_name, d->engine.get(), d->clock.get());
  d->executor = std::make_unique<pipeline::Executor>(
      d->registry.get(), d->engine.get(), d->clock.get());
  d->core = std::make_unique<pipeline::ExecutionCore>(d->num_workers);
  return d;
}

StatusOr<ScenarioInfo> BuildTwoBranchScenario(Deployment* d,
                                              int extra_model_versions) {
  const Workload& w = d->workload;
  ScenarioInfo info;
  if (w.preprocessors.empty()) {
    return Status::FailedPrecondition("workload has no preprocessors");
  }
  const std::string first_pre = w.preprocessors.front();
  const std::string last_pre = w.preprocessors.back();
  info.schema_bumped_component = last_pre;

  // Common ancestor: master.0.0, everything at 0.0, fully materialized.
  MLCASK_RETURN_IF_ERROR(
      d->RunAndCommit(w.initial, "master", "alice", "initial pipeline")
          .status());

  // --- MERGE_HEAD side (dev, "Frank") ----------------------------------
  // dev.0.0: model 0.1.
  MLCASK_ASSIGN_OR_RETURN(const pipeline::ComponentVersionSpec* model0,
                          w.initial.Find(w.model));
  pipeline::ComponentVersionSpec model_0_1 = BumpIncrement(*model0);
  MLCASK_ASSIGN_OR_RETURN(pipeline::Pipeline dev0,
                          WithComponent(w.initial, model_0_1));
  MLCASK_RETURN_IF_ERROR(
      d->RunAndCommit(dev0, "dev", "frank", "model 0.1").status());

  // dev.0.1: last preprocessor 1.0 (schema bump) + model 0.2 adapted.
  MLCASK_ASSIGN_OR_RETURN(const pipeline::ComponentVersionSpec* pre0,
                          w.initial.Find(last_pre));
  pipeline::ComponentVersionSpec pre_1_0 = BumpSchema(*pre0);
  pipeline::ComponentVersionSpec model_0_2 =
      AdaptInputSchema(model_0_1, pre_1_0.output_schema);
  MLCASK_ASSIGN_OR_RETURN(pipeline::Pipeline dev1,
                          WithComponent(dev0, pre_1_0));
  MLCASK_ASSIGN_OR_RETURN(dev1, WithComponent(dev1, model_0_2));
  MLCASK_RETURN_IF_ERROR(
      d->RunAndCommit(dev1, "dev", "frank",
                      last_pre + " 1.0 + adapted model 0.2")
          .status());

  // dev.0.2: model 0.3.
  pipeline::ComponentVersionSpec model_0_3 = BumpIncrement(model_0_2);
  MLCASK_ASSIGN_OR_RETURN(pipeline::Pipeline dev2,
                          WithComponent(dev1, model_0_3));
  MLCASK_RETURN_IF_ERROR(
      d->RunAndCommit(dev2, "dev", "frank", "model 0.3").status());

  // Optional widening: further model increments on dev beyond Fig. 3.
  // Skip one increment so the dev series (0.5, 0.6, ...) never collides
  // with master's independently-authored model 0.4 below.
  pipeline::Pipeline dev_head = dev2;
  pipeline::ComponentVersionSpec dev_model = model_0_3;
  if (extra_model_versions > 0) dev_model = BumpIncrement(dev_model);
  for (int i = 0; i < extra_model_versions; ++i) {
    dev_model = BumpIncrement(dev_model);
    MLCASK_ASSIGN_OR_RETURN(dev_head, WithComponent(dev_head, dev_model));
    MLCASK_RETURN_IF_ERROR(
        d->RunAndCommit(dev_head, "dev", "frank",
                        "model " + dev_model.version.ToString(false))
            .status());
  }

  // --- HEAD side (master, "Jane") ---------------------------------------
  // master.0.1: first preprocessor 0.1 and model 0.4 (compatible with the
  // OLD schema of the last preprocessor — Jane never saw Frank's bump).
  MLCASK_ASSIGN_OR_RETURN(const pipeline::ComponentVersionSpec* first0,
                          w.initial.Find(first_pre));
  pipeline::ComponentVersionSpec first_0_1 = BumpIncrement(*first0);
  pipeline::ComponentVersionSpec model_0_4 = *model0;
  for (int i = 0; i < 4; ++i) model_0_4 = BumpIncrement(model_0_4);
  MLCASK_ASSIGN_OR_RETURN(pipeline::Pipeline master1,
                          WithComponent(w.initial, first_0_1));
  MLCASK_ASSIGN_OR_RETURN(master1, WithComponent(master1, model_0_4));
  MLCASK_RETURN_IF_ERROR(
      d->RunAndCommit(master1, "master", "jane",
                      first_pre + " 0.1 + model 0.4")
          .status());

  return info;
}

StatusOr<ScenarioInfo> BuildDistributedMergeScenario(
    Deployment* d, int extra_extractor_versions, int extra_model_versions) {
  MLCASK_ASSIGN_OR_RETURN(ScenarioInfo info,
                          BuildTwoBranchScenario(d, extra_model_versions));
  if (extra_extractor_versions <= 0) return info;
  // Further increment updates of the schema-bumped extractor (1.1, 1.2, ...)
  // committed on dev with dev's current model: same schema as 1.0, so every
  // new-schema model version follows each of them — one extra subtree per
  // version at the extraction level of the search tree.
  MLCASK_ASSIGN_OR_RETURN(const version::Commit* dev_head,
                          d->repo->Head("dev"));
  MLCASK_ASSIGN_OR_RETURN(
      pipeline::Pipeline current,
      pipeline::MaterializePipeline(*dev_head, *d->libraries,
                                    d->repo->name()));
  MLCASK_ASSIGN_OR_RETURN(const pipeline::ComponentVersionSpec* extractor,
                          current.Find(info.schema_bumped_component));
  pipeline::ComponentVersionSpec next = *extractor;
  for (int i = 0; i < extra_extractor_versions; ++i) {
    next = BumpIncrement(next);
    MLCASK_ASSIGN_OR_RETURN(current, WithComponent(current, next));
    MLCASK_RETURN_IF_ERROR(
        d->RunAndCommit(current, "dev", "frank",
                        info.schema_bumped_component + " " +
                            next.version.ToString(false))
            .status());
  }
  return info;
}

}  // namespace mlcask::sim
