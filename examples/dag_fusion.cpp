// DAG pipelines beyond chains (Definition 1): a diamond-shaped fusion
// pipeline where two feature branches process the same EHR data and a join
// node concatenates their features before the model. Demonstrates the
// executor's subgraph-level reuse: updating one branch re-runs only that
// branch, the join, and the model.
//
// Run: ./build/examples/dag_fusion

#include <cstdio>

#include "pipeline/executor.h"
#include "sim/libraries.h"
#include "storage/forkbase_engine.h"

using namespace mlcask;

namespace {

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

pipeline::ComponentVersionSpec Spec(const std::string& name,
                                    pipeline::ComponentKind kind,
                                    uint64_t in_schema, uint64_t out_schema,
                                    const std::string& impl, double cost) {
  pipeline::ComponentVersionSpec s;
  s.name = name;
  s.kind = kind;
  s.input_schema = in_schema;
  s.output_schema = out_schema;
  s.impl = impl;
  s.cost_per_krow_s = cost;
  return s;
}

pipeline::Pipeline MakeFusion(int stats_variant) {
  pipeline::Pipeline p("fusion");
  auto ds = Spec("ehr_data", pipeline::ComponentKind::kDataset, 0, 1,
                 "gen_readmission", 1.0);
  ds.params.Set("rows", Json::Int(1500));
  // Both branches read the raw dataset directly, so this example's dataset
  // ships without missing values (the chain workloads put cleansing first).
  ds.params.Set("missing_rate", Json::Number(0.0));
  Check(p.AddComponent(ds), "add dataset");
  auto stats = Spec("stats_features", pipeline::ComponentKind::kPreprocessor,
                    1, 2, "extract_ehr_features", 6.0);
  stats.params.Set("variant", Json::Int(stats_variant));
  Check(p.AddComponent(stats), "add stats");
  auto clean = Spec("clean_features", pipeline::ComponentKind::kPreprocessor,
                    1, 2, "cleanse_impute", 4.0);
  Check(p.AddComponent(clean), "add clean");
  Check(p.AddComponent(Spec("fusion_join", pipeline::ComponentKind::kPreprocessor,
                            2, 3, "concat_features", 0.5)),
        "add join");
  Check(p.AddComponent(Spec("fusion_norm", pipeline::ComponentKind::kPreprocessor,
                            3, 4, "pool_features", 1.0)),
        "add norm");
  auto model = Spec("risk_model", pipeline::ComponentKind::kModel, 4, 5,
                    "train_mlp", 30.0);
  model.params.Set("hidden", Json::Int(24));
  model.params.Set("epochs", Json::Int(30));
  model.params.Set("lr", Json::Number(0.1));
  Check(p.AddComponent(model), "add model");
  Check(p.Connect("ehr_data", "stats_features"), "edge");
  Check(p.Connect("ehr_data", "clean_features"), "edge");
  Check(p.Connect("stats_features", "fusion_join"), "edge");
  Check(p.Connect("clean_features", "fusion_join"), "edge");
  Check(p.Connect("fusion_join", "fusion_norm"), "edge");
  Check(p.Connect("fusion_norm", "risk_model"), "edge");
  return p;
}

void PrintRun(const pipeline::PipelineRunResult& r, const char* label) {
  std::printf("%s: score %.3f, %.1f simulated s\n", label, r.score,
              r.time.Total());
  for (const auto& c : r.components) {
    std::printf("  %-16s %-8s %s\n", c.name.c_str(),
                c.version.ToString().c_str(),
                c.reused ? "reused" : (c.executed ? "executed" : "skipped"));
  }
}

}  // namespace

int main() {
  std::printf("DAG fusion pipeline (diamond topology)\n");
  std::printf("======================================\n\n");

  storage::ForkBaseEngine engine;
  SimClock clock;
  pipeline::LibraryRegistry registry;
  Check(sim::RegisterWorkloadLibraries(&registry), "register libraries");
  pipeline::Executor executor(&registry, &engine, &clock);

  pipeline::Pipeline fusion = MakeFusion(0);
  std::printf("topology: ehr_data -> {stats_features, clean_features} -> "
              "fusion_join -> fusion_norm -> risk_model\n");
  std::printf("is_chain=%s, valid=%s\n\n", fusion.IsChain() ? "yes" : "no",
              fusion.Validate().ok() ? "yes" : "no");

  auto first = executor.Run(fusion, {});
  Check(first.status(), "first run");
  PrintRun(*first, "initial run");

  // Update only the stats branch: the clean branch and the dataset reuse
  // their cached outputs; join and model re-run (they depend on the change).
  auto second = executor.Run(MakeFusion(1), {});
  Check(second.status(), "second run");
  std::printf("\n");
  PrintRun(*second, "after updating stats_features only");

  std::printf("\ntotal component executions: %llu (10 = 6 initial + 4 "
              "affected by the update)\n",
              static_cast<unsigned long long>(executor.executions()));
  return 0;
}
