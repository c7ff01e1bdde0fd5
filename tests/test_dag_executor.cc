// Tests for general DAG execution (Definition 1 beyond chains): a diamond
// pipeline where two feature branches are joined before the model.

#include <gtest/gtest.h>

#include "common/logging.h"
#include "pipeline/executor.h"
#include "sim/libraries.h"
#include "sim/workloads.h"
#include "storage/forkbase_engine.h"

namespace mlcask::pipeline {
namespace {

ComponentVersionSpec Spec(const std::string& name, ComponentKind kind,
                          uint64_t in_schema, uint64_t out_schema,
                          const std::string& impl, double cost = 1.0) {
  ComponentVersionSpec s;
  s.name = name;
  s.kind = kind;
  s.input_schema = in_schema;
  s.output_schema = out_schema;
  s.impl = impl;
  s.cost_per_krow_s = cost;
  return s;
}

class DagExecutorTest : public ::testing::Test {
 protected:
  DagExecutorTest() : executor_(&registry_, &engine_, &clock_) {
    MLCASK_CHECK_OK(sim::RegisterWorkloadLibraries(&registry_));
  }

  /// Diamond: readmission data fans out to path_a (feature extraction) and
  /// path_b (zero-impute cleansing), whose outputs a join concatenates
  /// before the model.
  Pipeline MakeDiamond() {
    Pipeline p("diamond");
    auto ds = Spec("dataset", ComponentKind::kDataset, 0, 1,
                   "gen_readmission", 1.0);
    ds.params.Set("rows", Json::Int(300));
    MLCASK_CHECK_OK(p.AddComponent(ds));
    auto a = Spec("path_a", ComponentKind::kPreprocessor, 1, 2,
                  "extract_ehr_features", 5.0);
    MLCASK_CHECK_OK(p.AddComponent(a));
    auto b = Spec("path_b", ComponentKind::kPreprocessor, 1, 2,
                  "cleanse_impute", 3.0);
    b.params.Set("strategy", Json::Str("zero"));
    MLCASK_CHECK_OK(p.AddComponent(b));
    auto join =
        Spec("join", ComponentKind::kPreprocessor, 2, 3, "concat_features", 1.0);
    MLCASK_CHECK_OK(p.AddComponent(join));
    auto model = Spec("model", ComponentKind::kModel, 3, 4, "train_logreg", 10.0);
    MLCASK_CHECK_OK(p.AddComponent(model));
    MLCASK_CHECK_OK(p.Connect("dataset", "path_a"));
    MLCASK_CHECK_OK(p.Connect("dataset", "path_b"));
    MLCASK_CHECK_OK(p.Connect("path_a", "join"));
    MLCASK_CHECK_OK(p.Connect("path_b", "join"));
    MLCASK_CHECK_OK(p.Connect("join", "model"));
    return p;
  }

  LibraryRegistry registry_;
  storage::ForkBaseEngine engine_;
  SimClock clock_;
  Executor executor_;
};

TEST_F(DagExecutorTest, DiamondValidatesButIsNotChain) {
  Pipeline p = MakeDiamond();
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_FALSE(p.IsChain());
  EXPECT_EQ(p.Predecessors("join").size(), 2u);
}

TEST_F(DagExecutorTest, RunExecutesDiamondAndScores) {
  auto result = executor_.Run(MakeDiamond(), {});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->compatibility_failure);
  ASSERT_EQ(result->components.size(), 5u);
  ASSERT_TRUE(result->has_score());
  EXPECT_GT(result->score, 0.5);
  EXPECT_EQ(executor_.executions(), 5u);
}

TEST_F(DagExecutorTest, ChainRunOnTinyCapPinsAtMostTwoTables) {
  // A chain is the DAG special case. On a 1-byte cap every unpinned table
  // is evicted at the next publish, so the peak shows what the run pins:
  // only the input the running component reads, beside its new output.
  auto w = sim::MakeWorkload("readmission", 0.05);
  ASSERT_TRUE(w.ok());
  ArtifactCache::Options tiny;
  tiny.max_bytes = 1;
  Executor capped(&registry_, &engine_, &clock_, tiny);
  auto chain_result = capped.Run(w->initial, {});
  ASSERT_TRUE(chain_result.ok());
  EXPECT_TRUE(chain_result->has_score());
  const ArtifactCache::Stats stats = capped.cache_stats();
  EXPECT_LE(stats.peak_bytes, 2 * stats.largest_entry_bytes);
}

TEST_F(DagExecutorTest, DiamondRunOnTinyCapReleasesConsumedTables) {
  // Consumer-counted pins: a table is released once its last executing
  // consumer finishes, so a capped diamond evicts the dataset and the two
  // branch tables instead of holding all five outputs until the run ends.
  ASSERT_TRUE(executor_.Run(MakeDiamond(), {}).ok());
  const uint64_t all_outputs = executor_.cache_stats().bytes;

  ArtifactCache::Options tiny;
  tiny.max_bytes = 1;
  Executor capped(&registry_, &engine_, &clock_, tiny);
  auto result = capped.Run(MakeDiamond(), {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->has_score());
  const ArtifactCache::Stats stats = capped.cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.peak_bytes, all_outputs);
}

TEST_F(DagExecutorTest, DagCacheReusesWholePipeline) {
  ASSERT_TRUE(executor_.Run(MakeDiamond(), {}).ok());
  auto second = executor_.Run(MakeDiamond(), {});
  ASSERT_TRUE(second.ok());
  for (const auto& c : second->components) {
    EXPECT_TRUE(c.reused) << c.name;
  }
  EXPECT_EQ(executor_.executions(), 5u);
  EXPECT_DOUBLE_EQ(second->time.Total(), 0.0);
}

TEST_F(DagExecutorTest, BranchChangeOnlyRerunsAffectedSubgraph) {
  ASSERT_TRUE(executor_.Run(MakeDiamond(), {}).ok());
  // Update only path_b; path_a and the dataset must stay cached, while the
  // join and model (downstream of the change) re-run.
  Pipeline p = MakeDiamond();
  auto specs = p.components();
  Pipeline updated("diamond");
  for (auto spec : specs) {
    if (spec.name == "path_b") {
      spec.version = spec.version.BumpIncrement();
      spec.params.Set("variant", Json::Int(1));
    }
    MLCASK_CHECK_OK(updated.AddComponent(spec));
  }
  MLCASK_CHECK_OK(updated.Connect("dataset", "path_a"));
  MLCASK_CHECK_OK(updated.Connect("dataset", "path_b"));
  MLCASK_CHECK_OK(updated.Connect("path_a", "join"));
  MLCASK_CHECK_OK(updated.Connect("path_b", "join"));
  MLCASK_CHECK_OK(updated.Connect("join", "model"));

  auto result = executor_.Run(updated, {});
  ASSERT_TRUE(result.ok());
  for (const auto& c : result->components) {
    if (c.name == "dataset" || c.name == "path_a") {
      EXPECT_TRUE(c.reused) << c.name;
    } else {
      EXPECT_TRUE(c.executed) << c.name;
    }
  }
  EXPECT_EQ(executor_.executions(), 5u + 3u);
}

TEST_F(DagExecutorTest, JoinConcatenatesFeatureColumns) {
  Pipeline p = MakeDiamond();
  ExecutorOptions opts;
  opts.store_outputs = true;
  auto result = executor_.Run(p, opts);
  ASSERT_TRUE(result.ok());
  // Fetch the join output and verify it has columns from both branches.
  const version::ComponentRecord* join_rec = result->snapshot.Find("join");
  ASSERT_NE(join_rec, nullptr);
  ASSERT_TRUE(join_rec->has_output());
  auto bytes = engine_.GetVersion(join_rec->output_id);
  ASSERT_TRUE(bytes.ok());
  auto table = data::Table::Deserialize(*bytes);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->HasColumn("f0"));    // from extract (path_a)
  EXPECT_TRUE(table->HasColumn("age"));   // from cleanse (path_b)
  EXPECT_TRUE(table->HasColumn("label"));
}

TEST_F(DagExecutorTest, RuntimeIncompatibilityDetectedAtJoin) {
  Pipeline p("broken");
  auto ds = Spec("dataset", ComponentKind::kDataset, 0, 1, "gen_readmission");
  ds.params.Set("rows", Json::Int(100));
  MLCASK_CHECK_OK(p.AddComponent(ds));
  auto a = Spec("path_a", ComponentKind::kPreprocessor, 1, 2,
                "cleanse_impute");
  MLCASK_CHECK_OK(p.AddComponent(a));
  // join declares input schema 9, matching neither branch.
  auto join = Spec("join", ComponentKind::kPreprocessor, 9, 3,
                   "concat_features");
  MLCASK_CHECK_OK(p.AddComponent(join));
  MLCASK_CHECK_OK(p.Connect("dataset", "path_a"));
  MLCASK_CHECK_OK(p.Connect("path_a", "join"));

  ExecutorOptions opts;
  opts.precheck_compatibility = false;
  auto result = executor_.Run(p, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->compatibility_failure);
  EXPECT_EQ(result->failed_component, "join");

  // With the precheck the run is refused before any execution.
  executor_.ClearCache();
  uint64_t execs_before = executor_.executions();
  auto prechecked = executor_.Run(p, {});
  ASSERT_TRUE(prechecked.ok());
  EXPECT_TRUE(prechecked->compatibility_failure);
  EXPECT_EQ(executor_.executions(), execs_before);
}

TEST_F(DagExecutorTest, RunNeverConstructsPerCallPools) {
  // The pool-lifetime regression the shared-core refactor exists for:
  // repeated Run calls must not construct ExecutionCores per call. The
  // fallback path builds exactly one lazy pool per executor; the shared
  // path builds none at all.
  Pipeline p = MakeDiamond();
  const uint64_t before = ExecutionCore::instances_created();
  for (int i = 0; i < 5; ++i) {
    ExecutorOptions opts;
    opts.num_workers = 2;
    auto result = executor_.Run(p, opts);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->compatibility_failure);
  }
  EXPECT_EQ(ExecutionCore::instances_created() - before, 1u)
      << "fallback pool must be built lazily, once";

  ExecutionCore shared(2);
  const uint64_t with_shared = ExecutionCore::instances_created();
  for (int i = 0; i < 5; ++i) {
    ExecutorOptions opts;
    opts.num_workers = 2;
    opts.core = &shared;
    auto result = executor_.Run(p, opts);
    ASSERT_TRUE(result.ok());
  }
  EXPECT_EQ(ExecutionCore::instances_created() - with_shared, 0u)
      << "a shared pool must be reused, not copied per call";
  EXPECT_EQ(shared.stats().batches_run, 5u);
}

TEST_F(DagExecutorTest, ConcatRequiresLabel) {
  // A join whose inputs carry no label is a hard library error.
  data::Table no_label;
  MLCASK_CHECK_OK(no_label.AddDoubleColumn("x", {1.0, 2.0}));
  ExecInput in;
  in.inputs = {&no_label};
  in.input = &no_label;
  Json params = Json::Object();
  in.params = &params;
  auto fn = registry_.Get("concat_features");
  ASSERT_TRUE(fn.ok());
  EXPECT_TRUE((**fn)(in).status().IsInvalidArgument());
}

}  // namespace
}  // namespace mlcask::pipeline
