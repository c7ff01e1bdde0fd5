#include "pipeline/executor.h"

#include <gtest/gtest.h>

#include "common/logging.h"

#include "pipeline/library_registry.h"
#include "storage/forkbase_engine.h"

namespace mlcask::pipeline {
namespace {

/// Toy libraries: a source emitting N rows, a doubler, and a "model" whose
/// score is the mean of its input.
Status RegisterToyLibraries(LibraryRegistry* reg) {
  MLCASK_RETURN_IF_ERROR(reg->Register(
      "toy_source", [](const ExecInput& in) -> StatusOr<ExecOutput> {
        int64_t rows = in.params->GetInt("rows", 10);
        std::vector<double> v(static_cast<size_t>(rows));
        for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
        ExecOutput out;
        MLCASK_RETURN_IF_ERROR(out.table.AddDoubleColumn("x", std::move(v)));
        return out;
      }));
  MLCASK_RETURN_IF_ERROR(reg->Register(
      "toy_scale", [](const ExecInput& in) -> StatusOr<ExecOutput> {
        if (in.input == nullptr) {
          return Status::InvalidArgument("toy_scale needs input");
        }
        double k = in.params->GetDouble("k", 2.0);
        MLCASK_ASSIGN_OR_RETURN(const data::Column* c, in.input->GetColumn("x"));
        std::vector<double> v = c->doubles;
        for (double& x : v) x *= k;
        ExecOutput out;
        MLCASK_RETURN_IF_ERROR(out.table.AddDoubleColumn("x", std::move(v)));
        return out;
      }));
  MLCASK_RETURN_IF_ERROR(reg->Register(
      "toy_model", [](const ExecInput& in) -> StatusOr<ExecOutput> {
        if (in.input == nullptr) {
          return Status::InvalidArgument("toy_model needs input");
        }
        MLCASK_ASSIGN_OR_RETURN(const data::Column* c, in.input->GetColumn("x"));
        double mean = 0;
        for (double v : c->doubles) mean += v;
        mean /= static_cast<double>(c->doubles.size());
        ExecOutput out;
        MLCASK_RETURN_IF_ERROR(out.table.AddDoubleColumn("mean", {mean}));
        out.score = mean;
        out.metric = "mean";
        return out;
      }));
  return Status::Ok();
}

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

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : executor_(&registry_, &engine_, &clock_) {
    MLCASK_CHECK_OK(RegisterToyLibraries(&registry_));
  }

  Pipeline MakeChain(double k = 2.0) {
    auto src = Spec("src", ComponentKind::kDataset, 0, 1, "toy_source", 10.0);
    src.params.Set("rows", Json::Int(1000));
    auto scale = Spec("scale", ComponentKind::kPreprocessor, 1, 2, "toy_scale",
                      20.0);
    scale.params.Set("k", Json::Number(k));
    auto model = Spec("model", ComponentKind::kModel, 2, 3, "toy_model", 40.0);
    auto p = Pipeline::Chain("toy", {src, scale, model});
    MLCASK_CHECK_OK(p.status());
    return *std::move(p);
  }

  LibraryRegistry registry_;
  storage::ForkBaseEngine engine_;
  SimClock clock_;
  Executor executor_;
};

TEST_F(ExecutorTest, RunsChainAndScores) {
  auto result = executor_.Run(MakeChain(), {});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->compatibility_failure);
  ASSERT_EQ(result->components.size(), 3u);
  EXPECT_TRUE(result->components[0].executed);
  EXPECT_TRUE(result->has_score());
  // mean of 0..999 doubled = 999.
  EXPECT_DOUBLE_EQ(result->score, 999.0);
  EXPECT_EQ(result->metric, "mean");
  EXPECT_EQ(executor_.executions(), 3u);
}

TEST_F(ExecutorTest, ChargesSimulatedTimeByKindAndRows) {
  auto result = executor_.Run(MakeChain(), {});
  ASSERT_TRUE(result.ok());
  // src: 10 s/krow * 1 krow; scale: 20; model: 40 (into train bucket).
  EXPECT_DOUBLE_EQ(result->time.preprocess_s, 30.0);
  EXPECT_DOUBLE_EQ(result->time.train_s, 40.0);
  EXPECT_GT(result->time.storage_s, 0.0);
  EXPECT_DOUBLE_EQ(clock_.Now(),
                   result->time.preprocess_s + result->time.train_s +
                       result->time.storage_s);
}

TEST_F(ExecutorTest, SecondRunFullyReused) {
  ASSERT_TRUE(executor_.Run(MakeChain(), {}).ok());
  auto second = executor_.Run(MakeChain(), {});
  ASSERT_TRUE(second.ok());
  for (const auto& c : second->components) {
    EXPECT_TRUE(c.reused) << c.name;
    EXPECT_FALSE(c.executed);
  }
  EXPECT_DOUBLE_EQ(second->time.Total(), 0.0);
  // Score is preserved through the cache.
  EXPECT_DOUBLE_EQ(second->score, 999.0);
  EXPECT_EQ(executor_.executions(), 3u);
}

TEST_F(ExecutorTest, ChangedSuffixOnlyRerunsSuffix) {
  ASSERT_TRUE(executor_.Run(MakeChain(2.0), {}).ok());
  auto changed = executor_.Run(MakeChain(3.0), {});
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(changed->components[0].reused);   // src unchanged
  EXPECT_TRUE(changed->components[1].executed); // scale params changed
  EXPECT_TRUE(changed->components[2].executed); // downstream of change
  EXPECT_DOUBLE_EQ(changed->score, 999.0 * 1.5);
  EXPECT_EQ(executor_.executions(), 5u);
}

TEST_F(ExecutorTest, ReuseDisabledRerunsEverything) {
  ASSERT_TRUE(executor_.Run(MakeChain(), {}).ok());
  ExecutorOptions opts;
  opts.reuse_cached_outputs = false;
  auto second = executor_.Run(MakeChain(), opts);
  ASSERT_TRUE(second.ok());
  for (const auto& c : second->components) {
    EXPECT_TRUE(c.executed) << c.name;
  }
  EXPECT_EQ(executor_.executions(), 6u);
}

TEST_F(ExecutorTest, PrecheckSkipsDoomedRun) {
  // Break the scale->model edge.
  auto chain = MakeChain();
  auto specs = chain.components();
  specs[2].input_schema = 99;
  auto broken = Pipeline::Chain("toy", specs);
  ASSERT_TRUE(broken.ok());

  ExecutorOptions opts;  // precheck on by default
  auto result = executor_.Run(*broken, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->compatibility_failure);
  EXPECT_TRUE(result->components.empty());  // nothing ran
  EXPECT_DOUBLE_EQ(result->time.Total(), 0.0);
  EXPECT_EQ(executor_.executions(), 0u);
}

TEST_F(ExecutorTest, RuntimeFailureWastesUpstreamTime) {
  auto chain = MakeChain();
  auto specs = chain.components();
  specs[2].input_schema = 99;
  auto broken = Pipeline::Chain("toy", specs);
  ASSERT_TRUE(broken.ok());

  ExecutorOptions opts;
  opts.precheck_compatibility = false;  // baseline behaviour
  auto result = executor_.Run(*broken, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->compatibility_failure);
  EXPECT_EQ(result->failed_component, "model");
  // src and scale already ran and were charged.
  EXPECT_DOUBLE_EQ(result->time.preprocess_s, 30.0);
  EXPECT_DOUBLE_EQ(result->time.train_s, 0.0);
  EXPECT_EQ(executor_.executions(), 2u);
}

TEST_F(ExecutorTest, StoreOutputsOffSkipsStorage) {
  ExecutorOptions opts;
  opts.store_outputs = false;
  auto result = executor_.Run(MakeChain(), opts);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->time.storage_s, 0.0);
  EXPECT_EQ(engine_.stats().puts, 0u);
  for (const auto& c : result->components) {
    EXPECT_TRUE(c.output_id.IsZero());
  }
}

TEST_F(ExecutorTest, SnapshotCarriesOutputIdsAndScore) {
  auto result = executor_.Run(MakeChain(), {});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->snapshot.components.size(), 3u);
  for (const auto& rec : result->snapshot.components) {
    EXPECT_TRUE(rec.has_output());
    EXPECT_TRUE(engine_.HasVersion(rec.output_id));
  }
  EXPECT_DOUBLE_EQ(result->snapshot.score, 999.0);
}

TEST_F(ExecutorTest, SeedCacheActsAsCheckpoint) {
  // Seed the prefix (src, scale) as if a previous commit materialized it.
  auto chain = MakeChain();
  auto specs = chain.components();
  data::Table cached;
  MLCASK_CHECK_OK(cached.AddDoubleColumn("x", {10.0, 20.0, 30.0}));
  executor_.SeedCache(Executor::ChainKey({&specs[0], &specs[1]}),
                      std::move(cached), std::nan(""), "", Hash256{});
  auto result = executor_.Run(chain, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->components[0].reused);
  EXPECT_TRUE(result->components[1].reused);
  EXPECT_TRUE(result->components[2].executed);
  EXPECT_DOUBLE_EQ(result->score, 20.0);  // mean of the seeded table
  EXPECT_EQ(executor_.executions(), 1u);
}

TEST_F(ExecutorTest, UnknownImplIsHardError) {
  auto bad = Spec("src", ComponentKind::kDataset, 0, 1, "no_such_impl");
  auto p = Pipeline::Chain("bad", {bad});
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(executor_.Run(*p, {}).status().IsNotFound());
}

TEST_F(ExecutorTest, ChainKeyOrderAndParamSensitive) {
  auto a = Spec("a", ComponentKind::kDataset, 0, 1, "x");
  auto b = Spec("b", ComponentKind::kPreprocessor, 1, 2, "y");
  EXPECT_NE(Executor::ChainKey({&a, &b}), Executor::ChainKey({&b, &a}));
  EXPECT_NE(Executor::ChainKey({&a}), Executor::ChainKey({&a, &b}));
  auto a2 = a;
  a2.params.Set("variant", Json::Int(1));
  EXPECT_NE(Executor::ChainKey({&a}), Executor::ChainKey({&a2}));
  auto a3 = a;
  a3.version = a.version.BumpIncrement();
  EXPECT_NE(Executor::ChainKey({&a}), Executor::ChainKey({&a3}));
}

}  // namespace
}  // namespace mlcask::pipeline
