#include "sim/workloads.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "common/logging.h"
#include "common/strings.h"

#include "pipeline/executor.h"
#include "sim/libraries.h"
#include "storage/forkbase_engine.h"

namespace mlcask::sim {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest() : executor_(&registry_, &engine_, &clock_) {
    MLCASK_CHECK_OK(RegisterWorkloadLibraries(&registry_));
  }

  pipeline::LibraryRegistry registry_;
  storage::ForkBaseEngine engine_;
  SimClock clock_;
  pipeline::Executor executor_;
};

TEST_F(WorkloadTest, AllLibrariesRegistered) {
  EXPECT_GE(registry_.size(), 16u);
  for (const char* name :
       {"gen_readmission", "gen_dpm", "gen_reviews", "gen_digits",
        "cleanse_impute", "extract_ehr_features", "hmm_smooth",
        "corpus_process", "train_embedding", "pool_features",
        "zernike_features", "autolearn_features", "autolearn_select",
        "train_mlp", "train_logreg", "train_adaboost"}) {
    EXPECT_TRUE(registry_.Has(name)) << name;
  }
}

TEST_F(WorkloadTest, FourWorkloadsBuildAndValidate) {
  ASSERT_EQ(WorkloadNames().size(), 4u);
  for (const std::string& name : WorkloadNames()) {
    auto w = MakeWorkload(name, 0.05);
    ASSERT_TRUE(w.ok()) << name;
    EXPECT_EQ(w->name, name);
    EXPECT_TRUE(w->initial.IsChain());
    EXPECT_TRUE(w->initial.Validate().ok());
    EXPECT_TRUE(w->initial.CheckCompatibility().ok());
    EXPECT_FALSE(w->preprocessors.empty());
    EXPECT_FALSE(w->model.empty());
    // Every impl must be registered.
    for (const auto& c : w->initial.components()) {
      EXPECT_TRUE(registry_.Has(c.impl)) << name << ":" << c.impl;
    }
  }
  EXPECT_FALSE(MakeWorkload("nope").ok());
  EXPECT_FALSE(MakeWorkload("dpm", 0.0).ok());
}

// Running each workload end-to-end is the pipeline-layer integration test:
// real data generation, real pre-processing, real training, real score.
class WorkloadRunSweep : public WorkloadTest,
                         public ::testing::WithParamInterface<const char*> {};

// A registry, engine and executor of its own: a fresh version history.
struct FreshExecutor {
  FreshExecutor() : executor(&registry, &engine, &clock) {
    MLCASK_CHECK_OK(RegisterWorkloadLibraries(&registry));
  }
  pipeline::LibraryRegistry registry;
  storage::ForkBaseEngine engine;
  SimClock clock;
  pipeline::Executor executor;
};

// One run's bits: the model's metrics as IEEE-754 bit patterns, then each
// component's output id. Output ids are content-derived, so any changed
// artifact byte (a feature, a smoothed value, a prediction) changes one.
std::string RunFingerprint(const pipeline::PipelineRunResult& r) {
  std::string out;
  for (const auto& [name, value] : r.metrics) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    out += StrFormat("%s=%016llx;", name.c_str(),
                     static_cast<unsigned long long>(bits));
  }
  for (const auto& c : r.components) {
    out += StrFormat("%s:%s;", c.name.c_str(), c.output_id.ShortHex(16).c_str());
  }
  return out;
}

// Fingerprints of each workload's initial pipeline, recorded before the ML
// kernels were rewritten for speed: the rewritten kernels must reproduce
// every bit. These are x86-64 results under the repository's own compile
// flags (SSE2 doubles, no FMA contraction, no -ffast-math); another ISA or
// flag set may round differently and would need its own recording.
const std::map<std::pair<std::string, double>, std::string>& GoldenRuns() {
  static const std::map<std::pair<std::string, double>, std::string> golden{
    {{"readmission", 0.15},
     "accuracy=3fe60b60b60b60b6;auc=3fe9770b96a673e3;"
     "inv_logloss=3ffb97e51f12cd24;dataset:60e78185df7f7e5d;"
     "data_cleansing:ff990ea18350f817;"
     "feature_extract:01a2417c0736a239;cnn:d5668c8ad22cfabf;"},
    {{"readmission", 0.06},
     "accuracy=3fe38e38e38e38e4;auc=3feaf42f42f42f43;"
     "inv_logloss=3ff92fb16eda7105;dataset:bc16c236bc842a9d;"
     "data_cleansing:3ebff78b0dd06f16;"
     "feature_extract:361985926c1c9c60;cnn:b0c457feb7419941;"},
    {{"dpm", 0.15},
     "accuracy=3fe5e50d79435e51;auc=3fe7b65c0cefd437;"
     "inv_logloss=3ffbca747c56ba4f;dataset:8a9e9c0759e03e7a;"
     "data_cleansing:c9c3479abe723d88;"
     "feature_extract:10fea1c7907ef5e4;"
     "hmm_processing:993e18e1d7e551c4;dl_model:68ed120e6420e9bd;"},
    {{"dpm", 0.06},
     "accuracy=3fe25ed097b425ed;auc=3fe3357f7620506d;"
     "inv_logloss=3ff72154734af4c6;dataset:5ce6bd4aef75d178;"
     "data_cleansing:53f55811150a88c7;"
     "feature_extract:4ea753ae97969992;"
     "hmm_processing:84e7c437e1a94db1;dl_model:7c65932a2fd49cf8;"},
    {{"sa", 0.15},
     "accuracy=3fed9ca81e9131ac;auc=3fef581240cc6f58;"
     "inv_logloss=4013c5794126e445;dataset:dad49059d2f770cf;"
     "corpus_process:df11c43ac7a6de81;"
     "word_embedding:fb3cdacad517459b;"
     "feature_pooling:dae9ce787d7e7513;dl_model:efe6fc8ca753f642;"},
    {{"sa", 0.06},
     "accuracy=3feed097b425ed09;auc=3ff0000000000000;"
     "inv_logloss=400c8ed47928bf4e;dataset:d454096842627364;"
     "corpus_process:3003faa738c3006c;"
     "word_embedding:1fefe05cc6ec1f4c;"
     "feature_pooling:74ddf1b3f98844c9;dl_model:69f8fa79e4063a98;"},
    {{"autolearn", 0.15},
     "accuracy=3feb425ed097b426;auc=3fedc21c21c21c22;"
     "inv_logloss=4006a252111b07e5;dataset:3b0d30d6c43818b4;"
     "zernike_moments:4acd75085c021e21;"
     "feature_generation:9174d222f7288e35;"
     "feature_selection:0757e235f8971fb2;adaboost:c17f55522eeb8df1;"},
    {{"autolearn", 0.06},
     "accuracy=3fe8618618618618;auc=3feda12f684bda13;"
     "inv_logloss=3ff675ee843502f1;dataset:55a67befd8dc6087;"
     "zernike_moments:4eaf15471e1f1d56;"
     "feature_generation:a06ddbe114fbb078;"
     "feature_selection:89fecfa99cd31913;adaboost:b47e4ffa3b51a277;"},
  };
  return golden;
}

TEST_P(WorkloadRunSweep, RunsEndToEndWithLearnedScore) {
  auto w = MakeWorkload(GetParam(), 0.15);
  ASSERT_TRUE(w.ok());
  auto result = executor_.Run(w->initial, {});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->compatibility_failure);
  ASSERT_TRUE(result->has_score());
  EXPECT_EQ(result->metric, "accuracy");
  // Real learning happened: clearly better than chance on all 4 tasks.
  EXPECT_GT(result->score, 0.6) << GetParam();
  EXPECT_LE(result->score, 1.0);
  EXPECT_GT(result->time.preprocess_s, 0.0);
  EXPECT_GT(result->time.train_s, 0.0);

  // Bit-exact against the recorded runs, at this scale and a smaller one
  // (run on a fresh engine, so version ids start from the same history).
  EXPECT_EQ(RunFingerprint(*result), GoldenRuns().at({GetParam(), 0.15}))
      << GetParam() << " @0.15";
  FreshExecutor fresh;
  auto small = MakeWorkload(GetParam(), 0.06);
  ASSERT_TRUE(small.ok());
  auto small_result = fresh.executor.Run(small->initial, {});
  ASSERT_TRUE(small_result.ok());
  EXPECT_EQ(RunFingerprint(*small_result), GoldenRuns().at({GetParam(), 0.06}))
      << GetParam() << " @0.06";
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadRunSweep,
                         ::testing::Values("readmission", "dpm", "sa",
                                           "autolearn"));

TEST_F(WorkloadTest, CostProfilesMatchPaperShapes) {
  // Readmission is model-heavy; the other three are pre-processing-heavy
  // (paper Sec. VII-A). Check on the simulated-time composition.
  auto readmission = MakeWorkload("readmission", 0.05);
  auto dpm = MakeWorkload("dpm", 0.05);
  auto sa = MakeWorkload("sa", 0.05);
  auto autolearn = MakeWorkload("autolearn", 0.05);
  ASSERT_TRUE(readmission.ok() && dpm.ok() && sa.ok() && autolearn.ok());

  auto run = [&](const Workload& w) {
    auto r = executor_.Run(w.initial, {});
    MLCASK_CHECK_OK(r.status());
    return r->time;
  };
  TimeBreakdown tr = run(*readmission);
  EXPECT_GT(tr.train_s, tr.preprocess_s);
  for (const auto* w : {&*dpm, &*sa, &*autolearn}) {
    TimeBreakdown t = run(**const_cast<Workload* const*>(&w));
    EXPECT_GT(t.preprocess_s, t.train_s) << (*w).name;
  }
}

TEST_F(WorkloadTest, BumpIncrementTurnsVariantKnob) {
  auto w = MakeWorkload("readmission", 0.05);
  ASSERT_TRUE(w.ok());
  const auto* fe = *w->initial.Find("feature_extract");
  auto bumped = BumpIncrement(*fe);
  EXPECT_EQ(bumped.version.ToString(), "0.1");
  EXPECT_EQ(bumped.params.GetInt("variant"), 1);
  EXPECT_EQ(bumped.input_schema, fe->input_schema);
  EXPECT_EQ(bumped.output_schema, fe->output_schema);
  auto twice = BumpIncrement(bumped);
  EXPECT_EQ(twice.version.ToString(), "0.2");
  EXPECT_EQ(twice.params.GetInt("variant"), 2);
}

TEST_F(WorkloadTest, BumpSchemaBreaksDownstream) {
  auto w = MakeWorkload("readmission", 0.05);
  ASSERT_TRUE(w.ok());
  const auto* fe = *w->initial.Find("feature_extract");
  auto bumped = BumpSchema(*fe);
  EXPECT_EQ(bumped.version.ToString(), "1.0");
  EXPECT_NE(bumped.output_schema, fe->output_schema);

  auto broken = WithComponent(w->initial, bumped);
  ASSERT_TRUE(broken.ok());
  EXPECT_TRUE(broken->CheckCompatibility().IsIncompatible());

  // Adapting the model restores compatibility.
  const auto* cnn = *w->initial.Find("cnn");
  auto adapted = AdaptInputSchema(*cnn, bumped.output_schema);
  EXPECT_EQ(adapted.version.ToString(), "0.1");
  auto fixed = WithComponent(*broken, adapted);
  ASSERT_TRUE(fixed.ok());
  EXPECT_TRUE(fixed->CheckCompatibility().ok());
}

TEST_F(WorkloadTest, VariantChangesScore) {
  // An increment update must actually change behaviour (and typically the
  // score) — otherwise the metric-driven merge would have nothing to search.
  auto w = MakeWorkload("readmission", 0.15);
  ASSERT_TRUE(w.ok());
  auto base = executor_.Run(w->initial, {});
  ASSERT_TRUE(base.ok());

  const auto* cnn = *w->initial.Find("cnn");
  auto updated = WithComponent(w->initial, BumpIncrement(*cnn));
  ASSERT_TRUE(updated.ok());
  auto changed = executor_.Run(*updated, {});
  ASSERT_TRUE(changed.ok());
  EXPECT_NE(base->score, changed->score);
}

TEST_F(WorkloadTest, WithComponentRejectsUnknownName) {
  auto w = MakeWorkload("sa", 0.05);
  ASSERT_TRUE(w.ok());
  pipeline::ComponentVersionSpec ghost;
  ghost.name = "ghost";
  ghost.impl = "x";
  EXPECT_TRUE(WithComponent(w->initial, ghost).status().IsNotFound());
}

}  // namespace
}  // namespace mlcask::sim
