// Regression tests for the unified cache namespace: the chain API
// (ChainKey, SeedCache, FindCachedEntry) and the executor's DAG runs key
// artifacts with the same recursive NodeKey scheme, so checkpoints seeded
// per chain prefix serve a run of the same pipeline.

#include <gtest/gtest.h>

#include "common/logging.h"
#include "pipeline/executor.h"
#include "sim/libraries.h"
#include "sim/workloads.h"
#include "storage/forkbase_engine.h"

namespace mlcask::pipeline {
namespace {

class UnifiedCacheTest : public ::testing::Test {
 protected:
  UnifiedCacheTest() : executor_(&registry_, &engine_, &clock_) {
    MLCASK_CHECK_OK(sim::RegisterWorkloadLibraries(&registry_));
    auto w = sim::MakeWorkload("readmission", 0.05);
    MLCASK_CHECK_OK(w.status());
    chain_ = w->initial;
  }

  LibraryRegistry registry_;
  storage::ForkBaseEngine engine_;
  SimClock clock_;
  Executor executor_;
  Pipeline chain_;
};

TEST_F(UnifiedCacheTest, ChainKeyMatchesFoldedNodeKey) {
  std::vector<const ComponentVersionSpec*> specs;
  for (const auto& c : chain_.components()) specs.push_back(&c);
  std::vector<Hash256> parents;
  Hash256 key;
  for (const ComponentVersionSpec* spec : specs) {
    key = Executor::NodeKey(*spec, parents);
    parents.assign(1, key);
  }
  EXPECT_EQ(key, Executor::ChainKey(specs));
  // Prefix keys differ from the full key (order- and length-sensitive).
  std::vector<const ComponentVersionSpec*> prefix(specs.begin(),
                                                  specs.end() - 1);
  EXPECT_NE(Executor::ChainKey(prefix), Executor::ChainKey(specs));
}

TEST_F(UnifiedCacheTest, SeededChainCheckpointServesDagRun) {
  // A checkpoint seeded under its chain key (as merge does from commit
  // history) must be visible to a DAG run of the same pipeline.
  auto prefix_run = executor_.Run(chain_, {});
  ASSERT_TRUE(prefix_run.ok());
  uint64_t execs = executor_.executions();

  Executor fresh(&registry_, &engine_, &clock_);
  std::vector<ComponentVersionSpec> specs = chain_.components();
  std::vector<const ComponentVersionSpec*> ptrs;
  for (const auto& s : specs) ptrs.push_back(&s);
  ArtifactCache::EntryPtr full = executor_.FindCachedEntry(ptrs);
  ASSERT_NE(full, nullptr);
  fresh.SeedCache(Executor::ChainKey(ptrs), full->table, prefix_run->score,
                  "score", Hash256{});
  auto dag = fresh.Run(chain_, {});
  ASSERT_TRUE(dag.ok());
  EXPECT_TRUE(dag->components.back().reused);
  EXPECT_EQ(fresh.executions(), 0u);
  (void)execs;
}

}  // namespace
}  // namespace mlcask::pipeline
