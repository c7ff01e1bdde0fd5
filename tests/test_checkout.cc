#include "pipeline/checkout.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "merge/search_space.h"
#include "merge/search_tree.h"
#include "sim/scenario.h"

namespace mlcask::pipeline {
namespace {

class CheckoutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d = sim::MakeDeployment("readmission", /*scale=*/0.08);
    MLCASK_CHECK_OK(d.status());
    deployment_ = std::move(d).value();
    MLCASK_CHECK_OK(sim::BuildTwoBranchScenario(deployment_.get()).status());
  }

  std::unique_ptr<sim::Deployment> deployment_;
};

TEST_F(CheckoutTest, MaterializeRebuildsHistoricalPipeline) {
  // Check out the dev head (an older, schema-evolved pipeline version).
  auto dev_head = deployment_->repo->Head("dev");
  ASSERT_TRUE(dev_head.ok());
  auto p = MaterializePipeline(**dev_head, *deployment_->libraries,
                               "readmission");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->IsChain());
  EXPECT_TRUE(p->CheckCompatibility().ok());
  const auto* fe = *p->Find("feature_extract");
  EXPECT_EQ(fe->version.ToString(), "1.0");
  const auto* cnn = *p->Find("cnn");
  EXPECT_EQ(cnn->version.ToString(), "0.3");
}

TEST_F(CheckoutTest, MaterializedPipelineIsRunnable) {
  auto root_commits =
      deployment_->repo->graph().Log((*deployment_->repo->Head("dev"))->id);
  const version::Commit* ancestor = root_commits.back();
  auto p = MaterializePipeline(*ancestor, *deployment_->libraries,
                               "readmission");
  ASSERT_TRUE(p.ok());
  // Retrospective re-run of the historical version with a fresh executor.
  Executor executor(deployment_->registry.get(), deployment_->engine.get(),
                    nullptr);
  ExecutorOptions opts;
  opts.store_outputs = false;
  auto run = executor.Run(*p, opts);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->has_score());
}

TEST_F(CheckoutTest, MaterializeFailsForUnknownLibraryVersion) {
  version::Commit fake;
  version::ComponentRecord rec;
  rec.name = "cnn";
  rec.version = *version::SemanticVersion::Parse("9.9");
  fake.snapshot.components.push_back(rec);
  EXPECT_TRUE(MaterializePipeline(fake, *deployment_->libraries, "x")
                  .status()
                  .IsNotFound());
}

TEST_F(CheckoutTest, SeedingOneCommitMakesRunFree) {
  auto head = deployment_->repo->Head("master");
  ASSERT_TRUE(head.ok());
  Executor executor(deployment_->registry.get(), deployment_->engine.get(),
                    nullptr);
  std::set<Hash256> keys;
  ASSERT_TRUE(SeedExecutorFromHistory({*head}, *deployment_->libraries,
                                      deployment_->engine.get(), &executor,
                                      &keys)
                  .ok());
  // One seeded prefix per component of the commit.
  EXPECT_EQ(keys.size(), (*head)->snapshot.components.size());

  auto p = MaterializePipeline(**head, *deployment_->libraries, "readmission");
  ASSERT_TRUE(p.ok());
  ExecutorOptions opts;
  opts.store_outputs = false;
  auto run = executor.Run(*p, opts);
  ASSERT_TRUE(run.ok());
  for (const auto& c : run->components) {
    EXPECT_TRUE(c.reused) << c.name;
  }
  EXPECT_EQ(executor.executions(), 0u);
  // Score and metric set are recovered from the commit.
  EXPECT_DOUBLE_EQ(run->score, (*head)->snapshot.score);
  EXPECT_EQ(run->metrics, (*head)->snapshot.metrics);
}

// Forwards every call to `inner` and counts the version reads.
class CountingEngine : public storage::StorageEngine {
 public:
  explicit CountingEngine(storage::StorageEngine* inner) : inner_(inner) {}

  StatusOr<storage::PutResult> Put(const std::string& key,
                                   std::string_view data) override {
    return inner_->Put(key, data);
  }
  StatusOr<std::string> Get(const std::string& key) override {
    return inner_->Get(key);
  }
  StatusOr<std::string> GetVersion(const Hash256& id) override {
    ++version_reads;
    return inner_->GetVersion(id);
  }
  bool HasVersion(const Hash256& id) const override {
    return inner_->HasVersion(id);
  }
  std::vector<Hash256> Versions(const std::string& key) const override {
    return inner_->Versions(key);
  }
  std::vector<std::pair<std::string, Hash256>> ListAllVersions()
      const override {
    return inner_->ListAllVersions();
  }
  StatusOr<uint64_t> DeleteVersion(const Hash256& id) override {
    return inner_->DeleteVersion(id);
  }
  storage::EngineStats stats() const override { return inner_->stats(); }
  std::string Name() const override { return inner_->Name(); }
  double ReadCost(uint64_t bytes) const override {
    return inner_->ReadCost(bytes);
  }

  int version_reads = 0;

 private:
  storage::StorageEngine* inner_;
};

// The seeding SeedExecutorFromHistory replaced, kept as the definition of
// the expected cache: each commit in turn, every prefix whose output the
// engine holds read and inserted, a later record's entry overwriting an
// earlier one's.
void SeedEachCommit(const std::vector<const version::Commit*>& history,
                    const LibraryRepo& libraries,
                    storage::StorageEngine* engine, Executor* executor,
                    std::set<Hash256>* keys) {
  for (const version::Commit* commit : history) {
    std::vector<const ComponentVersionSpec*> chain;
    const auto& records = commit->snapshot.components;
    for (size_t i = 0; i < records.size(); ++i) {
      chain.push_back(*libraries.Get(records[i].name, records[i].version));
      if (!records[i].has_output() ||
          !engine->HasVersion(records[i].output_id)) {
        continue;
      }
      auto table =
          data::Table::Deserialize(*engine->GetVersion(records[i].output_id));
      MLCASK_CHECK_OK(table.status());
      const bool is_full = i + 1 == records.size();
      const version::PipelineSnapshot& snap = commit->snapshot;
      executor->SeedCache(
          Executor::ChainKey(chain), *std::move(table),
          is_full ? snap.score : std::nan(""), is_full ? snap.metric : "",
          records[i].output_id,
          is_full ? snap.metrics : std::map<std::string, double>{});
      keys->insert(Executor::ChainKey(chain));
    }
  }
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// A merge history in which chains recur with different outputs: the Fig. 3
// history plus a copy of the dev head whose outputs are new versions (one of
// them deleted again, so the engine no longer holds it) and whose score is
// new. Seeding it once per key must leave what seeding each commit in turn
// leaves, from one read per distinct key.
TEST_F(CheckoutTest, SeedExecutorFromHistoryMatchesSeedingEachCommit) {
  version::PipelineRepo& repo = *deployment_->repo;
  auto ancestor = repo.CommonAncestor("master", "dev");
  ASSERT_TRUE(ancestor.ok());
  auto history = merge::MergeHistory(repo, "master", "dev", *ancestor);
  ASSERT_TRUE(history.ok());
  storage::StorageEngine* engine = deployment_->engine.get();

  version::Commit again = *history->back();
  again.snapshot.score += 1.0;
  size_t replaced = 0;
  for (size_t i = 0; i < again.snapshot.components.size(); ++i) {
    version::ComponentRecord& rec = again.snapshot.components[i];
    if (!rec.has_output()) continue;
    auto table = data::Table::Deserialize(*engine->GetVersion(rec.output_id));
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(table->AddDoubleColumn(
                         "again", std::vector<double>(table->num_rows(), 1.0))
                    .ok());
    auto put = engine->Put("test/again/" + rec.name, table->Serialize());
    ASSERT_TRUE(put.ok());
    rec.output_id = put->id;
    if (i == 0) {
      ASSERT_TRUE(engine->DeleteVersion(rec.output_id).ok());
      ASSERT_FALSE(engine->HasVersion(rec.output_id));
    }
    ++replaced;
  }
  ASSERT_GE(replaced, 2u);
  std::vector<const version::Commit*> commits = *history;
  commits.push_back(&again);

  Executor expected(deployment_->registry.get(), engine, nullptr);
  std::set<Hash256> expected_keys;
  SeedEachCommit(commits, *deployment_->libraries, engine, &expected,
                 &expected_keys);
  CountingEngine counting(engine);
  Executor seeded(deployment_->registry.get(), &counting, nullptr);
  std::set<Hash256> keys;
  ASSERT_TRUE(SeedExecutorFromHistory(commits, *deployment_->libraries,
                                      &counting, &seeded, &keys)
                  .ok());

  EXPECT_EQ(keys, expected_keys);
  EXPECT_EQ(counting.version_reads, static_cast<int>(keys.size()));
  size_t records_read_before = 0;
  for (const version::Commit* commit : commits) {
    for (const auto& rec : commit->snapshot.components) {
      if (rec.has_output() && engine->HasVersion(rec.output_id)) {
        ++records_read_before;
      }
    }
  }
  EXPECT_GT(records_read_before, keys.size());
  // One insertion per key now, one per record read before.
  EXPECT_EQ(seeded.cache_stats().insertions, keys.size());
  EXPECT_EQ(expected.cache_stats().insertions, records_read_before);
  EXPECT_EQ(seeded.cache_stats().bytes, expected.cache_stats().bytes);

  // Every prefix of every commit: the same entry, or none in both.
  bool saw_recurring_output = false;
  for (const version::Commit* commit : commits) {
    std::vector<const ComponentVersionSpec*> chain;
    for (const auto& rec : commit->snapshot.components) {
      chain.push_back(*deployment_->libraries->Get(rec.name, rec.version));
      ArtifactCache::EntryPtr a = seeded.FindCachedEntry(chain);
      ArtifactCache::EntryPtr b = expected.FindCachedEntry(chain);
      ASSERT_EQ(a == nullptr, b == nullptr) << commit->Label() << " " << rec.name;
      if (a == nullptr) continue;
      EXPECT_EQ(a->output_id, b->output_id);
      EXPECT_TRUE(SameBits(a->score, b->score));
      EXPECT_EQ(a->metric, b->metric);
      EXPECT_EQ(a->metrics, b->metrics);
      EXPECT_EQ(a->table.Serialize(), b->table.Serialize());
      if (commit == &again && a->output_id == rec.output_id) {
        saw_recurring_output = true;
      }
    }
  }
  EXPECT_TRUE(saw_recurring_output);
  // The deleted occurrence was skipped: its chain keeps the output of its
  // last earlier record.
  std::vector<const ComponentVersionSpec*> first = {*deployment_->libraries->Get(
      again.snapshot.components[0].name, again.snapshot.components[0].version)};
  ASSERT_NE(seeded.FindCachedEntry(first), nullptr);
  EXPECT_NE(seeded.FindCachedEntry(first)->output_id,
            again.snapshot.components[0].output_id);

  // The green nodes of the merge's search tree are the same.
  auto space = merge::BuildSearchSpace(repo, *deployment_->libraries, "master",
                                       "dev");
  ASSERT_TRUE(space.ok());
  auto mark = [](const std::set<Hash256>& seeded_keys) {
    return [&seeded_keys](const merge::CandidateChain& chain) {
      return seeded_keys.count(Executor::ChainKey(chain)) != 0;
    };
  };
  merge::PipelineSearchTree tree = merge::PipelineSearchTree::Build(*space);
  merge::PipelineSearchTree expected_tree =
      merge::PipelineSearchTree::Build(*space);
  const size_t marked = tree.MarkCheckpoints(mark(keys));
  EXPECT_EQ(marked, expected_tree.MarkCheckpoints(mark(expected_keys)));
  EXPECT_GT(marked, 0u);
}

}  // namespace
}  // namespace mlcask::pipeline
