#include "storage/persistence.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace mlcask::storage {
namespace {

namespace fs = std::filesystem;

std::string RandomBytes(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.NextU32() & 0xff);
  return out;
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mlcask_persist_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  fs::path dir_;
};

TEST_F(PersistenceTest, SaveLoadRoundTrip) {
  ForkBaseEngine engine;
  std::string blob_a = RandomBytes(120000, 1);
  std::string blob_b = blob_a;
  blob_b.insert(500, "edited");
  auto p1 = engine.Put("lib/feature_extract", blob_a);
  auto p2 = engine.Put("lib/feature_extract", blob_b);
  auto p3 = engine.Put("artifact/out", "small output");
  ASSERT_TRUE(p1.ok() && p2.ok() && p3.ok());

  ASSERT_TRUE(SaveEngine(engine, dir()).ok());
  auto loaded = LoadEngine(dir());
  ASSERT_TRUE(loaded.ok());

  // Versions, contents, and latest-version semantics survive.
  EXPECT_EQ((*loaded)->Versions("lib/feature_extract").size(), 2u);
  EXPECT_EQ(*(*loaded)->GetVersion(p1->id), blob_a);
  EXPECT_EQ(*(*loaded)->GetVersion(p2->id), blob_b);
  EXPECT_EQ(*(*loaded)->Get("lib/feature_extract"), blob_b);
  EXPECT_EQ(*(*loaded)->Get("artifact/out"), "small output");

  // De-duplication state (physical bytes, distinct chunks) survives.
  EXPECT_EQ((*loaded)->stats().physical_bytes, engine.stats().physical_bytes);
  EXPECT_EQ((*loaded)->stats().logical_bytes, engine.stats().logical_bytes);
  EXPECT_EQ((*loaded)->chunk_stats().distinct_chunks,
            engine.chunk_stats().distinct_chunks);
}

TEST_F(PersistenceTest, LoadedEngineKeepsDeduplicating) {
  ForkBaseEngine engine;
  std::string data = RandomBytes(80000, 2);
  ASSERT_TRUE(engine.Put("k", data).ok());
  ASSERT_TRUE(SaveEngine(engine, dir()).ok());
  auto loaded = LoadEngine(dir());
  ASSERT_TRUE(loaded.ok());
  // Re-putting the same content into the loaded engine is fully dedup'd —
  // the chunk index survived, not just the bytes.
  auto again = (*loaded)->Put("k2", data);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->new_physical_bytes, 0u);
}

TEST_F(PersistenceTest, IncrementalSaveOnlyAddsNewChunks) {
  ForkBaseEngine engine;
  ASSERT_TRUE(engine.Put("k", RandomBytes(100000, 3)).ok());
  ASSERT_TRUE(SaveEngine(engine, dir()).ok());
  size_t files_before = 0;
  for (auto& p : fs::recursive_directory_iterator(dir() + "/chunks")) {
    if (p.is_regular_file()) ++files_before;
  }
  // Save again without changes: chunk files are content-addressed, so the
  // second save writes no new chunk files.
  ASSERT_TRUE(SaveEngine(engine, dir()).ok());
  size_t files_after = 0;
  for (auto& p : fs::recursive_directory_iterator(dir() + "/chunks")) {
    if (p.is_regular_file()) ++files_after;
  }
  EXPECT_EQ(files_after, files_before);

  // A new object adds only its chunks.
  ASSERT_TRUE(engine.Put("k2", RandomBytes(50000, 4)).ok());
  ASSERT_TRUE(SaveEngine(engine, dir()).ok());
  size_t files_final = 0;
  for (auto& p : fs::recursive_directory_iterator(dir() + "/chunks")) {
    if (p.is_regular_file()) ++files_final;
  }
  EXPECT_GT(files_final, files_after);
}

TEST_F(PersistenceTest, DetectsChunkCorruption) {
  ForkBaseEngine engine;
  ASSERT_TRUE(engine.Put("k", RandomBytes(60000, 5)).ok());
  ASSERT_TRUE(SaveEngine(engine, dir()).ok());
  // Flip a byte in some chunk file.
  for (auto& p : fs::recursive_directory_iterator(dir() + "/chunks")) {
    if (p.is_regular_file()) {
      std::fstream f(p.path(), std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(10);
      char c;
      f.seekg(10);
      f.get(c);
      f.seekp(10);
      f.put(static_cast<char>(c ^ 0x5a));
      break;
    }
  }
  auto loaded = LoadEngine(dir());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(PersistenceTest, DetectsMissingChunkFile) {
  ForkBaseEngine engine;
  ASSERT_TRUE(engine.Put("k", RandomBytes(60000, 6)).ok());
  ASSERT_TRUE(SaveEngine(engine, dir()).ok());
  for (auto& p : fs::recursive_directory_iterator(dir() + "/chunks")) {
    if (p.is_regular_file()) {
      fs::remove(p.path());
      break;
    }
  }
  EXPECT_FALSE(LoadEngine(dir()).ok());
}

TEST_F(PersistenceTest, LoadFromMissingDirFails) {
  EXPECT_TRUE(LoadEngine(dir() + "/nowhere").status().IsNotFound());
}

TEST_F(PersistenceTest, RejectsGarbageManifest) {
  fs::create_directories(dir());
  std::ofstream(dir() + "/manifest.json") << "{not json";
  EXPECT_FALSE(LoadEngine(dir()).ok());
  std::ofstream(dir() + "/manifest.json", std::ios::trunc) << "{\"format\":9}";
  auto loaded = LoadEngine(dir());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(PersistenceTest, DeleteAfterReloadStillWorks) {
  ForkBaseEngine engine;
  auto keep = engine.Put("a", RandomBytes(40000, 7));
  auto drop = engine.Put("b", RandomBytes(40000, 8));
  ASSERT_TRUE(keep.ok() && drop.ok());
  ASSERT_TRUE(SaveEngine(engine, dir()).ok());
  auto loaded = LoadEngine(dir());
  ASSERT_TRUE(loaded.ok());
  auto freed = (*loaded)->DeleteVersion(drop->id);
  ASSERT_TRUE(freed.ok());
  EXPECT_GT(*freed, 0u);
  EXPECT_TRUE((*loaded)->GetVersion(keep->id).ok());
  EXPECT_FALSE((*loaded)->HasVersion(drop->id));
}

// Concurrent writers on one durable engine: each mutation checkpoints the
// whole engine, so unserialized writers race on the manifest's temporary
// file (a failed rename surfaces as a failed write) and on the maps the
// checkpoint reads. Every call must succeed, and every acknowledged
// version must survive a reopen.
TEST_F(PersistenceTest, ConcurrentDurablePutsAllSucceedAndSurviveReopen) {
  constexpr size_t kThreads = 4;
  constexpr size_t kPutsPerThread = 50;
  std::vector<std::vector<Hash256>> ids(kThreads);
  std::vector<size_t> failures(kThreads, 0);
  {
    auto engine = DurableForkBaseEngine::Open(dir());
    ASSERT_TRUE(engine.ok());
    std::vector<std::thread> writers;
    for (size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (size_t i = 0; i < kPutsPerThread; ++i) {
          auto put = (*engine)->Put(
              "k" + std::to_string(t) + "_" + std::to_string(i),
              RandomBytes(2000, 100 * t + i));
          if (put.ok()) {
            ids[t].push_back(put->id);
          } else {
            ++failures[t];
          }
        }
      });
    }
    for (std::thread& w : writers) w.join();
  }
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0u) << "writer " << t;
  }
  auto reopened = DurableForkBaseEngine::Open(dir());
  ASSERT_TRUE(reopened.ok());
  size_t present = 0;
  for (const std::vector<Hash256>& list : ids) {
    for (const Hash256& id : list) present += (*reopened)->HasVersion(id);
  }
  EXPECT_EQ(present, kThreads * kPutsPerThread);
}

}  // namespace
}  // namespace mlcask::storage
