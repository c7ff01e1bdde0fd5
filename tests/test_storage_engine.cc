#include "storage/storage_engine.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "storage/blob.h"
#include "storage/branch_table.h"
#include "storage/forkbase_engine.h"
#include "storage/local_dir_engine.h"
#include "storage/persistence.h"

namespace mlcask::storage {
namespace {

std::string RandomBytes(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.NextU32() & 0xff);
  return out;
}

/// A fresh directory under the system temp dir, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("mlcask_engine_" + name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

template <typename Engine>
class StorageEngineTest : public ::testing::Test {
 protected:
  Engine engine_;
};

using EngineTypes = ::testing::Types<ForkBaseEngine, LocalDirEngine>;
TYPED_TEST_SUITE(StorageEngineTest, EngineTypes);

TYPED_TEST(StorageEngineTest, PutGetRoundTrip) {
  auto put = this->engine_.Put("model.bin", "weights-v1");
  ASSERT_TRUE(put.ok());
  auto got = this->engine_.Get("model.bin");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "weights-v1");
}

TYPED_TEST(StorageEngineTest, GetLatestAfterMultiplePuts) {
  ASSERT_TRUE(this->engine_.Put("k", "v1").ok());
  ASSERT_TRUE(this->engine_.Put("k", "v2").ok());
  auto got = this->engine_.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v2");
}

TYPED_TEST(StorageEngineTest, GetVersionByContentId) {
  auto p1 = this->engine_.Put("k", "v1");
  auto p2 = this->engine_.Put("k", "v2");
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_NE(p1->id, p2->id);
  EXPECT_EQ(*this->engine_.GetVersion(p1->id), "v1");
  EXPECT_EQ(*this->engine_.GetVersion(p2->id), "v2");
  EXPECT_TRUE(this->engine_.HasVersion(p1->id));
}

TYPED_TEST(StorageEngineTest, VersionsListedInOrder) {
  auto p1 = this->engine_.Put("k", "a");
  auto p2 = this->engine_.Put("k", "b");
  auto p3 = this->engine_.Put("k", "c");
  ASSERT_TRUE(p1.ok() && p2.ok() && p3.ok());
  std::vector<Hash256> versions = this->engine_.Versions("k");
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[0], p1->id);
  EXPECT_EQ(versions[2], p3->id);
  EXPECT_TRUE(this->engine_.Versions("unknown").empty());
}

TYPED_TEST(StorageEngineTest, MissingKeyIsNotFound) {
  EXPECT_TRUE(this->engine_.Get("nope").status().IsNotFound());
  Hash256 h;
  EXPECT_TRUE(this->engine_.GetVersion(h).status().IsNotFound());
  EXPECT_FALSE(this->engine_.HasVersion(h));
}

TYPED_TEST(StorageEngineTest, StatsAccumulate) {
  ASSERT_TRUE(this->engine_.Put("k", "0123456789").ok());
  const EngineStats& s = this->engine_.stats();
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.logical_bytes, 10u);
  EXPECT_GT(s.storage_time_s, 0.0);
}

TEST(ForkBaseEngineTest, RepeatedContentDeduplicated) {
  ForkBaseEngine engine;
  std::string data = RandomBytes(100000, 1);
  auto p1 = engine.Put("output/step1", data);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1->new_physical_bytes >= data.size(), true);  // data + index
  auto p2 = engine.Put("output/step1-copy", data);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2->new_physical_bytes, 0u);
  EXPECT_TRUE(p2->deduplicated);
  // Physical grows once, logical twice.
  EXPECT_GE(engine.stats().logical_bytes, 2 * data.size());
  EXPECT_LT(engine.stats().physical_bytes, data.size() + data.size() / 2);
}

TEST(ForkBaseEngineTest, SimilarVersionsShareChunks) {
  ForkBaseEngine engine;
  std::string v1 = RandomBytes(200000, 2);
  std::string v2 = v1;
  v2.replace(100000, 10, "newfeature");
  ASSERT_TRUE(engine.Put("lib/feature_extract", v1).ok());
  auto p2 = engine.Put("lib/feature_extract", v2);
  ASSERT_TRUE(p2.ok());
  // The second version should add only a small fraction of its size.
  EXPECT_LT(p2->new_physical_bytes, v2.size() / 4);
  EXPECT_GT(engine.chunk_stats().DedupRatio(), 1.5);
}

TEST(ForkBaseEngineTest, DedupSavesStorageTime) {
  ForkBaseEngine engine;
  std::string data = RandomBytes(500000, 3);
  auto p1 = engine.Put("a", data);
  auto p2 = engine.Put("b", data);
  ASSERT_TRUE(p1.ok() && p2.ok());
  // Second write transfers no new bytes -> cheaper than the first
  // (still pays latency + chunking).
  EXPECT_LT(p2->storage_time_s, p1->storage_time_s);
}

TEST(LocalDirEngineTest, NeverDeduplicates) {
  LocalDirEngine engine;
  std::string data = RandomBytes(100000, 4);
  auto p1 = engine.Put("a", data);
  auto p2 = engine.Put("b", data);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(p2->new_physical_bytes, data.size());
  EXPECT_EQ(engine.stats().physical_bytes, 2 * data.size());
}

TEST(LocalDirEngineTest, FasterPerPutThanForkBase) {
  // The paper's Fig. 6: baselines materialize "almost instantaneously" while
  // MLCask takes a few seconds per write due to the immutable storage engine.
  LocalDirEngine local;
  ForkBaseEngine forkbase;
  std::string data = RandomBytes(1000000, 5);
  auto pl = local.Put("x", data);
  auto pf = forkbase.Put("x", data);
  ASSERT_TRUE(pl.ok() && pf.ok());
  EXPECT_LT(pl->storage_time_s, pf->storage_time_s);
}

// ------------------------------------------------------------ CopyVersion ---

TEST(ForkBaseEngineTest, CopyVersionGivesThePutResultOfATwinEngine) {
  // Two engines with the same history; one copies the staged version, the
  // other Puts the same bytes. Ids, accounting and chunk traffic must agree.
  ForkBaseEngine engine;
  ForkBaseEngine twin;
  const std::string data = RandomBytes(512 << 10, 6);
  for (ForkBaseEngine* e : {&engine, &twin}) {
    ASSERT_TRUE(e->Put("library/model", "v0").ok());
  }
  auto staged = engine.Put("__2pc__/txn0/s0/w0/library/model", data);
  ASSERT_TRUE(twin.Put("__2pc__/txn0/s0/w0/library/model", data).ok());
  ASSERT_TRUE(staged.ok());

  auto copied = engine.CopyVersion("library/model", staged->id);
  auto put = twin.Put("library/model", data);
  ASSERT_TRUE(copied.ok()) << copied.status();
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(copied->id, put->id);
  EXPECT_EQ(copied->logical_bytes, put->logical_bytes);
  EXPECT_EQ(copied->new_physical_bytes, 0u);
  EXPECT_EQ(copied->new_physical_bytes, put->new_physical_bytes);
  EXPECT_EQ(copied->deduplicated, put->deduplicated);
  EXPECT_DOUBLE_EQ(copied->storage_time_s, put->storage_time_s);
  EXPECT_EQ(engine.Versions("library/model"), twin.Versions("library/model"));

  // Compared before any read: reads also charge storage time.
  const EngineStats es = engine.stats();
  const EngineStats ts = twin.stats();
  EXPECT_EQ(es.puts, ts.puts);
  EXPECT_EQ(es.logical_bytes, ts.logical_bytes);
  EXPECT_EQ(es.physical_bytes, ts.physical_bytes);
  EXPECT_DOUBLE_EQ(es.storage_time_s, ts.storage_time_s);
  const ChunkStoreStats ec = engine.chunk_stats();
  const ChunkStoreStats tc = twin.chunk_stats();
  EXPECT_EQ(ec.puts, tc.puts);
  EXPECT_EQ(ec.logical_bytes, tc.logical_bytes);
  EXPECT_EQ(ec.dedup_hits, tc.dedup_hits);
  EXPECT_EQ(ec.physical_bytes, tc.physical_bytes);
  EXPECT_EQ(ec.distinct_chunks, tc.distinct_chunks);

  EXPECT_EQ(*engine.GetVersion(copied->id), data);
  EXPECT_EQ(*engine.Get("library/model"), data);

  // An unknown source is NotFound and adds nothing.
  Hash256 unknown;
  unknown.bytes[0] = 0x42;
  const uint64_t puts = engine.stats().puts;
  EXPECT_TRUE(engine.CopyVersion("target", unknown).status().IsNotFound());
  EXPECT_TRUE(engine.Versions("target").empty());
  EXPECT_EQ(engine.stats().puts, puts);
}

TEST(ForkBaseEngineTest, CopyVersionOutlivesItsSourceAndFreesWithIt) {
  ForkBaseEngine engine;
  ASSERT_TRUE(engine.Put("artifact/other", "unrelated").ok());
  const uint64_t physical_before = engine.stats().physical_bytes;
  const ChunkStoreStats chunks_before = engine.chunk_stats();

  const std::string data = RandomBytes(512 << 10, 7);
  auto staged = engine.Put("staging", data);
  ASSERT_TRUE(staged.ok());
  auto copied = engine.CopyVersion("target", staged->id);
  ASSERT_TRUE(copied.ok()) << copied.status();
  const uint64_t physical_with_both = engine.stats().physical_bytes;

  // The copy holds its own reference to every chunk: deleting the source
  // frees nothing and the copy still reads back whole.
  auto freed = engine.DeleteVersion(staged->id);
  ASSERT_TRUE(freed.ok());
  EXPECT_EQ(*freed, 0u);
  EXPECT_EQ(engine.stats().physical_bytes, physical_with_both);
  EXPECT_FALSE(engine.HasVersion(staged->id));
  EXPECT_EQ(*engine.GetVersion(copied->id), data);

  // Deleting the copy too returns every byte the put added.
  ASSERT_TRUE(engine.DeleteVersion(copied->id).ok());
  EXPECT_EQ(engine.stats().physical_bytes, physical_before);
  EXPECT_EQ(engine.chunk_stats().physical_bytes, chunks_before.physical_bytes);
  EXPECT_EQ(engine.chunk_stats().distinct_chunks,
            chunks_before.distinct_chunks);
}

TEST(ForkBaseEngineTest, CopyVersionOfABrokenBlobTakesNoReference) {
  ForkBaseEngine engine;
  auto put = engine.Put("k", RandomBytes(200000, 8));
  ASSERT_TRUE(put.ok());
  const BlobRef ref = engine.blobs().at(put->id);
  auto chunks = ListBlobChunks(engine.chunk_store(), ref);
  ASSERT_TRUE(chunks.ok());
  ASSERT_GE(chunks->size(), 2u);
  // Lose the blob's last data chunk, as a damaged store would.
  ASSERT_TRUE(engine.mutable_chunk_store()->Release(chunks->back()).ok());

  auto copied = engine.CopyVersion("k2", put->id);
  EXPECT_EQ(copied.status().code(), StatusCode::kCorruption) << copied.status();
  // Checked before retaining: the surviving chunks gained no reference.
  EXPECT_EQ(engine.chunk_store().RefCount(chunks->front()), 1u);
  EXPECT_EQ(engine.chunk_store().RefCount(ref.root), 1u);
  EXPECT_TRUE(engine.Versions("k2").empty());
}

TEST(LocalDirEngineTest, DefaultCopyVersionGivesThePutResult) {
  LocalDirEngine engine;
  LocalDirEngine twin;
  const std::string data = RandomBytes(4096, 9);
  auto staged = engine.Put("staging", data);
  ASSERT_TRUE(twin.Put("staging", data).ok());
  ASSERT_TRUE(staged.ok());
  auto copied = engine.CopyVersion("target", staged->id);
  auto put = twin.Put("target", data);
  ASSERT_TRUE(copied.ok() && put.ok());
  EXPECT_EQ(copied->id, put->id);
  EXPECT_EQ(copied->logical_bytes, put->logical_bytes);
  EXPECT_EQ(copied->new_physical_bytes, put->new_physical_bytes);
  EXPECT_EQ(*engine.GetVersion(copied->id), data);

  Hash256 unknown;
  unknown.bytes[0] = 0x43;
  EXPECT_TRUE(engine.CopyVersion("target", unknown).status().IsNotFound());
}

TEST(DurableForkBaseEngineTest, CopyVersionSurvivesReopen) {
  TempDir dir("copy");
  const std::string data = RandomBytes(300000, 10);
  Hash256 copy_id;
  {
    auto engine = DurableForkBaseEngine::Open(dir.path());
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto staged = (*engine)->Put("staging", data);
    ASSERT_TRUE(staged.ok());
    auto copied = (*engine)->CopyVersion("target", staged->id);
    ASSERT_TRUE(copied.ok()) << copied.status();
    ASSERT_TRUE((*engine)->DeleteVersion(staged->id).ok());
    copy_id = copied->id;
  }
  auto reopened = DurableForkBaseEngine::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->Versions("target"), std::vector<Hash256>{copy_id});
  auto got = (*reopened)->GetVersion(copy_id);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, data);
}

// ------------------------------------------- deleted keys leave the index ---

TEST(ForkBaseEngineTest, DeletingAKeysLastVersionDropsTheKey) {
  ForkBaseEngine engine;
  ForkBaseEngine fresh;
  for (int i = 0; i < 100; ++i) {
    auto put = engine.Put("__2pc__/txn" + std::to_string(i) + "/decision",
                          "commit");
    ASSERT_TRUE(put.ok());
    ASSERT_TRUE(engine.DeleteVersion(put->id).ok());
  }
  EXPECT_TRUE(engine.ListAllVersions().empty());
  EXPECT_EQ(engine.keys().size(), 0u);
  // An absent key gives ordinal 0, as an empty one did: ids do not move.
  auto again = engine.Put("__2pc__/txn7/decision", "commit");
  auto first = fresh.Put("__2pc__/txn7/decision", "commit");
  ASSERT_TRUE(again.ok() && first.ok());
  EXPECT_EQ(again->id, first->id);
}

TEST(LocalDirEngineTest, DeletingAKeysLastVersionDropsTheKey) {
  LocalDirEngine engine;
  for (int i = 0; i < 100; ++i) {
    auto put = engine.Put("__2pc__/txn" + std::to_string(i) + "/decision",
                          "commit");
    ASSERT_TRUE(put.ok());
    ASSERT_TRUE(engine.DeleteVersion(put->id).ok());
  }
  EXPECT_TRUE(engine.ListAllVersions().empty());
  EXPECT_EQ(engine.num_keys(), 0u);
  // A key that still holds a version stays.
  auto keep1 = engine.Put("artifact/keep", "a");
  auto keep2 = engine.Put("artifact/keep", "b");
  ASSERT_TRUE(keep1.ok() && keep2.ok());
  ASSERT_TRUE(engine.DeleteVersion(keep1->id).ok());
  EXPECT_EQ(engine.num_keys(), 1u);
  EXPECT_EQ(engine.Versions("artifact/keep"),
            std::vector<Hash256>{keep2->id});
}

TEST(DurableForkBaseEngineTest, DeletedKeysLeaveTheManifest) {
  TempDir dir("deleted_keys");
  {
    auto engine = DurableForkBaseEngine::Open(dir.path());
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE((*engine)->Put("artifact/kept", "kept").ok());
    for (int i = 0; i < 50; ++i) {
      auto put = (*engine)->Put(
          "__2pc__/txn" + std::to_string(i) + "/s0/w0/artifact/x", "staged");
      ASSERT_TRUE(put.ok());
      ASSERT_TRUE((*engine)->DeleteVersion(put->id).ok());
    }
  }
  std::ifstream manifest(dir.path() + "/manifest.json");
  std::stringstream text;
  text << manifest.rdbuf();
  ASSERT_NE(text.str().find("artifact/kept"), std::string::npos);
  EXPECT_EQ(text.str().find("__2pc__/"), std::string::npos);

  auto reopened = DurableForkBaseEngine::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto all = (*reopened)->ListAllVersions();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].first, "artifact/kept");
}

TEST(StorageTimeModelTest, WriteSecondsComposition) {
  StorageTimeModel m{.per_put_latency_s = 0.5,
                     .write_mb_per_s = 100.0,
                     .read_mb_per_s = 200.0,
                     .chunking_s_per_mb = 0.01};
  // 100 MB transferred, 200 MB logical: 0.5 + 1.0 + 2.0 = 3.5... wait:
  // transfer = 100e6/(100*1e6) = 1.0s; chunking = 0.01 * 200 = 2.0s.
  EXPECT_NEAR(m.WriteSeconds(100000000, 200000000), 3.5, 1e-9);
  EXPECT_NEAR(m.ReadSeconds(100000000), 0.5, 1e-9);
}

TEST(BranchTableTest, CreateMoveDelete) {
  BranchTable t;
  Hash256 a, b;
  a.bytes[0] = 1;
  b.bytes[0] = 2;
  ASSERT_TRUE(t.Create("master", a).ok());
  EXPECT_TRUE(t.Create("master", b).code() == StatusCode::kAlreadyExists);
  EXPECT_EQ(*t.Head("master"), a);
  ASSERT_TRUE(t.Move("master", b).ok());
  EXPECT_EQ(*t.Head("master"), b);
  EXPECT_TRUE(t.Move("dev", a).IsNotFound());
  t.Upsert("dev", a);
  EXPECT_TRUE(t.Exists("dev"));
  EXPECT_EQ(t.List(), (std::vector<std::string>{"dev", "master"}));
  ASSERT_TRUE(t.Delete("dev").ok());
  EXPECT_TRUE(t.Delete("dev").IsNotFound());
  EXPECT_TRUE(t.Head("dev").status().IsNotFound());
}

TEST(BranchTableTest, RejectsEmptyName) {
  BranchTable t;
  Hash256 a;
  EXPECT_TRUE(t.Create("", a).IsInvalidArgument());
}

}  // namespace
}  // namespace mlcask::storage
