// Micro/ablation benchmarks for the storage substrate: chunking and SHA-256
// throughput, the content-defined vs fixed-size de-duplication ablation
// (DESIGN.md §7.1), and blob write/read round trips.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "common/rng.h"
#include "common/sha256.h"
#include "common/sha256_internal.h"
#include "storage/blob.h"
#include "storage/chunk_store.h"
#include "storage/chunker.h"
#include "storage/forkbase_engine.h"
#include "storage/persistence.h"

namespace mlcask::storage {
namespace {

std::string RandomBytes(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.NextU32() & 0xff);
  return out;
}

void BM_FixedChunkerSplit(benchmark::State& state) {
  std::string data = RandomBytes(static_cast<size_t>(state.range(0)), 1);
  FixedChunker chunker(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.Split(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FixedChunkerSplit)->Arg(1 << 16)->Arg(1 << 20);

void BM_GearChunkerSplit(benchmark::State& state) {
  std::string data = RandomBytes(static_cast<size_t>(state.range(0)), 2);
  GearChunker chunker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.Split(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GearChunkerSplit)->Arg(1 << 16)->Arg(1 << 20);

void BM_Sha256(benchmark::State& state) {
  std::string data = RandomBytes(static_cast<size_t>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel(sha256_internal::HasShaNi() ? "sha-ni" : "portable");
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

/// Ablation: de-duplication ratio after a small edit, content-defined vs
/// fixed chunking. The counter "dedup_ratio" is logical/physical bytes after
/// writing the original and an edited copy — higher is better; CDC should
/// approach 2.0 while fixed chunking collapses toward 1.0.
template <typename ChunkerT>
void DedupAfterEdit(benchmark::State& state, size_t avg_chunk) {
  std::string data = RandomBytes(1 << 20, 3);
  std::string edited = data;
  edited.insert(1000, "EDIT");
  double ratio = 0;
  for (auto _ : state) {
    ChunkStore store;
    ChunkerT chunker(avg_chunk / 4, avg_chunk, avg_chunk * 4);
    WriteBlob(&store, chunker, data);
    WriteBlob(&store, chunker, edited);
    ratio = store.stats().DedupRatio();
    benchmark::DoNotOptimize(ratio);
  }
  state.counters["dedup_ratio"] = ratio;
}

void BM_DedupAfterEdit_Gear(benchmark::State& state) {
  DedupAfterEdit<GearChunker>(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_DedupAfterEdit_Gear)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_DedupAfterEdit_Fixed(benchmark::State& state) {
  std::string data = RandomBytes(1 << 20, 3);
  std::string edited = data;
  edited.insert(1000, "EDIT");
  double ratio = 0;
  for (auto _ : state) {
    ChunkStore store;
    FixedChunker chunker(static_cast<size_t>(state.range(0)));
    WriteBlob(&store, chunker, data);
    WriteBlob(&store, chunker, edited);
    ratio = store.stats().DedupRatio();
    benchmark::DoNotOptimize(ratio);
  }
  state.counters["dedup_ratio"] = ratio;
}
BENCHMARK(BM_DedupAfterEdit_Fixed)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_BlobWriteRead(benchmark::State& state) {
  std::string data = RandomBytes(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    ChunkStore store;
    GearChunker chunker;
    BlobWriteInfo info = WriteBlob(&store, chunker, data);
    auto back = ReadBlob(store, info.ref);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 2);
}
BENCHMARK(BM_BlobWriteRead)->Arg(1 << 16)->Arg(1 << 20);

void BM_CheckpointSaveLoad(benchmark::State& state) {
  // Durable checkpoint round trip for an engine holding versioned objects.
  ForkBaseEngine engine;
  std::string base = RandomBytes(static_cast<size_t>(state.range(0)), 9);
  for (int i = 0; i < 8; ++i) {
    std::string v = base;
    v[static_cast<size_t>(i) * 100 % v.size()] ^= 1;
    benchmark::DoNotOptimize(engine.Put("lib", v));
  }
  std::string dir = "/tmp/mlcask_bench_ckpt";
  for (auto _ : state) {
    std::filesystem::remove_all(dir);
    if (!SaveEngine(engine, dir).ok()) {
      state.SkipWithError("save failed");
      return;
    }
    auto loaded = LoadEngine(dir);
    if (!loaded.ok()) {
      state.SkipWithError("load failed");
      return;
    }
    benchmark::DoNotOptimize(loaded->get());
  }
  std::filesystem::remove_all(dir);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(engine.stats().physical_bytes));
}
BENCHMARK(BM_CheckpointSaveLoad)->Arg(1 << 16)->Arg(1 << 19);

void BM_ForkBasePutVersions(benchmark::State& state) {
  // Put N slightly-edited versions of the same object; measures the
  // steady-state versioned-write path with de-duplication.
  std::string base = RandomBytes(1 << 18, 5);
  for (auto _ : state) {
    ForkBaseEngine engine;
    std::string v = base;
    for (int i = 0; i < state.range(0); ++i) {
      v[static_cast<size_t>(1000 * i % v.size())] ^= 1;
      benchmark::DoNotOptimize(engine.Put("lib", v));
    }
  }
}
BENCHMARK(BM_ForkBasePutVersions)->Arg(4)->Arg(16);

void BM_ForkBaseCopyVersion(benchmark::State& state) {
  // The apply step of a two-phase commit on one shard: a 512 KiB value is
  // already staged, and each iteration applies it to the target key and
  // deletes the result again. Arg 1 applies by reference (CopyVersion
  // shares the staged chunks); arg 0 Puts the same bytes, which
  // de-duplicates fully but chunks and hashes the whole value first.
  const std::string value = RandomBytes(512 << 10, 6);
  const bool by_reference = state.range(0) != 0;
  ForkBaseEngine engine;
  auto staged = engine.Put("__2pc__/txn0/s0/w0/library/model", value);
  if (!staged.ok()) {
    state.SkipWithError("staging put failed");
    return;
  }
  for (auto _ : state) {
    auto applied = by_reference
                       ? engine.CopyVersion("library/model", staged->id)
                       : engine.Put("library/model", value);
    benchmark::DoNotOptimize(engine.DeleteVersion(applied->id));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(value.size()));
  state.SetLabel(by_reference ? "copy+delete" : "put+delete");
}
BENCHMARK(BM_ForkBaseCopyVersion)->Arg(0)->Arg(1);

}  // namespace
}  // namespace mlcask::storage

BENCHMARK_MAIN();
