#ifndef MLCASK_STORAGE_CHUNKER_H_
#define MLCASK_STORAGE_CHUNKER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mlcask::storage {

/// Splits a byte stream into chunks for content-addressable storage.
class Chunker {
 public:
  virtual ~Chunker() = default;

  /// Returns the boundaries of `data` as (offset, length) pairs covering the
  /// whole input in order. Empty input yields no chunks.
  virtual std::vector<std::pair<size_t, size_t>> Split(
      std::string_view data) const = 0;

  virtual std::string Name() const = 0;
};

/// Fixed-size chunking: simple, but an insertion near the front of a blob
/// shifts every later boundary, destroying de-duplication. Kept as the
/// ablation baseline for the chunking design choice (DESIGN.md §7.1).
class FixedChunker : public Chunker {
 public:
  explicit FixedChunker(size_t chunk_size = 4096);

  std::vector<std::pair<size_t, size_t>> Split(
      std::string_view data) const override;
  std::string Name() const override { return "fixed"; }

  size_t chunk_size() const { return chunk_size_; }

 private:
  size_t chunk_size_;
};

/// The store chunker's bounds in bytes: every ForkBaseEngine built without
/// an explicit chunker cuts with them, and a value's chunk recipe
/// (storage/blob.h, PlanFromRecipe) is planned and checked against them.
inline constexpr size_t kStoreChunkMinBytes = 1024;
inline constexpr size_t kStoreChunkAvgBytes = 4096;
inline constexpr size_t kStoreChunkMaxBytes = 16384;

/// Content-defined chunking with a Gear rolling hash (the scheme used by
/// FastCDC-family systems and, in spirit, ForkBase's POS-tree boundary
/// detection). Boundaries depend only on local content, so an edit in one
/// region leaves boundaries elsewhere intact — this is what gives MLCask its
/// chunk-level de-duplication across library/output versions (Sec. VII-C).
class GearChunker : public Chunker {
 public:
  /// `avg_size` must be a power of two; boundaries are declared when the
  /// rolling hash has log2(avg_size) leading zero bits, subject to
  /// [min_size, max_size] clamping.
  GearChunker(size_t min_size = kStoreChunkMinBytes,
              size_t avg_size = kStoreChunkAvgBytes,
              size_t max_size = kStoreChunkMaxBytes);

  std::vector<std::pair<size_t, size_t>> Split(
      std::string_view data) const override;
  std::string Name() const override { return "gear-cdc"; }

  size_t min_size() const { return min_size_; }
  size_t avg_size() const { return avg_size_; }
  size_t max_size() const { return max_size_; }

 private:
  size_t min_size_;
  size_t avg_size_;
  size_t max_size_;
  uint64_t mask_;
  std::vector<uint64_t> gear_table_;
};

/// The store chunker: a GearChunker with the kStoreChunk* bounds. Its cuts
/// are a pure function of the bytes, so a sender that plans a value with it
/// and a shard that stores the value with it agree chunk for chunk.
const GearChunker& StoreChunker();

/// True when `chunker` cuts every input exactly as StoreChunker() does.
bool CutsLikeStoreChunker(const Chunker& chunker);

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_CHUNKER_H_
