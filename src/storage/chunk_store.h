#ifndef MLCASK_STORAGE_CHUNK_STORE_H_
#define MLCASK_STORAGE_CHUNK_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/sha256.h"
#include "common/status.h"
#include "storage/chunk.h"

namespace mlcask::storage {

/// De-duplication accounting. `logical` counts bytes as written by clients;
/// `physical` counts bytes actually retained (each distinct chunk once).
struct ChunkStoreStats {
  uint64_t logical_bytes = 0;
  uint64_t physical_bytes = 0;
  uint64_t puts = 0;
  uint64_t dedup_hits = 0;
  uint64_t distinct_chunks = 0;
  uint64_t gets = 0;

  /// logical/physical; 1.0 when nothing de-duplicated.
  double DedupRatio() const {
    return physical_bytes == 0
               ? 1.0
               : static_cast<double>(logical_bytes) /
                     static_cast<double>(physical_bytes);
  }
};

/// An in-memory content-addressable store with reference counts. This is the
/// bottom layer of the ForkBase-style engine: identical chunks are stored
/// once regardless of which object, version, or branch wrote them.
///
/// Thread safety: the chunk map itself is NOT internally synchronized — the
/// owning engine serializes mutations (Put/Release/Restore) behind its
/// writer lock and allows concurrent readers (Get/Contains) behind its
/// reader lock. The stats counters ARE internally synchronized, because the
/// read path bumps `gets` even when the caller only holds a reader lock.
class ChunkStore {
 public:
  ChunkStore() = default;

  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  /// Stores a chunk (no-op apart from refcount/stats if already present) and
  /// returns its address.
  Hash256 Put(ChunkType type, std::string_view data);

  /// Same, but with the address precomputed by the caller (via
  /// Chunk::ComputeHash(type, data)) — lets engines hash outside their
  /// write lock. `hash` MUST match the data. Returns true when the chunk
  /// was new to the store, false when it de-duplicated.
  bool PutPrehashed(const Hash256& hash, ChunkType type,
                    std::string_view data);

  /// Looks up a chunk by address.
  StatusOr<const Chunk*> Get(const Hash256& hash) const;

  bool Contains(const Hash256& hash) const;

  /// Adds one reference to a stored chunk without its bytes, accounted
  /// exactly like a PutPrehashed of the same chunk that de-duplicates
  /// (`puts`, `logical_bytes` and `dedup_hits` grow). Returns NotFound if
  /// the address is unknown.
  Status Retain(const Hash256& hash);

  /// Drops one reference; the chunk is erased when its count reaches zero.
  /// Returns NotFound if the address is unknown.
  Status Release(const Hash256& hash);

  uint64_t RefCount(const Hash256& hash) const;

  /// Visits every stored chunk with its reference count (iteration order is
  /// unspecified). Used by persistence to snapshot the store.
  void ForEachChunk(
      const std::function<void(const Chunk&, uint64_t refs)>& fn) const;

  /// Restores a chunk with an explicit reference count; used when loading a
  /// persisted store, which has already checked `hash` against the bytes
  /// (`hash` MUST be Chunk::ComputeHash(type, data), as for PutPrehashed).
  /// Fails if the chunk already exists.
  Status RestoreChunk(const Hash256& hash, ChunkType type,
                      std::string_view data, uint64_t refs);

  ChunkStoreStats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }
  size_t size() const { return chunks_.size(); }

 private:
  struct Entry {
    std::unique_ptr<Chunk> chunk;
    uint64_t refs = 0;
  };

  std::unordered_map<Hash256, Entry, Hash256Hasher> chunks_;
  mutable std::mutex stats_mu_;
  mutable ChunkStoreStats stats_;
};

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_CHUNK_STORE_H_
