#ifndef MLCASK_STORAGE_FORKBASE_ENGINE_H_
#define MLCASK_STORAGE_FORKBASE_ENGINE_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/blob.h"
#include "storage/chunk_store.h"
#include "storage/chunker.h"
#include "storage/storage_engine.h"

namespace mlcask::storage {

/// ForkBase-style immutable storage: objects are chunked with content-defined
/// chunking into a shared content-addressable store, so repeated or partially
/// repeated versions of libraries and component outputs are de-duplicated at
/// chunk granularity (paper Sec. VII-C: "MLCask applies chunk level
/// de-duplication supported by its ForkBase storage engine").
class ForkBaseEngine : public StorageEngine {
 public:
  /// Defaults mirror the paper's observation that ForkBase writes take
  /// noticeably longer than folder archival (Fig. 6's storage bars) while
  /// staying a small fraction of pipeline time: a per-commit latency plus
  /// chunking cost on top of transfer (de-duplicated bytes transfer free).
  explicit ForkBaseEngine(
      StorageTimeModel time_model = {.per_put_latency_s = 0.1,
                                     .write_mb_per_s = 150.0,
                                     .read_mb_per_s = 300.0,
                                     .chunking_s_per_mb = 0.002},
      std::unique_ptr<Chunker> chunker = nullptr);

  StatusOr<PutResult> Put(const std::string& key,
                          std::string_view data) override;
  /// Shares `source`'s chunks (one more reference each) instead of writing
  /// its bytes again; the id is the one a Put of those bytes would get.
  StatusOr<PutResult> CopyVersion(const std::string& key,
                                  const Hash256& source) override;
  StatusOr<std::string> Get(const std::string& key) override;
  StatusOr<std::string> GetVersion(const Hash256& id) override;
  bool HasVersion(const Hash256& id) const override;
  std::vector<Hash256> Versions(const std::string& key) const override;
  std::vector<std::pair<std::string, Hash256>> ListAllVersions() const override;
  StatusOr<uint64_t> DeleteVersion(const Hash256& id) override;

  EngineStats stats() const override {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }
  std::string Name() const override { return "forkbase"; }
  double ReadCost(uint64_t bytes) const override {
    return time_model_.ReadSeconds(bytes);
  }

  /// Chunk-level accounting (distinct chunks, dedup ratio).
  ChunkStoreStats chunk_stats() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return chunks_.stats();
  }

  // --- persistence access (storage/persistence.h) -------------------------

  const ChunkStore& chunk_store() const { return chunks_; }
  const std::unordered_map<Hash256, BlobRef, Hash256Hasher>& blobs() const {
    return blobs_;
  }
  const std::unordered_map<std::string, std::vector<Hash256>>& keys() const {
    return keys_;
  }

  /// Restores the version index from a persisted manifest (chunks are
  /// restored separately through the chunk store). Fails on duplicates.
  Status RestoreVersion(const std::string& key, const Hash256& id,
                        const BlobRef& ref);

  /// Overwrites the cumulative statistics (persisted alongside the data so
  /// CSS/CST accounting survives a restart).
  void RestoreStats(const EngineStats& stats) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = stats;
  }

  /// Mutable chunk-store access for restore. Restore runs single-threaded,
  /// before any worker touches the engine.
  ChunkStore* mutable_chunk_store() { return &chunks_; }

 private:
  StorageTimeModel time_model_;
  std::unique_ptr<Chunker> chunker_;
  // `mu_` guards the version maps and chunk store (shared for readers,
  // exclusive for writers); `stats_mu_` separately guards the cumulative
  // counters so hot read paths do not serialize on the map lock to account
  // their traffic.
  mutable std::shared_mutex mu_;
  mutable std::mutex stats_mu_;
  ChunkStore chunks_;
  // Version id -> blob handle; key -> version ids in insertion order.
  std::unordered_map<Hash256, BlobRef, Hash256Hasher> blobs_;
  std::unordered_map<std::string, std::vector<Hash256>> keys_;
  EngineStats stats_;
};

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_FORKBASE_ENGINE_H_
