#ifndef MLCASK_STORAGE_STORAGE_ENGINE_H_
#define MLCASK_STORAGE_STORAGE_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/sha256.h"
#include "common/status.h"
#include "storage/deferred.h"

namespace mlcask::storage {

/// Cost model for data preparation and transfer. The paper's "storage time"
/// (Sec. VII-B) is exactly this: time to materialize outputs into the backing
/// store. ForkBase pays chunking + immutable-commit overhead but only
/// transfers bytes that are new; folder archival transfers everything but has
/// negligible per-op cost.
struct StorageTimeModel {
  double per_put_latency_s = 0.0;
  double write_mb_per_s = 200.0;
  double read_mb_per_s = 400.0;
  /// Cost per *logical* MB of hashing/chunking work (ForkBase only).
  double chunking_s_per_mb = 0.0;

  double WriteSeconds(uint64_t transferred_bytes,
                      uint64_t logical_bytes) const {
    return per_put_latency_s +
           static_cast<double>(transferred_bytes) / (write_mb_per_s * 1e6) +
           chunking_s_per_mb * static_cast<double>(logical_bytes) / 1e6;
  }
  double ReadSeconds(uint64_t bytes) const {
    return static_cast<double>(bytes) / (read_mb_per_s * 1e6);
  }
};

/// One write of a multi-key batch (StorageEngine::PutMany).
struct PutRequest {
  std::string key;
  std::string data;
};

/// Result of storing one object version.
struct PutResult {
  Hash256 id;                      ///< Content id of this object version.
  uint64_t logical_bytes = 0;      ///< Bytes the client wrote.
  uint64_t new_physical_bytes = 0; ///< Bytes the store actually added.
  double storage_time_s = 0;       ///< Modeled data-prep/transfer time.
  bool deduplicated = false;       ///< True if fully dedup'd (no new bytes).
};

/// One key's full version history inside a shard-rebalance batch, oldest
/// first. `versions` carries (expected content id, payload): replaying the
/// payloads in order onto an engine holding no prior versions of `key`
/// reproduces the ids bit-for-bit, because ids derive from the key, the
/// content, and the version ordinal — the invariant live migration rides on.
struct MigrateKeyVersions {
  std::string key;
  std::vector<std::pair<Hash256, std::string>> versions;
};

/// Outcome of one MigrateBatch call. `skipped_versions` counts versions the
/// destination already held — the visible signature of a migration that
/// RESUMED past its durable cursor instead of restarting from scratch.
struct MigrateBatchResult {
  uint64_t applied_versions = 0;
  uint64_t skipped_versions = 0;
};

/// Cumulative accounting across an engine's lifetime. `physical_bytes` is the
/// paper's cumulative storage size (CSS); `storage_time_s` accumulates into
/// cumulative storage time (CST).
struct EngineStats {
  uint64_t logical_bytes = 0;
  uint64_t physical_bytes = 0;
  double storage_time_s = 0;
  uint64_t puts = 0;
  uint64_t gets = 0;
};

/// A versioned named-object store. Each Put on a key appends a new immutable
/// version; versions are addressable by content id. This is the interface the
/// dataset/library/pipeline repositories ride on, and the axis along which
/// MLCask (ForkBase engine) differs from ModelDB/MLflow (folder archival).
///
/// Thread safety: implementations must tolerate concurrent calls from many
/// worker threads (the parallel ExecutionCore issues Put/Get from its pool).
/// `stats()` returns a consistent snapshot; totals observed after all
/// writers have joined equal the serial sums exactly.
class StorageEngine {
 public:
  virtual ~StorageEngine() = default;

  /// Stores a new version of `key`.
  virtual StatusOr<PutResult> Put(const std::string& key,
                                  std::string_view data) = 0;

  /// Stores a batch of writes, one new version per request, returning one
  /// PutResult per request in order. The default implementation applies the
  /// puts serially with no atomicity guarantee (a mid-batch failure leaves
  /// earlier writes in place). Distributed engines override this with an
  /// all-or-nothing protocol: ShardedStorageEngine runs a two-phase commit
  /// across the participating shards, which is how merge winners are
  /// persisted atomically (see sharded_engine.h).
  virtual StatusOr<std::vector<PutResult>> PutMany(
      const std::vector<PutRequest>& batch) {
    std::vector<PutResult> results;
    results.reserve(batch.size());
    for (const PutRequest& request : batch) {
      MLCASK_ASSIGN_OR_RETURN(PutResult result, Put(request.key, request.data));
      results.push_back(result);
    }
    return results;
  }

  /// Stores a new version of `key` holding the bytes of existing version
  /// `source` (of any key), returning exactly what Put(key, <those bytes>)
  /// would return on this engine — the same version id included, since ids
  /// derive from the key, the content and the key's version ordinal.
  /// NotFound if `source` is unknown. This is how the sharded router's
  /// two-phase commit applies a staged value by reference instead of
  /// sending it twice. The default reads the source and Puts it;
  /// ForkBaseEngine overrides it to share the source's chunks without
  /// touching the bytes.
  virtual StatusOr<PutResult> CopyVersion(const std::string& key,
                                          const Hash256& source) {
    MLCASK_ASSIGN_OR_RETURN(std::string data, GetVersion(source));
    return Put(key, data);
  }

  /// Reads the latest version of `key`.
  virtual StatusOr<std::string> Get(const std::string& key) = 0;

  /// Reads a specific version by content id.
  virtual StatusOr<std::string> GetVersion(const Hash256& id) = 0;

  /// True if a version with this content id exists.
  virtual bool HasVersion(const Hash256& id) const = 0;

  /// All version ids of `key`, oldest first.
  virtual std::vector<Hash256> Versions(const std::string& key) const = 0;

  /// Every stored (key, version id) pair, in unspecified order. Used by
  /// retention/garbage collection to find unreferenced artifacts.
  virtual std::vector<std::pair<std::string, Hash256>> ListAllVersions()
      const = 0;

  /// Deletes one object version, returning the physical bytes actually
  /// freed (on a de-duplicating engine, bytes still referenced by other
  /// versions are not freed). NotFound if the id is unknown.
  virtual StatusOr<uint64_t> DeleteVersion(const Hash256& id) = 0;

  /// Applies a shard-rebalance batch: for each entry, appends the versions
  /// this engine does not already hold, in order, verifying every resulting
  /// id against the source's. Idempotent by construction — an entry whose
  /// prefix already landed (a crash between the copy and the cursor write)
  /// is skipped, never duplicated — so migration drivers may replay batches
  /// freely after a failure. The destination may even hold MORE versions
  /// than the batch carries: a crash after the cursor write routes new
  /// writes of the key to this engine before the replayed batch arrives,
  /// so the batch is then a strict prefix of local history and is skipped
  /// whole. Internal error only when the overlapping prefix CONFLICTS (an
  /// id mismatch means the key was written outside the migration protocol
  /// and the copy must not proceed).
  virtual StatusOr<MigrateBatchResult> MigrateBatch(
      const std::vector<MigrateKeyVersions>& batch) {
    MigrateBatchResult result;
    for (const MigrateKeyVersions& entry : batch) {
      const std::vector<Hash256> existing = Versions(entry.key);
      const size_t overlap = std::min(existing.size(), entry.versions.size());
      for (size_t i = 0; i < overlap; ++i) {
        if (existing[i] != entry.versions[i].first) {
          return Status::Internal("migration id mismatch on existing '" +
                                  entry.key + "' version " +
                                  std::to_string(i) + ": have " +
                                  existing[i].ShortHex() + ", batch says " +
                                  entry.versions[i].first.ShortHex());
        }
      }
      if (existing.size() >= entry.versions.size()) {
        result.skipped_versions += entry.versions.size();
        continue;
      }
      result.skipped_versions += existing.size();
      for (size_t i = existing.size(); i < entry.versions.size(); ++i) {
        MLCASK_ASSIGN_OR_RETURN(PutResult put,
                                Put(entry.key, entry.versions[i].second));
        if (put.id != entry.versions[i].first) {
          return Status::Internal(
              "migrated version of '" + entry.key + "' landed as " +
              put.id.ShortHex() + " but the source recorded " +
              entry.versions[i].first.ShortHex() +
              " (version-ordinal divergence)");
        }
        ++result.applied_versions;
      }
    }
    return result;
  }

  virtual EngineStats stats() const = 0;
  virtual std::string Name() const = 0;

  /// Modeled seconds spent reading `bytes` back (charged by callers that
  /// account read traffic; Get itself also accumulates it into stats()).
  virtual double ReadCost(uint64_t bytes) const = 0;

  /// ## Async surface (fan-out callers)
  ///
  /// Issue-now-wait-later variants of the calls the sharded router fans out
  /// across shards (2PC prepare/apply, replicated puts, broadcast version
  /// probes): issuing one per shard before Get()ing any overlaps the round
  /// trips. The defaults below execute the blocking call INLINE at issue
  /// time and hand back a ready Deferred — correct (and deterministic) for
  /// local engines, zero burden on implementors. RemoteStorageEngine
  /// overrides them on Transport::AsyncCall so the request is on the wire
  /// when the Deferred exists; a decorator wrapping another engine should
  /// forward these along with the blocking calls, or its children fall back
  /// to serial issue.
  virtual Deferred<PutResult> AsyncPut(const std::string& key,
                                       std::string_view data) {
    return Deferred<PutResult>(Put(key, data));
  }
  virtual Deferred<std::vector<PutResult>> AsyncPutMany(
      const std::vector<PutRequest>& batch) {
    return Deferred<std::vector<PutResult>>(PutMany(batch));
  }
  virtual Deferred<PutResult> AsyncCopyVersion(const std::string& key,
                                               const Hash256& source) {
    return Deferred<PutResult>(CopyVersion(key, source));
  }
  virtual Deferred<std::string> AsyncGetVersion(const Hash256& id) {
    return Deferred<std::string>(GetVersion(id));
  }
  virtual Deferred<bool> AsyncHasVersion(const Hash256& id) const {
    return Deferred<bool>(StatusOr<bool>(HasVersion(id)));
  }
  virtual Deferred<uint64_t> AsyncDeleteVersion(const Hash256& id) {
    return Deferred<uint64_t>(DeleteVersion(id));
  }
  virtual Deferred<MigrateBatchResult> AsyncMigrateBatch(
      const std::vector<MigrateKeyVersions>& batch) {
    return Deferred<MigrateBatchResult>(MigrateBatch(batch));
  }
};

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_STORAGE_ENGINE_H_
