#ifndef MLCASK_STORAGE_PERSISTENCE_H_
#define MLCASK_STORAGE_PERSISTENCE_H_

#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "storage/forkbase_engine.h"

namespace mlcask::storage {

/// Durable checkpoint/restore for the ForkBase engine.
///
/// On-disk layout under `dir`:
///   manifest.json               — version index (key -> version ids), blob
///                                 handles, per-chunk refcounts, engine stats
///   chunks/<hh>/<hash>.chunk    — one file per distinct chunk; the payload
///                                 is the raw chunk bytes prefixed with a
///                                 one-byte type tag, fanned out by the
///                                 first hex byte of the address
///
/// The manifest is written to a temporary file and atomically renamed, so a
/// crash mid-save leaves the previous checkpoint intact. Chunk files are
/// content-addressed and immutable, so re-saving an engine only writes
/// chunks that are new since the last checkpoint (incremental backups for
/// free — the same de-duplication argument as the in-memory store).
Status SaveEngine(const ForkBaseEngine& engine, const std::string& dir);

/// Loads a checkpoint into a fresh engine (with the given time model).
/// Verifies every chunk against its content address and fails with
/// Corruption on any mismatch or missing file.
StatusOr<std::unique_ptr<ForkBaseEngine>> LoadEngine(
    const std::string& dir,
    StorageTimeModel time_model = {.per_put_latency_s = 0.1,
                                   .write_mb_per_s = 150.0,
                                   .read_mb_per_s = 300.0,
                                   .chunking_s_per_mb = 0.002});

/// A ForkBaseEngine that survives its process: every mutation is followed
/// by a checkpoint of the whole engine into `dir` before the call returns,
/// and Open() restores the latest checkpoint when one exists. Checkpoints
/// are atomic (manifest written via rename, see SaveEngine) and
/// incremental (content-addressed chunk files are immutable), so the
/// per-mutation cost is one manifest rewrite plus only the bytes the
/// mutation actually added.
///
/// This is the durability backing the chaos drills: a SIGKILLed shard
/// restarted on the same dir comes back with every ACKNOWLEDGED write —
/// including staged `__2pc__/` intents and the coordinator's commit
/// decision, which is exactly what router-level recovery
/// (ShardedStorageEngine::RecoverTwoPhase) replays or fences. A mutation
/// whose checkpoint fails returns the checkpoint error: an un-persisted
/// write is never acknowledged. Mutations run one at a time, each together
/// with its checkpoint, so concurrent writers neither race on the manifest's
/// temporary file nor let an older checkpoint replace a newer one; reads
/// go straight to the inner engine.
class DurableForkBaseEngine : public StorageEngine {
 public:
  /// Creates `dir` if needed; loads the checkpoint inside it if present,
  /// otherwise starts empty.
  static StatusOr<std::unique_ptr<DurableForkBaseEngine>> Open(
      const std::string& dir);

  StatusOr<PutResult> Put(const std::string& key,
                          std::string_view data) override;
  StatusOr<std::vector<PutResult>> PutMany(
      const std::vector<PutRequest>& batch) override;
  /// The inner engine's recipe commits, then a checkpoint (as Put).
  StatusOr<PutResult> PutWithRecipe(const std::string& key,
                                    std::string_view data,
                                    std::string_view index) override;
  StatusOr<std::vector<PutResult>> PutManyWithRecipes(
      const std::vector<RecipePut>& batch) override;
  /// The inner engine's chunk-sharing copy, then a checkpoint (as Put).
  StatusOr<PutResult> CopyVersion(const std::string& key,
                                  const Hash256& source) override;
  StatusOr<std::string> Get(const std::string& key) override;
  StatusOr<std::string> GetVersion(const Hash256& id) override;
  StatusOr<std::string> GetWithRecipe(const std::string& key,
                                      std::string* index) override;
  StatusOr<std::string> GetVersionWithRecipe(const Hash256& id,
                                             std::string* index) override;
  bool HasVersion(const Hash256& id) const override;
  std::vector<Hash256> Versions(const std::string& key) const override;
  std::vector<std::pair<std::string, Hash256>> ListAllVersions()
      const override;
  StatusOr<uint64_t> DeleteVersion(const Hash256& id) override;
  /// One checkpoint per BATCH, not per version: a rebalance replaying
  /// thousands of versions would otherwise rewrite the manifest for each.
  /// A crash mid-batch loses only unacknowledged applies, which the
  /// migration driver replays idempotently from its durable cursor.
  StatusOr<MigrateBatchResult> MigrateBatch(
      const std::vector<MigrateKeyVersions>& batch) override;
  EngineStats stats() const override;
  std::string Name() const override;
  double ReadCost(uint64_t bytes) const override;
  // The Async* defaults (inline execution) inherit the inner engine's
  // semantics exactly: ForkBase has no wire to overlap.

  const std::string& dir() const { return dir_; }

 private:
  DurableForkBaseEngine(std::unique_ptr<ForkBaseEngine> inner,
                        std::string dir)
      : inner_(std::move(inner)), dir_(std::move(dir)) {}

  std::unique_ptr<ForkBaseEngine> inner_;
  std::string dir_;
  /// Held across each mutation and its SaveEngine checkpoint, which reads
  /// the inner engine's maps without their lock.
  std::mutex write_mu_;
};

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_PERSISTENCE_H_
