#ifndef MLCASK_STORAGE_SHARDED_ENGINE_H_
#define MLCASK_STORAGE_SHARDED_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/storage_engine.h"

namespace mlcask::storage {

/// One epoch of the consistent-hash ring: the live shard slots and their
/// points on the 64-bit ring. Ring points derive from the SLOT index only
/// ("ring/<slot>#<vnode>"), so a slot's points never move across epochs —
/// adding a shard reassigns exactly the ranges its new points capture and
/// nothing else (minimal key movement), and removing one hands its ranges
/// to the surviving successors.
struct ShardRing {
  uint64_t epoch = 0;
  std::vector<size_t> members;        ///< Live slot indices, sorted.
  std::map<uint64_t, size_t> points;  ///< Ring point -> slot index.

  bool Contains(size_t slot) const;
};

/// Builds the ring for `members` (sorted, deduplicated by the caller) with
/// `vnodes` points per slot.
ShardRing BuildShardRing(uint64_t epoch, std::vector<size_t> members,
                         size_t vnodes);

/// Ring lookup: the slot owning the first point at or after H(key),
/// wrapping around. The ring must be non-empty.
size_t RingOwner(const ShardRing& ring, std::string_view key);

/// One key that changes owner between two ring epochs.
struct KeyMove {
  std::string key;
  size_t from = 0;
  size_t to = 0;
};

/// Pure rebalance *policy*: which of `keys` must move between `from` and
/// `to`, and where. Deliberately split from the data-movement driver (the
/// Zoltan shape: partition computation is a function, migration is a
/// mechanism), so the policy is unit-testable without a cluster and
/// replaceable without touching the driver. Returns moves sorted by key —
/// the order the driver's cursor advances in.
std::vector<KeyMove> PlanMigration(const ShardRing& from, const ShardRing& to,
                                   std::vector<std::string> keys);

/// A distributed StorageEngine: N child engines (typically RemoteStorageEngine
/// proxies, so every call crosses a serialization boundary) behind one router.
///
/// ## Routing
///
/// Object keys route by consistent hashing: each shard owns
/// `virtual_nodes_per_shard` points on a 64-bit ring, a key goes to the shard
/// owning the first point at or after H(key). Version ids route through a
/// router-side index maintained on Put (with a broadcast probe as fallback),
/// since a content id alone does not reveal its key.
///
/// ## Replicated namespaces (cross-shard branch-table coordination)
///
/// Keys matching `replicated_prefixes` — by default the `pipeline/` commit
/// logs that persist the branch table and the `library/` metafiles — are
/// written to EVERY live shard through the two-phase protocol below and read
/// from the COORDINATOR shard (the first live member of the current ring;
/// slot 0 until a rebalance retires it). Version-control metadata must be
/// visible cluster-wide; bulky artifacts partition.
///
/// ## Two-phase commit (merge winners)
///
/// `PutMany` overrides the interface default with an all-or-nothing protocol:
///   phase 1  stage every write's raw value on its participant shard under
///            `__2pc__/txn<N>/s<shard>/w<idx>/<target key>` (the durable
///            intent: the staging key names the target, the staged version
///            holds the bytes), one PutMany per shard, all overlapped;
///   decision on unanimous success, write the commit decision
///            (`__2pc__/txn<N>/decision`) to the coordinator shard;
///   phase 2  apply each write BY REFERENCE: CopyVersion(target, staged id)
///            on its shard, so no value crosses the wire twice and a
///            deduplicating shard shares the staged chunks instead of
///            re-chunking and re-hashing them (the apply is nearly free);
///            then delete every staging record and the decision by id in
///            one overlapped round.
/// Any prepare failure aborts — staged records are deleted and no real key
/// ever surfaces.
/// The merge operation persists its winner through PutMany, so a merge
/// result spanning shards commits atomically. A single-write,
/// non-replicated batch skips coordination (a one-write transaction needs
/// no 2PC). Staging keys are internal: they never appear in
/// ListAllVersions.
///
/// ## Elastic topology (live rebalance)
///
/// AddShard/RemoveShard install a NEW epoch of the ring while the previous
/// epoch stays live, then stream every reassigned key old-owner -> new-owner
/// in sorted batches (MigrateBatch: id-preserving, idempotent). During the
/// window the router routes DUAL-EPOCH: a key at or before the migration
/// cursor is already at its new owner, a key past it still lives at its old
/// owner, and a key inside the in-flight batch briefly blocks until the
/// batch lands. Writes past the cursor are tracked as DIRTY (and wait out
/// an in-flight batch), so a key written to its old owner mid-migration is
/// folded into the next batch instead of being overtaken by the cursor —
/// the cursor never passes a key whose data is still at its old owner. The
/// cursor is persisted durably (`__migration__/cursor` on
/// the coordinator) after every batch, so a router killed mid-migration
/// resumes from where it stopped (ResumeMigration) instead of restarting —
/// already-copied versions are recognized and skipped, never re-applied.
/// When a rebalance FINALIZES, the surviving membership is persisted on
/// every member (`__migration__/topology`) so a rebuilt router that dials a
/// stale endpoint list can restore the real ring via ResumeMigration.
/// Merges keep running throughout and commit bit-identical winners: version
/// ids derive from key + payload + ordinal, which migration preserves.
///
/// Thread safety: same contract as every StorageEngine — concurrent calls
/// from many workers are safe (the router index has its own lock; child
/// engines carry their own guarantees). One rebalance may run at a time,
/// driven by a single thread.
class ShardedStorageEngine : public StorageEngine {
 public:
  struct Options {
    /// Key prefixes replicated to every shard (see above).
    std::vector<std::string> replicated_prefixes = {"pipeline/", "library/"};
    /// Ring points per shard; more points = smoother key balance. 384
    /// keeps the measured max/min ownership ratio under 1.3 at 2–8 shards
    /// (16 points skewed up to 2.4× at 8 shards); ring build is a one-off
    /// few-hundred SHA-256s per shard, lookups stay O(log points).
    size_t virtual_nodes_per_shard = 384;
  };

  /// Two-phase-commit telemetry. `two_phase_stats()` returns a CONSISTENT
  /// snapshot: all counters are bumped together, under one mutex, at
  /// the moment a transaction RESOLVES (commit or abort), so any reader —
  /// including one polling while concurrent merge drains archive trial
  /// outputs — always observes `transactions == commits + aborts` exactly,
  /// with in-flight transactions invisible until they resolve.
  ///
  /// The round-trip ledger makes the ASYNC fan-out observable without
  /// timing: `max_inflight_round_trips` is the peak number of shard round
  /// trips a single transaction phase had issued before collecting the
  /// first response. The overlapped fan-out pushes it to the participant
  /// count; a regression to the old issue-one-wait-one serial loop pins it
  /// at 1, which is exactly what the regression tests assert on.
  struct TwoPhaseStats {
    uint64_t transactions = 0;     ///< Resolved PutMany/replicated txns.
    uint64_t prepared_writes = 0;  ///< Staging records written (phase 1).
    uint64_t commits = 0;          ///< Transactions fully applied.
    uint64_t aborts = 0;           ///< Transactions rolled back in phase 1.
    uint64_t prepare_round_trips = 0;  ///< Phase-1 shard messages issued.
    uint64_t apply_round_trips = 0;    ///< Phase-2 shard messages issued.
    /// Peak round trips in flight inside one transaction phase (see above).
    uint64_t max_inflight_round_trips = 0;
    /// Prepare+apply messages per shard index — the per-shard view that
    /// shows whether coordination load is balanced or piling on one shard.
    std::vector<uint64_t> per_shard_round_trips;
    /// Commit-decision writes issued to the coordinator shard: exactly one
    /// per transaction that reached a unanimous prepare (aborts before the
    /// decision point issue none).
    uint64_t decision_round_trips = 0;
    /// RecoverTwoPhase outcomes: transactions rolled FORWARD (durable
    /// decision found), transactions FENCED (no decision — intents
    /// destroyed so a zombie coordinator can never land them), and the
    /// individual writes the roll-forwards actually re-applied (an
    /// already-applied write is recognized by payload identity and
    /// skipped, so replay is idempotent).
    uint64_t recovered_transactions = 0;
    uint64_t fenced_transactions = 0;
    uint64_t replayed_writes = 0;
  };

  /// Router broadcast telemetry (version-id lookups that missed the router
  /// index and probed every shard). Same consistency and same
  /// inflight-accounting contract as TwoPhaseStats: `max_inflight_probes`
  /// reaches the shard count when the fan-out overlaps, 1 when serial.
  struct BroadcastStats {
    uint64_t broadcasts = 0;          ///< Broadcast operations run.
    uint64_t probe_round_trips = 0;   ///< Per-shard probe messages issued.
    uint64_t max_inflight_probes = 0;
    std::vector<uint64_t> per_shard_probes;  ///< Probe messages per shard.
  };

  /// Knobs for one rebalance drive. Defaults run to completion.
  struct MigrationOptions {
    /// Keys per MigrateBatch round trip (and per durable cursor write).
    size_t batch_keys = 32;
    /// Payload budget per batch: once the versions read for a batch reach
    /// this many bytes, the batch ships what it has and leaves the rest to
    /// the next round (0 = unbounded). A batch holds the transaction lock
    /// across its round trips, so this bounds how long one batch of large
    /// artifacts can stall replicated writes and merges.
    size_t batch_bytes = 8u << 20;
    /// Stop after this many batches with the migration still installed
    /// (dual-epoch routing stays live); 0 = run to completion. Lets tests
    /// and drills hold the cluster mid-migration deterministically —
    /// ResumeMigration continues from the cursor.
    size_t max_batches = 0;
  };

  /// Telemetry for the rebalance subsystem, one consistent snapshot.
  struct MigrationStats {
    uint64_t epoch = 0;              ///< Current ring epoch.
    uint64_t keys_migrated = 0;      ///< Keys whose batch landed.
    uint64_t versions_migrated = 0;  ///< Versions applied at new owners.
    uint64_t bytes_migrated = 0;     ///< Payload bytes applied.
    uint64_t batches = 0;            ///< MigrateBatch rounds completed.
    uint64_t cursor_writes = 0;      ///< Durable cursor persists.
    uint64_t resumes = 0;            ///< ResumeMigration re-installs.
    /// Versions a MigrateBatch found already at the destination — the
    /// direct evidence that a resumed migration continued instead of
    /// re-copying (the kill -9 drill asserts this is nonzero).
    uint64_t skipped_versions = 0;
    /// Keys written to their OLD owner mid-migration (they routed past the
    /// cursor) that a batch folded in before advancing the cursor over
    /// them. Nonzero means live writes raced the driver and were kept.
    uint64_t dirty_keys_migrated = 0;
  };

  /// Takes ownership of the child engines. At least one shard is required.
  explicit ShardedStorageEngine(
      std::vector<std::unique_ptr<StorageEngine>> shards);
  ShardedStorageEngine(std::vector<std::unique_ptr<StorageEngine>> shards,
                       Options options);

  StatusOr<PutResult> Put(const std::string& key,
                          std::string_view data) override;
  StatusOr<std::vector<PutResult>> PutMany(
      const std::vector<PutRequest>& batch) override;
  StatusOr<std::string> Get(const std::string& key) override;
  StatusOr<std::string> GetVersion(const Hash256& id) override;
  bool HasVersion(const Hash256& id) const override;
  std::vector<Hash256> Versions(const std::string& key) const override;
  std::vector<std::pair<std::string, Hash256>> ListAllVersions() const override;
  StatusOr<uint64_t> DeleteVersion(const Hash256& id) override;
  EngineStats stats() const override;  ///< Sum over live shards.
  std::string Name() const override;
  double ReadCost(uint64_t bytes) const override;

  /// Slot count (monotonic: retired slots keep their index, so per-shard
  /// telemetry vectors and historical shard numbering stay stable).
  size_t num_shards() const;
  StorageEngine* shard(size_t i) { return shards_[i].get(); }
  const StorageEngine* shard(size_t i) const { return shards_[i].get(); }

  /// Ring lookup for `key` (replication not considered). During a
  /// rebalance this is the DUAL-EPOCH answer: new owner once the migration
  /// cursor has passed the key, old owner before, and it BLOCKS briefly
  /// for a key inside the in-flight batch.
  size_t ShardForKey(std::string_view key) const;
  bool IsReplicated(std::string_view key) const;

  /// Live slot indices of the current topology (union with the previous
  /// epoch's while a rebalance is in flight — those slots still serve).
  std::vector<size_t> live_members() const;
  /// First live member of the CURRENT ring: the authority for replicated
  /// reads, 2PC commit decisions, and recovery. Slot 0 until a rebalance
  /// retires it.
  size_t coordinator_shard() const;
  uint64_t ring_epoch() const;

  /// Grows the cluster: appends `shard` as a new slot, installs the next
  /// ring epoch, and streams every key the new slot now owns from its old
  /// owner (the replicated namespace is pre-copied before the slot becomes
  /// routable). Blocks until the migration completes — or pauses after
  /// `opts.max_batches` with dual-epoch routing still live. Reads, writes
  /// and merges proceed concurrently throughout.
  Status AddShard(std::unique_ptr<StorageEngine> shard);
  Status AddShard(std::unique_ptr<StorageEngine> shard,
                  const MigrationOptions& opts);

  /// Shrinks the cluster: resolves in-flight 2PC state, installs a ring
  /// epoch without `slot`, streams its keys to their new owners, and
  /// finally drains the slot EMPTY (replicated copies included). The slot
  /// index stays allocated but no longer routes. Same blocking/pause
  /// semantics as AddShard.
  Status RemoveShard(size_t slot);
  Status RemoveShard(size_t slot, const MigrationOptions& opts);

  /// Continues an interrupted rebalance: an in-memory one (paused via
  /// max_batches) directly, otherwise by scanning the shards for the
  /// durable `__migration__/plan` record a killed router left behind and
  /// re-installing it, cursor included. Already-migrated versions are
  /// recognized and skipped (MigrationStats::skipped_versions). A shard
  /// that cannot answer the scan is an ERROR, not "no plan": silently
  /// serving single-epoch against a mismatched data layout would misroute
  /// every reassigned key. With no plan to resume, the durable
  /// `__migration__/topology` record of the last FINALIZED rebalance is
  /// honored instead, so a router rebuilt from a stale endpoint list (one
  /// that still dials a drained slot) recovers the real membership.
  /// Returns Ok and does nothing when there is nothing to restore.
  Status ResumeMigration();
  Status ResumeMigration(const MigrationOptions& opts);

  /// True while dual-epoch routing is installed (migration running or
  /// paused).
  bool migration_in_progress() const {
    return migrating_.load(std::memory_order_acquire);
  }

  MigrationStats migration_stats() const;

  TwoPhaseStats two_phase_stats() const;
  BroadcastStats broadcast_stats() const;

  /// Availability of one shard as judged from this router's own traffic:
  /// kUnavailable / kDeadlineExceeded responses bump a consecutive-failure
  /// count (any other answer — including NotFound — resets it, because the
  /// shard responded). One failure degrades; kDownFailures consecutive
  /// failures mark the shard down, after which broadcasts and 2PC fan-outs
  /// skip it and fail fast with a typed Unavailable instead of burning a
  /// timeout per call. A freshly-down shard gets ONE immediate probe on
  /// the first fan-out after the transition (so a blip shorter than the
  /// fan-out cadence heals in one request), then every kHalfOpenEvery-th
  /// skip re-probes (half-open), so a recovered shard rejoins without
  /// manual help; MarkShardRecovered short-circuits that wait after a
  /// known restart.
  enum class ShardHealth : uint8_t { kUp = 0, kDegraded = 1, kDown = 2 };
  struct ShardHealthView {
    std::vector<ShardHealth> state;                ///< One entry per shard.
    std::vector<uint64_t> consecutive_failures;    ///< Current streaks.
  };
  ShardHealthView shard_health() const;
  /// Clears shard `shard`'s failure streak (e.g. after restarting its
  /// process), so the next fan-out talks to it immediately.
  void MarkShardRecovered(size_t shard);

  /// Scans every shard for leftover `__2pc__/` staging records from
  /// transactions that died mid-flight (coordinator crash, shard kill) and
  /// resolves each one: a transaction whose durable commit decision exists
  /// on the coordinator shard is rolled FORWARD (each staged write is
  /// re-applied to the target key its staging key names, by CopyVersion,
  /// idempotently — a write the dead coordinator already landed is
  /// recognized by payload identity and not applied twice; a staging key
  /// naming no target is Corruption and is left for a later pass), any
  /// other transaction is FENCED (its intents are deleted, so the writes
  /// can never surface). Either way the staging records are gone
  /// afterwards: a clean scan is the recovery invariant the chaos suite
  /// asserts. Call on a freshly (re)built router before accepting new
  /// transactions, and after rejoining a crashed shard. Outcomes are
  /// counted in two_phase_stats().
  Status RecoverTwoPhase();

 private:
  /// One write bound for a specific shard, remembering its slot in the
  /// caller's batch so results come back in order.
  struct ShardWrite {
    size_t shard = 0;
    size_t batch_index = 0;
    const PutRequest* request = nullptr;
  };

  /// A routing decision that may instead report "wait: the key's batch is
  /// in flight".
  struct Route {
    size_t shard = 0;
    bool in_flight = false;
  };

  /// Runs the two-phase protocol over `writes` (already routed). The
  /// caller holds txn_mu_ — routing decided under that lock cannot be
  /// invalidated by a migration batch, which also serializes on it. On
  /// success fills `results[batch_index]` for every write; replicated
  /// writes report the coordinator replica's result with the slowest
  /// replica's storage time.
  Status RunTransactionLocked(const std::vector<ShardWrite>& writes,
                              std::vector<PutResult>* results);

  /// Applies one uncoordinated write and records its version id. Routes
  /// internally under the migration write guard, so the destination cannot
  /// be invalidated by a concurrent rebalance batch.
  StatusOr<PutResult> DirectPut(const std::string& key,
                                std::string_view data);

  void RecordVersion(const Hash256& id, size_t shard);

  /// Non-blocking dual-epoch route (see ShardForKey). Write routes carry
  /// extra duties the read route must not: a write bound past the cursor
  /// for its OLD owner is recorded as dirty (the pass enumeration predates
  /// it, so the next batch must fold it in before the cursor can overtake
  /// it), and while a batch is mid-copy such writes wait the batch out —
  /// otherwise a write landing on the old owner during the copy would be
  /// stranded there the moment the batch's cursor advance routes the key
  /// to its new owner.
  Route TryRouteKey(std::string_view key, bool for_write) const;
  /// Blocks until TryRouteKey(key, for_write) can answer without waiting.
  void WaitRouteUnblocked(std::string_view key, bool for_write) const;
  /// Blocking dual-epoch route (loops TryRouteKey + WaitRouteUnblocked).
  size_t RouteKeyBlocking(std::string_view key, bool for_write) const;

  /// Runs `fn(shard)` with the route pinned: holds the migration write
  /// guard (shared) so a rebalance batch cannot invalidate the decision
  /// mid-call, retrying if the key's batch claims it first.
  template <typename Fn>
  auto WithStableRoute(std::string_view key, bool for_write, Fn&& fn) const {
    while (true) {
      std::shared_lock<std::shared_mutex> guard(mig_write_mu_);
      Route r = TryRouteKey(key, for_write);
      if (!r.in_flight) return fn(r.shard);
      guard.unlock();
      WaitRouteUnblocked(key, for_write);
    }
  }

  /// True for router-internal keys (2PC staging, migration plan/cursor)
  /// that must never surface in listings or migrate.
  bool IsInternalKey(std::string_view key) const;

  // --- rebalance internals (all driven by one thread per migration) ---
  Status DriveMigration(const MigrationOptions& opts);
  /// Migrates a sorted prefix of `moves` (folding in any dirty keys at or
  /// below its last key) and returns how many of `moves` it consumed —
  /// fewer than all of them when `byte_budget` truncates the batch.
  StatusOr<size_t> MigrateOneBatch(const std::vector<KeyMove>& moves,
                                   size_t byte_budget);
  /// Installs the durable `__migration__/topology` record's membership if
  /// one exists and is newer than the current ring (see ResumeMigration).
  Status RestoreDurableTopology();
  /// Keys currently sitting on a live slot the CURRENT ring does not route
  /// them to, sorted by key. Empty means the data plane matches the ring.
  std::vector<KeyMove> EnumerateMoves() const;
  Status FinalizeMigrationLocked();
  Status PersistPlan(const ShardRing& from, const ShardRing& to);
  /// First member of the current ring = where plan/cursor live (chosen so
  /// it survives the topology change: a leaving slot never hosts them).
  size_t plan_shard() const;
  Status RecoverTwoPhaseLocked();
  size_t SlotCount() const;

  /// Accounts one index-miss broadcast into bc_stats_ as a single unit.
  /// `measured_peak_inflight` comes from the call site's issue/collect
  /// meter — a real measurement, so a regression to a serial probe loop
  /// shows up as 1 in the stats (and fails the ledger tests) instead of
  /// being papered over. `probed` lists the shards actually messaged
  /// (down shards a fan-out skipped are not probes).
  void RecordBroadcast(uint64_t measured_peak_inflight,
                       const std::vector<size_t>& probed) const;

  /// Feeds one shard response into the health tracker (see shard_health()).
  /// Pass Ok for any answered call — NotFound is an answer.
  void NoteShardResult(size_t shard, const Status& status) const;
  /// True when `shard` is down and this fan-out should skip it. Mutates the
  /// half-open counter: the FIRST would-be skip after the down transition
  /// probes immediately, then every kHalfOpenEvery-th one does.
  bool SkipDownShard(size_t shard) const;
  /// Non-mutating down check (for callers that fail fast instead of
  /// skipping, e.g. DeleteVersion).
  bool ShardDown(size_t shard) const;

  static constexpr uint64_t kDownFailures = 3;
  static constexpr uint64_t kHalfOpenEvery = 8;

  /// Sentinel shard index meaning "present on every live shard, read from
  /// the coordinator".
  static constexpr size_t kReplicated = static_cast<size_t>(-1);

  /// Slot capacity reserved up front so AddShard's push_back never
  /// reallocates shards_ under concurrent readers (slot pointers stay
  /// valid without a lock on the hot path).
  static constexpr size_t kSlotCapacity = 64;

  std::vector<std::unique_ptr<StorageEngine>> shards_;
  Options options_;

  /// Topology: the current ring, plus the previous epoch's while a
  /// migration is in flight. Writers (install/finalize) take it unique;
  /// routing takes it shared.
  mutable std::shared_mutex topo_mu_;
  ShardRing current_ring_;
  ShardRing prev_ring_;  ///< Valid only while migrating_.
  std::atomic<bool> migrating_{false};

  /// Migration data plane: the in-flight batch's keys (routing blocks on
  /// them) and the cursor (last key whose batch landed durably).
  mutable std::mutex mig_mu_;
  mutable std::condition_variable mig_cv_;
  std::set<std::string, std::less<>> inflight_keys_;
  std::string mig_cursor_;
  /// Reassigned keys a write sent to their OLD owner mid-migration (they
  /// routed past the cursor, so the pass enumeration cannot know about
  /// them). Every batch folds in the dirty keys at or below its last key
  /// before advancing the cursor — the invariant that makes the cursor
  /// trustworthy: no key at or before it is ever left at its old owner.
  /// Mutable: recorded at route time, which serves const readers too.
  mutable std::set<std::string, std::less<>> mig_dirty_;
  /// True while a batch is between its route fence and its cursor
  /// advance; write routes past the cursor wait it out (see TryRouteKey).
  bool mig_batch_active_ = false;

  /// Write drain for uncoordinated puts: DirectPut (and routed reads) hold
  /// it shared for the duration of the shard call; a migration batch takes
  /// it unique once after marking its keys in flight, guaranteeing no
  /// routed call decided under the OLD route is still on the wire when the
  /// batch reads the source.
  mutable std::shared_mutex mig_write_mu_;

  mutable std::mutex mig_stats_mu_;
  MigrationStats mig_stats_;

  mutable std::shared_mutex index_mu_;
  std::unordered_map<Hash256, size_t, Hash256Hasher> version_shard_;

  /// Serializes coordinated transactions so concurrent replicated writes
  /// cannot apply in different orders on different shards (replica
  /// divergence). Migration batches and topology changes also take it, so
  /// a transaction's routing is stable for its whole lifetime. DirectPut
  /// never takes it.
  std::mutex txn_mu_;
  /// Staging-key id generator only; telemetry lives in tp_stats_.
  std::atomic<uint64_t> txn_counter_{0};
  /// 2PC telemetry, updated as one unit at transaction resolution so
  /// two_phase_stats() snapshots are consistent (see TwoPhaseStats).
  mutable std::mutex tp_stats_mu_;
  TwoPhaseStats tp_stats_;
  /// Broadcast-probe telemetry, one unit per broadcast (see BroadcastStats).
  mutable std::mutex bc_stats_mu_;
  mutable BroadcastStats bc_stats_;

  /// Health tracker state (see shard_health()); mutable because query-side
  /// const calls observe failures too.
  mutable std::mutex health_mu_;
  mutable std::vector<uint64_t> consecutive_failures_;
  mutable std::vector<uint64_t> half_open_skips_;
};

/// Builds the canonical loopback cluster: `shards` backends (from
/// `backend_factory`), each wrapped in a StorageEngineService behind a
/// LoopbackTransport and a RemoteStorageEngine proxy, all routed by one
/// ShardedStorageEngine. Every storage call crosses the wire format exactly
/// as a socket deployment would; swapping the transport is the only change a
/// real multi-process setup needs.
std::unique_ptr<ShardedStorageEngine> MakeLoopbackCluster(
    size_t shards,
    const std::function<std::unique_ptr<StorageEngine>()>& backend_factory,
    ShardedStorageEngine::Options options = ShardedStorageEngine::Options());

/// Builds one loopback shard proxy around `backend` — what AddShard wants
/// when growing a MakeLoopbackCluster-style deployment.
std::unique_ptr<StorageEngine> MakeLoopbackShard(
    std::unique_ptr<StorageEngine> backend);

// ConnectCluster — the multi-process sibling of MakeLoopbackCluster, which
// dials running mlcask_server processes over unix:/tcp: endpoints — lives
// in storage/server_cluster.h: it (and only it) needs the socket transport,
// and this header stays transport-agnostic for the loopback-only majority
// of consumers.

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_SHARDED_ENGINE_H_
