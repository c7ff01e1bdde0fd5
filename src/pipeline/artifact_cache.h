#ifndef MLCASK_PIPELINE_ARTIFACT_CACHE_H_
#define MLCASK_PIPELINE_ARTIFACT_CACHE_H_

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sha256.h"
#include "common/sim_clock.h"
#include "data/table.h"

namespace mlcask::pipeline {

/// One materialized component output, shared by every pipeline whose prefix
/// (or DAG ancestry) hashes to the same key. Entries are immutable once
/// published; readers hold them through shared_ptr so a concurrent Clear()
/// or LRU eviction cannot pull a table out from under a running pipeline.
struct ArtifactEntry {
  data::Table table;
  double score = std::nan("");
  std::string metric;
  std::map<std::string, double> metrics;
  Hash256 output_id;
  /// Virtual (sim-clock) time at which the producing worker finished this
  /// artifact. A worker that reuses the entry advances its own clock to at
  /// least this point — the waiting cost of sharing work across workers —
  /// unless streamed handoff applies (see `stream_span`).
  double ready_at_s = 0;
  /// Stream watermark published with the entry: the producer's virtual start
  /// and the number of uniform chunk boundaries its output streamed across.
  /// Together with `ready_at_s` this is the per-chunk progress record a
  /// consumer needs to charge overlap-adjusted wait instead of the full
  /// finish time (streamed prefix handoff — see StreamSpan in sim_clock.h).
  /// Checkpoint seeds keep the defaults (not streamable: they were
  /// materialized before the run).
  double started_at_s = 0;
  uint32_t stream_chunks = 1;

  bool has_score() const { return !std::isnan(score); }
  StreamSpan stream_span() const {
    return StreamSpan{started_at_s, ready_at_s, stream_chunks};
  }
};

/// A concurrent artifact cache with per-key in-flight guards. This is the
/// single cache namespace behind the executor: DAG nodes and chain prefixes
/// (checkpoints seeded from history) use the same recursive keying
/// (Executor::NodeKey), so a chain run hits its seeded prefixes.
///
/// The in-flight guard is what keeps `executions()` — the paper's pruned
/// candidate metric — identical between serial and parallel search: when two
/// candidates sharing a prefix race, the second worker blocks on the first
/// worker's lease and reuses its result instead of recomputing it.
///
/// ## Byte-bounded eviction: global recency epoch
///
/// With `Options::max_bytes > 0` the cache evicts least-recently-used READY
/// entries when a new publish would push the total payload past the cap.
/// Recency is GLOBAL, not per-shard: every touch (Find hit, Acquire hit,
/// publish) stamps the slot with a cache-wide monotonic epoch from one
/// atomic counter, and eviction always drops the globally-oldest unpinned
/// ready entry. Victims are located through a lazily-maintained cross-shard
/// min-heap of (epoch, key) records. The hit path stays shard-local: a
/// touch records at most ONE live record per slot into its shard's pending
/// buffer under the shard lock it already holds (no cache-wide lock, no
/// per-touch heap churn); MakeRoom — serialized by cap_mu_ anyway — drains
/// the buffers into the heap and pops minima, REQUEUEING a record whose
/// epoch no longer matches its slot at the slot's current epoch (it is
/// that slot's only record, so requeue-on-stale keeps the order exact),
/// dropping records whose slot is gone, and setting pinned victims aside
/// for requeue after the sweep. The one-record-per-slot invariant bounds
/// heap + buffers at the number of ready slots ever resident. This
/// replaces the earlier round-robin per-shard LRU sweep, whose shard-local
/// eviction order recomputed ~5x more than a true global LRU on
/// adversarial layouts (hot keys concentrated on low shards — see the
/// recorded-trace regression test in tests/test_cache_eviction.cc, which
/// now gates the global policy at <= 1.5x an ideal global-LRU oracle).
/// Eviction never touches:
///  - pending (leased) slots — their computation is in flight and a waiter
///    may be blocked on the lease;
///  - entries pinned by an outstanding EntryPtr reader (shared_ptr
///    use_count > 1) — a running pipeline's input can't be dropped while in
///    use, and an entry returned by Executor::FindCachedEntry stays both
///    alive and resident while the caller holds it.
/// An evicted key simply recomputes on its next Acquire — eviction degrades
/// to recomputation, never to corruption. The cap is a high-water mark:
/// when everything resident is pinned or pending, a publish may exceed it
/// rather than fail (and a single entry larger than the cap is still
/// admitted).
class ArtifactCache {
 public:
  using EntryPtr = std::shared_ptr<const ArtifactEntry>;

  struct Options {
    /// Total payload cap in bytes across all shards; 0 = unbounded (the
    /// historical behaviour).
    uint64_t max_bytes = 0;
  };

  /// Cumulative cache accounting (all counters monotone except `bytes`).
  struct Stats {
    uint64_t bytes = 0;       ///< Resident payload bytes right now.
    uint64_t peak_bytes = 0;  ///< High-water mark of `bytes`.
    uint64_t evictions = 0;   ///< Entries dropped by the LRU policy.
    uint64_t insertions = 0;  ///< Entries published (Fulfill + Insert).
    /// Largest single entry ever published. Useful for sizing caps and for
    /// bounding the pinned overshoot: peak_bytes can exceed max_bytes by
    /// at most the transiently pinned working set — per running pipeline,
    /// the cache hits it planned on plus the tables that still have a
    /// pending consumer (a couple of entries for a chain candidate).
    uint64_t largest_entry_bytes = 0;
  };

  ArtifactCache() = default;
  explicit ArtifactCache(Options options) : options_(options) {}
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// Exclusive right to compute one key. Obtained from Acquire(); must be
  /// passed to Fulfill() with the computed entry, or destroyed (e.g. on an
  /// error path), which abandons the key and wakes one waiter to take over.
  class Lease {
   public:
    Lease(Lease&& other) noexcept : cache_(other.cache_), key_(other.key_) {
      other.cache_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

   private:
    friend class ArtifactCache;
    Lease(ArtifactCache* cache, const Hash256& key)
        : cache_(cache), key_(key) {}
    ArtifactCache* cache_;  ///< Null once fulfilled or abandoned.
    Hash256 key_;
  };

  /// Result of Acquire(): exactly one of `entry` (the key is ready — reuse
  /// it) or `lease` (this caller must compute it) is set.
  struct Acquired {
    EntryPtr entry;
    std::unique_ptr<Lease> lease;
  };

  /// Non-blocking lookup; returns nullptr unless the key is ready (pending
  /// keys are invisible — Find never waits). A hit refreshes the entry's
  /// LRU position.
  EntryPtr Find(const Hash256& key) const;

  /// Either returns the ready entry, grants a lease (first caller on a
  /// missing key), or blocks while another worker holds the lease and
  /// returns its entry once fulfilled.
  Acquired Acquire(const Hash256& key);

  /// Publishes `entry` for the leased key and wakes all waiters. Returns the
  /// stored entry.
  EntryPtr Fulfill(Lease* lease, ArtifactEntry entry);

  /// Publishes `entry` unconditionally (checkpoint seeding, single-threaded
  /// setup). Overwrites a ready entry under the same key.
  EntryPtr Insert(const Hash256& key, ArtifactEntry entry);

  /// Number of ready entries.
  size_t size() const;

  /// Drops all ready entries. Keys with an active lease are left pending
  /// (their computation is still in flight and will publish as usual).
  void Clear();

  const Options& options() const { return options_; }
  Stats stats() const;

  /// Approximate resident size of one entry — the unit the byte cap is
  /// enforced in.
  static uint64_t EntryBytes(const ArtifactEntry& entry);

 private:
  struct Slot {
    EntryPtr entry;        ///< Set when ready.
    bool pending = false;  ///< True while a lease is outstanding.
    uint64_t bytes = 0;    ///< EntryBytes at publish time (ready slots).
    /// Global recency epoch of the slot's last touch (stamped from the
    /// cache-wide atomic counter). 0 = never stamped.
    uint64_t epoch = 0;
    /// Whether a recency record for this slot is live in its shard's
    /// pending buffer or the cross-shard heap. At most one record exists
    /// per ready slot; a touch that finds one live only restamps `epoch`
    /// (MakeRoom requeues the stale record at the fresh epoch on pop).
    bool record_live = false;
  };

  /// One (epoch, key) record in the recency machinery (see the class
  /// comment): buffered per shard on touch, drained into the cross-shard
  /// heap by MakeRoom.
  struct RecencyRecord {
    uint64_t epoch = 0;
    Hash256 key;
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable ready_cv;
    /// Mutable so a const Find can stamp recency under the shard lock.
    mutable std::unordered_map<Hash256, Slot, Hash256Hasher> slots;
    /// Recency records not yet drained into the heap. Guarded by `mu`;
    /// mutable for the same reason as `slots`. Only capped caches append.
    mutable std::vector<RecencyRecord> pending_records;
  };
  struct RecencyNewer {
    bool operator()(const RecencyRecord& a, const RecencyRecord& b) const {
      return a.epoch > b.epoch;  // min-heap: globally-oldest on top
    }
  };

  static constexpr size_t kNumShards = 16;

  Shard& ShardFor(const Hash256& key) {
    return shards_[key.bytes[0] % kNumShards];
  }
  const Shard& ShardFor(const Hash256& key) const {
    return shards_[key.bytes[0] % kNumShards];
  }

  void Abandon(const Hash256& key);

  /// Publishes `stored` into `shard` under its lock: replaces any previous
  /// ready entry's accounting and stamps a fresh recency epoch.
  void PublishLocked(Shard& shard, const Hash256& key, EntryPtr stored,
                     uint64_t nbytes);

  /// Stamps `slot` with a fresh global epoch and, on capped caches,
  /// ensures exactly one live recency record for it (appending to the
  /// shard's pending buffer when none is live). Caller holds the shard
  /// lock.
  void TouchLocked(const Shard& shard, const Hash256& key, Slot& slot) const;

  /// Evicts globally-oldest unpinned ready entries (via the recency heap)
  /// until `incoming` more bytes fit under the cap or nothing evictable
  /// remains. Caller holds cap_mu_ (which is the heap's guard) but no
  /// shard lock.
  void MakeRoom(uint64_t incoming);

  void UpdatePeak();

  Options options_;
  /// Serializes {MakeRoom, publish, peak update} when a byte cap is
  /// configured, making cap enforcement atomic across concurrent
  /// publishers — without it two racing publishes could each see room and
  /// together overshoot the cap. Never held while a shard lock is held
  /// (always taken first), so there is no ordering inversion; uncapped
  /// caches never touch it. Deliberate trade-off: capped publishes
  /// serialize (the sharding still serves lookups), buying strict byte
  /// accounting on exactly the runs that asked to be memory-bounded.
  std::mutex cap_mu_;
  Shard shards_[kNumShards];
  /// Cache-wide monotonic recency counter; every touch of a ready slot
  /// draws the next epoch, so "globally oldest" is well-defined across
  /// shards without any cross-shard lock on the touch path.
  mutable std::atomic<uint64_t> epoch_{0};
  /// Cross-shard recency heap. Accessed ONLY from MakeRoom, which always
  /// runs under cap_mu_ — the cap lock doubles as the heap's guard, so the
  /// hit path never takes a cache-wide lock for recency bookkeeping.
  std::priority_queue<RecencyRecord, std::vector<RecencyRecord>,
                      RecencyNewer>
      recency_heap_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> peak_bytes_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> largest_entry_bytes_{0};
};

}  // namespace mlcask::pipeline

#endif  // MLCASK_PIPELINE_ARTIFACT_CACHE_H_
