#ifndef MLCASK_PIPELINE_ARTIFACT_CACHE_H_
#define MLCASK_PIPELINE_ARTIFACT_CACHE_H_

#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

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
/// ## Byte-bounded eviction: exact LRU under one lock
///
/// One mutex guards the whole cache: a map from key to slot and one list
/// of the ready keys in recency order, least recent first. A slot without
/// an entry is pending (its lease is outstanding). Every touch (Find hit,
/// Acquire hit, publish) moves the key to the back of the list. With
/// `Options::max_bytes > 0` a publish first evicts from the front of the
/// list until the new entry fits, so the victim is always the least
/// recently used evictable entry. Eviction never touches:
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
    /// Total payload cap in bytes; 0 = unbounded (the historical
    /// behaviour).
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

  /// One consistent snapshot of the accounting.
  Stats stats() const;

  /// Approximate resident size of one entry — the unit the byte cap is
  /// enforced in.
  static uint64_t EntryBytes(const ArtifactEntry& entry);

 private:
  struct Slot {
    EntryPtr entry;      ///< Null while pending (a lease is outstanding).
    uint64_t bytes = 0;  ///< EntryBytes at publish time (ready slots).
    std::list<Hash256>::iterator lru;  ///< The key's node in lru_ (ready).
  };

  void Abandon(const Hash256& key);

  /// The one publish path of Fulfill and Insert: makes room for the new
  /// entry, drops any old entry under `key`, publishes, wakes waiters.
  EntryPtr Publish(const Hash256& key, ArtifactEntry entry);

  const Options options_;
  mutable std::mutex mu_;  ///< Guards everything below.
  std::condition_variable ready_cv_;
  std::unordered_map<Hash256, Slot, Hash256Hasher> slots_;
  /// Ready keys, least recently used first. Mutable so a const Find can
  /// refresh recency under the lock.
  mutable std::list<Hash256> lru_;
  Stats stats_;
};

}  // namespace mlcask::pipeline

#endif  // MLCASK_PIPELINE_ARTIFACT_CACHE_H_
