#include "storage/sharded_engine.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/sha256.h"
#include "common/strings.h"
#include "storage/deadline.h"
#include "storage/remote_engine.h"
#include "storage/transport.h"

namespace mlcask::storage {

namespace {

constexpr std::string_view kStagingPrefix = "__2pc__/";
/// Prefix of a transaction's commit-decision payload (`kIntentHeader` +
/// "commit"). Recovery acts on the decision record's presence alone, so the
/// bytes only label it. Staged writes carry their value raw: both engines
/// derive version ids from the key, so deleting a staged version by id can
/// never take a user version (or its still-referenced chunks) with it.
constexpr std::string_view kIntentHeader = "__2pc-intent__\x1f";

/// Rebalance bookkeeping keys, written directly to the plan shard (never
/// routed) and filtered from every listing like the 2PC staging records.
constexpr std::string_view kMigrationPrefix = "__migration__/";
constexpr std::string_view kPlanKey = "__migration__/plan";
constexpr std::string_view kCursorKey = "__migration__/cursor";
constexpr std::string_view kTopologyKey = "__migration__/topology";

uint64_t RingPoint(std::string_view label) {
  Hash256 h = Sha256::Digest(label.data(), label.size());
  uint64_t point = 0;
  for (size_t i = 0; i < 8; ++i) point = (point << 8) | h.bytes[i];
  return point;
}

bool IsStagingKey(std::string_view key) {
  return StartsWith(key, kStagingPrefix);
}

bool IsMigrationKey(std::string_view key) {
  return StartsWith(key, kMigrationPrefix);
}

/// Consumes one `<label><digits>/` segment of a staging key from the front
/// of `rest`, storing the number in `*value`.
bool ConsumeStagingField(std::string_view* rest, std::string_view label,
                         uint64_t* value) {
  if (!StartsWith(*rest, label)) return false;
  std::string_view digits = rest->substr(label.size());
  size_t i = 0;
  uint64_t parsed = 0;
  while (i < digits.size() && digits[i] >= '0' && digits[i] <= '9') {
    parsed = parsed * 10 + static_cast<uint64_t>(digits[i] - '0');
    ++i;
  }
  if (i == 0 || i >= digits.size() || digits[i] != '/') return false;
  *value = parsed;
  rest->remove_prefix(label.size() + i + 1);
  return true;
}

/// Parses a staging key's transaction id and flags the per-transaction
/// commit-decision record (`__2pc__/txn<N>/decision`). Returns false for
/// keys that merely share the prefix without following the layout — those
/// are not ours to resolve.
bool ParseStagingKey(std::string_view key, uint64_t* txn, bool* is_decision) {
  if (!StartsWith(key, kStagingPrefix)) return false;
  std::string_view rest = key.substr(kStagingPrefix.size());
  if (!ConsumeStagingField(&rest, "txn", txn)) return false;
  *is_decision = rest == "decision";
  return true;
}

/// The target key of a staged write, whose staging key is
/// `__2pc__/txn<N>/s<shard>/w<idx>/<target key>` (mirrors the transaction's
/// phase 1). False when `key` carries no target: a decision record, or a
/// staging key that does not follow the layout.
bool ParseStagingTarget(std::string_view key, std::string_view* target) {
  if (!StartsWith(key, kStagingPrefix)) return false;
  std::string_view rest = key.substr(kStagingPrefix.size());
  uint64_t unused = 0;
  if (!ConsumeStagingField(&rest, "txn", &unused) ||
      !ConsumeStagingField(&rest, "s", &unused) ||
      !ConsumeStagingField(&rest, "w", &unused)) {
    return false;
  }
  *target = rest;
  return true;
}

/// Measures one fan-out's overlap: issued round trips raise `inflight`,
/// collected ones lower it, `peak` keeps the high-water mark. An
/// issue-all-then-collect fan-out peaks at N; a serial issue-wait loop
/// never leaves 1 — which is exactly what the round-trip ledgers record.
struct InflightMeter {
  uint64_t inflight = 0;
  uint64_t peak = 0;
  void Issue() { peak = std::max(peak, ++inflight); }
  void Collect() { --inflight; }
};

std::string SerializeSlots(const std::vector<size_t>& slots) {
  std::string out;
  for (size_t s : slots) {
    if (!out.empty()) out += ",";
    out += std::to_string(s);
  }
  return out;
}

bool ParseSlots(std::string_view text, std::vector<size_t>* slots) {
  slots->clear();
  size_t value = 0;
  bool in_number = false;
  for (char c : text) {
    if (c >= '0' && c <= '9') {
      value = value * 10 + static_cast<size_t>(c - '0');
      in_number = true;
    } else if (c == ',') {
      if (!in_number) return false;
      slots->push_back(value);
      value = 0;
      in_number = false;
    } else {
      return false;
    }
  }
  if (!in_number) return false;
  slots->push_back(value);
  return true;
}

/// Durable rebalance plan: everything a fresh router needs to re-install
/// the dual-epoch window a killed one left mid-flight.
std::string SerializePlan(const ShardRing& from, const ShardRing& to,
                          size_t vnodes) {
  std::string out = "mlcask-migration-plan v1\n";
  out += "epoch=" + std::to_string(to.epoch) + "\n";
  out += "from=" + SerializeSlots(from.members) + "\n";
  out += "to=" + SerializeSlots(to.members) + "\n";
  out += "vnodes=" + std::to_string(vnodes) + "\n";
  return out;
}

bool ParsePlan(std::string_view text, uint64_t* epoch,
               std::vector<size_t>* from, std::vector<size_t>* to,
               size_t* vnodes) {
  bool have_epoch = false, have_from = false, have_to = false,
       have_vnodes = false;
  bool first = true;
  while (!text.empty()) {
    const size_t nl = text.find('\n');
    std::string_view line =
        nl == std::string_view::npos ? text : text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    if (first) {
      if (line != "mlcask-migration-plan v1") return false;
      first = false;
      continue;
    }
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) return false;
    std::string_view name = line.substr(0, eq);
    std::string_view value = line.substr(eq + 1);
    if (name == "epoch") {
      std::vector<size_t> one;
      if (!ParseSlots(value, &one) || one.size() != 1) return false;
      *epoch = one[0];
      have_epoch = true;
    } else if (name == "from") {
      if (!ParseSlots(value, from)) return false;
      have_from = true;
    } else if (name == "to") {
      if (!ParseSlots(value, to)) return false;
      have_to = true;
    } else if (name == "vnodes") {
      std::vector<size_t> one;
      if (!ParseSlots(value, &one) || one.size() != 1) return false;
      *vnodes = one[0];
      have_vnodes = true;
    }  // Unknown fields are skipped: older routers tolerate newer plans.
  }
  return have_epoch && have_from && have_to && have_vnodes &&
         !from->empty() && !to->empty();
}

/// Durable record of the last FINALIZED membership, written to every
/// surviving member when a rebalance completes. A router rebuilt from a
/// stale endpoint list (one that still dials a drained slot) reads it back
/// in ResumeMigration to restore the real ring.
std::string SerializeTopology(const ShardRing& ring, size_t vnodes) {
  std::string out = "mlcask-topology v1\n";
  out += "epoch=" + std::to_string(ring.epoch) + "\n";
  out += "members=" + SerializeSlots(ring.members) + "\n";
  out += "vnodes=" + std::to_string(vnodes) + "\n";
  return out;
}

bool ParseTopology(std::string_view text, uint64_t* epoch,
                   std::vector<size_t>* members, size_t* vnodes) {
  bool have_epoch = false, have_members = false, have_vnodes = false;
  bool first = true;
  while (!text.empty()) {
    const size_t nl = text.find('\n');
    std::string_view line =
        nl == std::string_view::npos ? text : text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    if (first) {
      if (line != "mlcask-topology v1") return false;
      first = false;
      continue;
    }
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) return false;
    std::string_view name = line.substr(0, eq);
    std::string_view value = line.substr(eq + 1);
    if (name == "epoch") {
      std::vector<size_t> one;
      if (!ParseSlots(value, &one) || one.size() != 1) return false;
      *epoch = one[0];
      have_epoch = true;
    } else if (name == "members") {
      if (!ParseSlots(value, members)) return false;
      have_members = true;
    } else if (name == "vnodes") {
      std::vector<size_t> one;
      if (!ParseSlots(value, &one) || one.size() != 1) return false;
      *vnodes = one[0];
      have_vnodes = true;
    }  // Unknown fields are skipped: older routers tolerate newer records.
  }
  return have_epoch && have_members && have_vnodes && !members->empty();
}

}  // namespace

// ----------------------------------------------------------- ring policy ---

bool ShardRing::Contains(size_t slot) const {
  return std::find(members.begin(), members.end(), slot) != members.end();
}

ShardRing BuildShardRing(uint64_t epoch, std::vector<size_t> members,
                         size_t vnodes) {
  ShardRing ring;
  ring.epoch = epoch;
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  ring.members = std::move(members);
  const size_t points = std::max<size_t>(1, vnodes);
  for (size_t s : ring.members) {
    for (size_t v = 0; v < points; ++v) {
      // First-writer-wins on the (astronomically unlikely) point collision;
      // the ring stays deterministic either way. Labels depend on the SLOT
      // only, so a slot's points are identical in every epoch.
      ring.points.emplace(
          RingPoint("ring/" + std::to_string(s) + "#" + std::to_string(v)), s);
    }
  }
  return ring;
}

size_t RingOwner(const ShardRing& ring, std::string_view key) {
  MLCASK_CHECK_MSG(!ring.points.empty(), "ring has no points");
  auto it = ring.points.lower_bound(RingPoint(key));
  if (it == ring.points.end()) it = ring.points.begin();  // wrap around
  return it->second;
}

std::vector<KeyMove> PlanMigration(const ShardRing& from, const ShardRing& to,
                                   std::vector<std::string> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<KeyMove> moves;
  for (std::string& key : keys) {
    const size_t old_owner = RingOwner(from, key);
    const size_t new_owner = RingOwner(to, key);
    if (old_owner == new_owner) continue;
    moves.push_back({std::move(key), old_owner, new_owner});
  }
  return moves;  // sorted by key: the order the cursor advances in
}

// ----------------------------------------------------------- construction ---

ShardedStorageEngine::ShardedStorageEngine(
    std::vector<std::unique_ptr<StorageEngine>> shards)
    : ShardedStorageEngine(std::move(shards), Options()) {}

ShardedStorageEngine::ShardedStorageEngine(
    std::vector<std::unique_ptr<StorageEngine>> shards, Options options)
    : shards_(std::move(shards)), options_(std::move(options)) {
  MLCASK_CHECK_MSG(!shards_.empty(),
                   "sharded engine needs at least one shard");
  MLCASK_CHECK_MSG(shards_.size() <= kSlotCapacity,
                   "sharded engine slot capacity exceeded");
  // Reserve the full slot capacity once: AddShard's push_back must never
  // reallocate under concurrent readers of existing slots.
  shards_.reserve(kSlotCapacity);
  std::vector<size_t> members(shards_.size());
  std::iota(members.begin(), members.end(), size_t{0});
  current_ring_ = BuildShardRing(/*epoch=*/0, std::move(members),
                                 options_.virtual_nodes_per_shard);
  tp_stats_.per_shard_round_trips.assign(shards_.size(), 0);
  bc_stats_.per_shard_probes.assign(shards_.size(), 0);
  consecutive_failures_.assign(shards_.size(), 0);
  half_open_skips_.assign(shards_.size(), 0);
}

// ---------------------------------------------------------------- health ---

void ShardedStorageEngine::NoteShardResult(size_t shard,
                                           const Status& status) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  if (status.ok()) {
    consecutive_failures_[shard] = 0;
    half_open_skips_[shard] = 0;
    return;
  }
  // Only unreachability counts against health: a shard that ANSWERS with
  // NotFound / InvalidArgument / etc. is alive and routing to it is fine.
  if (status.code() == StatusCode::kUnavailable ||
      status.code() == StatusCode::kDeadlineExceeded) {
    consecutive_failures_[shard] += 1;
  }
}

bool ShardedStorageEngine::SkipDownShard(size_t shard) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  if (consecutive_failures_[shard] < kDownFailures) return false;
  half_open_skips_[shard] += 1;
  // A freshly-down shard gets ONE immediate probe — the first fan-out
  // after the down transition — so an outage shorter than the fan-out
  // cadence heals in one request instead of waiting out kHalfOpenEvery
  // skips first.
  if (half_open_skips_[shard] == 1) return false;
  // Half-open: let every kHalfOpenEvery-th fan-out through so a recovered
  // shard's first success resets the streak without operator action.
  return half_open_skips_[shard] % kHalfOpenEvery != 0;
}

bool ShardedStorageEngine::ShardDown(size_t shard) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return consecutive_failures_[shard] >= kDownFailures;
}

ShardedStorageEngine::ShardHealthView ShardedStorageEngine::shard_health()
    const {
  std::lock_guard<std::mutex> lock(health_mu_);
  ShardHealthView view;
  view.state.reserve(consecutive_failures_.size());
  for (uint64_t failures : consecutive_failures_) {
    view.state.push_back(failures == 0 ? ShardHealth::kUp
                         : failures < kDownFailures ? ShardHealth::kDegraded
                                                    : ShardHealth::kDown);
  }
  view.consecutive_failures = consecutive_failures_;
  return view;
}

void ShardedStorageEngine::MarkShardRecovered(size_t shard) {
  std::lock_guard<std::mutex> lock(health_mu_);
  consecutive_failures_[shard] = 0;
  half_open_skips_[shard] = 0;
}

// --------------------------------------------------------------- routing ---

size_t ShardedStorageEngine::num_shards() const { return SlotCount(); }

size_t ShardedStorageEngine::SlotCount() const {
  std::shared_lock<std::shared_mutex> lock(topo_mu_);
  return shards_.size();
}

std::vector<size_t> ShardedStorageEngine::live_members() const {
  std::shared_lock<std::shared_mutex> lock(topo_mu_);
  if (!migrating_.load(std::memory_order_acquire)) {
    return current_ring_.members;
  }
  std::vector<size_t> live = current_ring_.members;
  for (size_t s : prev_ring_.members) {
    if (std::find(live.begin(), live.end(), s) == live.end()) {
      live.push_back(s);
    }
  }
  std::sort(live.begin(), live.end());
  return live;
}

size_t ShardedStorageEngine::coordinator_shard() const {
  std::shared_lock<std::shared_mutex> lock(topo_mu_);
  return current_ring_.members.front();
}

size_t ShardedStorageEngine::plan_shard() const { return coordinator_shard(); }

uint64_t ShardedStorageEngine::ring_epoch() const {
  std::shared_lock<std::shared_mutex> lock(topo_mu_);
  return current_ring_.epoch;
}

ShardedStorageEngine::Route ShardedStorageEngine::TryRouteKey(
    std::string_view key, bool for_write) const {
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  if (!migrating_.load(std::memory_order_acquire)) {
    return {RingOwner(current_ring_, key), false};
  }
  // Dual-epoch window: a key both rings agree on routes normally; a
  // reassigned key is at its NEW owner once the cursor passed it, at its
  // OLD owner before, and mid-copy (in the in-flight batch) the caller
  // must wait for the batch to land.
  const size_t new_owner = RingOwner(current_ring_, key);
  const size_t old_owner = RingOwner(prev_ring_, key);
  if (new_owner == old_owner) return {new_owner, false};
  std::lock_guard<std::mutex> mig(mig_mu_);
  if (inflight_keys_.find(key) != inflight_keys_.end()) return {0, true};
  if (key <= std::string_view(mig_cursor_)) return {new_owner, false};
  // Past the cursor: the key (if it exists) still lives at its old owner.
  if (for_write) {
    // A batch is mid-copy: its cursor advance is about to route every key
    // at or below its last key to the new owner, so a write landing on the
    // old owner NOW could be stranded there. Writes wait the batch out;
    // reads stay safe on the old owner.
    if (mig_batch_active_) return {0, true};
    // No batch in flight: the write lands on the old owner. Remember it —
    // this key postdates the pass enumeration, so the next batch must fold
    // it in before the cursor may pass it.
    mig_dirty_.insert(std::string(key));
  }
  return {old_owner, false};
}

void ShardedStorageEngine::WaitRouteUnblocked(std::string_view key,
                                              bool for_write) const {
  std::unique_lock<std::mutex> lock(mig_mu_);
  mig_cv_.wait(lock, [&] {
    if (inflight_keys_.find(key) != inflight_keys_.end()) return false;
    // Mirror of TryRouteKey's write gate: a write past the cursor waits
    // out an active batch (the cursor advance would strand it otherwise).
    if (for_write && mig_batch_active_ &&
        key > std::string_view(mig_cursor_)) {
      return false;
    }
    return true;
  });
}

size_t ShardedStorageEngine::RouteKeyBlocking(std::string_view key,
                                              bool for_write) const {
  while (true) {
    Route r = TryRouteKey(key, for_write);
    if (!r.in_flight) return r.shard;
    WaitRouteUnblocked(key, for_write);
  }
}

size_t ShardedStorageEngine::ShardForKey(std::string_view key) const {
  return RouteKeyBlocking(key, /*for_write=*/false);
}

bool ShardedStorageEngine::IsReplicated(std::string_view key) const {
  for (const std::string& prefix : options_.replicated_prefixes) {
    if (StartsWith(key, prefix)) return true;
  }
  return false;
}

bool ShardedStorageEngine::IsInternalKey(std::string_view key) const {
  return IsStagingKey(key) || IsMigrationKey(key);
}

void ShardedStorageEngine::RecordVersion(const Hash256& id, size_t shard) {
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  version_shard_[id] = shard;
}

StatusOr<PutResult> ShardedStorageEngine::DirectPut(const std::string& key,
                                                    std::string_view data) {
  return WithStableRoute(key, /*for_write=*/true,
                         [&](size_t shard) -> StatusOr<PutResult> {
    auto result = shards_[shard]->Put(key, data);
    NoteShardResult(shard, result.ok() ? Status::Ok() : result.status());
    if (!result.ok()) return result.status();
    RecordVersion(result->id, shard);
    return *result;
  });
}

// ------------------------------------------------------- two-phase commit ---

Status ShardedStorageEngine::RunTransactionLocked(
    const std::vector<ShardWrite>& writes, std::vector<PutResult>* results) {
  // The caller holds txn_mu_: one coordinated transaction at a time.
  // Without this, two concurrent transactions touching a replicated key
  // could interleave their apply loops in opposite orders on different
  // shards, leaving the replicas' latest-version views permanently
  // divergent. Migration batches and topology changes take the same lock,
  // so the routing the caller decided stays valid for the transaction's
  // whole lifetime. Transactions are control-plane writes (commit logs,
  // merge winners), so serializing them costs nothing on the hot path;
  // uncoordinated DirectPuts never take it.
  const uint64_t txn = txn_counter_.fetch_add(1, std::memory_order_relaxed);
  // The shard holding the durable commit decision (and only it — one
  // authority, no split brain). Stable here: topology changes serialize on
  // txn_mu_ too.
  const size_t coord = coordinator_shard();
  // Round-trip ledger of THIS transaction, accumulated locally while the
  // phases run. The InflightMeter records whatever overlap the code
  // structure actually achieved — the overlapped fan-out reaches the
  // participant count, a serial issue-wait loop never leaves 1.
  struct {
    uint64_t prepare_round_trips = 0;
    uint64_t apply_round_trips = 0;
    uint64_t decision_round_trips = 0;
    InflightMeter meter;
    std::vector<uint64_t> per_shard;
    void Issue(size_t shard) {
      meter.Issue();
      per_shard[shard] += 1;
    }
    void Collect() { meter.Collect(); }
  } ledger;
  ledger.per_shard.assign(SlotCount(), 0);
  // Telemetry lands in tp_stats_ as ONE unit when the transaction resolves
  // (commit or abort), never piecemeal: a concurrent stats reader must see
  // transactions == commits + aborts in every snapshot.
  auto resolve = [&](bool committed) {
    std::lock_guard<std::mutex> stats_lock(tp_stats_mu_);
    tp_stats_.transactions += 1;
    tp_stats_.prepared_writes += writes.size();
    if (committed) {
      tp_stats_.commits += 1;
    } else {
      tp_stats_.aborts += 1;
    }
    tp_stats_.prepare_round_trips += ledger.prepare_round_trips;
    tp_stats_.apply_round_trips += ledger.apply_round_trips;
    tp_stats_.decision_round_trips += ledger.decision_round_trips;
    tp_stats_.max_inflight_round_trips =
        std::max(tp_stats_.max_inflight_round_trips, ledger.meter.peak);
    for (size_t s = 0; s < ledger.per_shard.size(); ++s) {
      tp_stats_.per_shard_round_trips[s] += ledger.per_shard[s];
    }
  };

  auto staging_key_for = [&](size_t write_index) {
    return StrFormat("%stxn%llu/s%zu/w%zu/",
                     std::string(kStagingPrefix).c_str(),
                     static_cast<unsigned long long>(txn),
                     writes[write_index].shard, write_index) +
           writes[write_index].request->key;
  };

  /// The durable commit decision for THIS transaction, written to the
  /// coordinator shard after a unanimous prepare. Recovery rolls a
  /// transaction forward iff this record exists.
  const std::string decision_key =
      StrFormat("%stxn%llu/decision", std::string(kStagingPrefix).c_str(),
                static_cast<unsigned long long>(txn));

  // Participant shards and their writes, in original write order.
  std::map<size_t, std::vector<size_t>> by_shard;
  for (size_t i = 0; i < writes.size(); ++i) {
    by_shard[writes[i].shard].push_back(i);
  }

  // Deadline fail-fast: a transaction whose caller budget is already spent
  // aborts before staging a single byte — under overload, dead requests
  // must shed work, not generate three more fan-out phases of it.
  if (Status budget = DeadlineScope::CheckCurrent("2pc transaction");
      !budget.ok()) {
    resolve(/*committed=*/false);
    return budget;
  }

  // Health pre-check: a participant the router already knows is down makes
  // the outcome a foregone conclusion — abort with a typed status BEFORE
  // staging anything, instead of burning a per-shard timeout to rediscover
  // it. SkipDownShard's half-open pass-through still lets every
  // kHalfOpenEvery-th transaction probe the shard, so recovery needs no
  // operator action.
  for (const auto& [shard, indices] : by_shard) {
    if (SkipDownShard(shard)) {
      resolve(/*committed=*/false);
      return Status::Unavailable(
          "2pc aborted before staging: shard " + std::to_string(shard) +
          " is down (" +
          std::to_string(shard_health().consecutive_failures[shard]) +
          " consecutive failures)");
    }
  }

  // Staging keys are deterministic, so cleanup resolves what actually
  // landed by LOOKUP rather than by remembered ids — it stays correct even
  // when a prepare batch failed halfway and returned no results. Leftover
  // staging records would be invisible anyway (filtered from
  // ListAllVersions); best effort is fine.
  auto cleanup_staged = [&]() {
    for (const auto& [shard, indices] : by_shard) {
      for (size_t i : indices) {
        for (const Hash256& id : shards_[shard]->Versions(staging_key_for(i))) {
          (void)shards_[shard]->DeleteVersion(id);
        }
      }
    }
    // The decision record is part of the transaction's staging footprint:
    // commit and abort alike must leave zero __2pc__/ keys behind.
    for (const Hash256& id : shards_[coord]->Versions(decision_key)) {
      (void)shards_[coord]->DeleteVersion(id);
    }
  };

  // Phase 1: stage every value, raw, on its participant shard — ONE
  // PutMany batch per shard (a single message on a remote proxy), every
  // participant's batch ISSUED before any response is collected, so the
  // prepare round trips overlap instead of serializing over the wire. The
  // staging key names the target key, so a recovering router can replay
  // the write; the staged version ids are what phase 2 applies by
  // reference and what a committed transaction deletes.
  std::vector<std::pair<size_t, Deferred<std::vector<PutResult>>>> prepares;
  prepares.reserve(by_shard.size());
  for (const auto& [shard, indices] : by_shard) {
    std::vector<PutRequest> staging;
    staging.reserve(indices.size());
    for (size_t i : indices) {
      staging.push_back({staging_key_for(i), writes[i].request->data});
    }
    prepares.emplace_back(shard, shards_[shard]->AsyncPutMany(staging));
    ledger.Issue(shard);
    ledger.prepare_round_trips += 1;
  }
  std::vector<Hash256> staged_ids(writes.size());
  Status prepare_failure;
  size_t prepare_failed_shard = 0;
  for (auto& [shard, deferred] : prepares) {
    auto prepared = deferred.Get();
    ledger.Collect();
    NoteShardResult(shard,
                    prepared.ok() ? Status::Ok() : prepared.status());
    if (!prepared.ok()) {
      if (prepare_failure.ok()) {
        prepare_failure = prepared.status();
        prepare_failed_shard = shard;
      }
      continue;
    }
    // PutMany answers one result per request, in order.
    const std::vector<size_t>& indices = by_shard[shard];
    for (size_t k = 0; k < indices.size(); ++k) {
      staged_ids[indices[k]] = (*prepared)[k].id;
    }
  }
  // One completed fan-out round consumed at least one accounting unit of
  // the caller's budget: the decision-phase stamps must be STRICTLY below
  // the prepare-phase stamps (the deadline-shrink proof-by-accounting),
  // even when the whole phase ran faster than the wall clock ticks.
  DeadlineScope::ChargeCurrent(1);
  if (!prepare_failure.ok()) {
    cleanup_staged();
    resolve(/*committed=*/false);
    return Status(prepare_failure.code(),
                  "2pc prepare failed on shard " +
                      std::to_string(prepare_failed_shard) + ": " +
                      prepare_failure.message());
  }
  // Last safe bail-out: past the decision write the transaction MUST roll
  // forward (the durable decision makes recovery re-apply it), so a spent
  // budget aborts here — staged intents cleaned, nothing real applied.
  if (Status budget = DeadlineScope::CheckCurrent("2pc decision phase");
      !budget.ok()) {
    cleanup_staged();
    resolve(/*committed=*/false);
    return budget;
  }

  // Decision point: persist the commit decision durably on the coordinator
  // BEFORE any real write lands. From here on a crashed coordinator's
  // transaction is recoverable — RecoverTwoPhase finds the decision and
  // rolls the staged writes forward; without it the staged writes are
  // fenced. A failed decision write is therefore a clean abort: nothing real
  // has applied.
  Hash256 decision_id;
  {
    std::string decision(kIntentHeader);
    decision.append("commit");
    ledger.Issue(coord);
    ledger.decision_round_trips += 1;
    auto decided = shards_[coord]->Put(decision_key, decision);
    ledger.Collect();
    DeadlineScope::ChargeCurrent(1);  // decision round collected
    NoteShardResult(coord, decided.ok() ? Status::Ok() : decided.status());
    if (!decided.ok()) {
      cleanup_staged();
      resolve(/*committed=*/false);
      return Status(decided.status().code(),
                    "2pc decision write failed on shard " +
                        std::to_string(coord) + ": " +
                        decided.status().message() +
                        " (transaction aborted, nothing applied)");
    }
    decision_id = decided->id;
  }

  // Phase 2: unanimous prepare — apply the real writes BY REFERENCE: each
  // participant copies its staged version to the target key (CopyVersion),
  // so no value crosses the wire twice and a deduplicating shard shares the
  // staged chunks instead of chunking and hashing the value again. The
  // result, id included, is the one a Put of the value would return.
  // Applies stay per-write (a failure must know exactly which version ids
  // to roll back), but ALL of them are issued before any is collected:
  // same-shard writes pipeline in order on one session (preserving each
  // engine's key+ordinal version-id sequence), different shards' applies
  // overlap.
  std::vector<Deferred<PutResult>> applies;
  applies.reserve(writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    const ShardWrite& w = writes[i];
    applies.push_back(
        shards_[w.shard]->AsyncCopyVersion(w.request->key, staged_ids[i]));
    ledger.Issue(w.shard);
    ledger.apply_round_trips += 1;
  }
  std::vector<StatusOr<PutResult>> applied_results;
  applied_results.reserve(writes.size());
  for (size_t i = 0; i < applies.size(); ++i) {
    applied_results.push_back(applies[i].Get());
    ledger.Collect();
    NoteShardResult(writes[i].shard, applied_results.back().ok()
                                         ? Status::Ok()
                                         : applied_results.back().status());
  }
  DeadlineScope::ChargeCurrent(1);  // apply round collected
  for (size_t i = 0; i < writes.size(); ++i) {
    if (applied_results[i].ok()) continue;
    // Prepare voted yes everywhere, so an apply failure is a broken
    // participant, not a routine abort — but partial state must not
    // surface. REVOKE the commit decision first: once it is gone a
    // concurrent or later recovery fences this transaction instead of
    // rolling it forward, so the rollback below cannot race a re-apply.
    // (If the coordinator dies between this delete and the rollback, the
    // already-applied writes survive as real versions — a known limitation;
    // the recovery scan at least can no longer resurrect the rest.)
    for (const Hash256& did : shards_[coord]->Versions(decision_key)) {
      (void)shards_[coord]->DeleteVersion(did);
    }
    // Roll back every write that DID apply (safe even for
    // deduplicated applies: both engines derive version ids from
    // key + ordinal, so a fresh Put always creates a fresh id and the
    // delete can never take an older object with it) and account the
    // transaction as aborted.
    for (size_t j = 0; j < writes.size(); ++j) {
      if (applied_results[j].ok()) {
        (void)shards_[writes[j].shard]->DeleteVersion(applied_results[j]->id);
      }
    }
    cleanup_staged();
    resolve(/*committed=*/false);
    // A timed-out apply is INDETERMINATE, not definitely-failed: the write
    // was on the wire, and a wedged-but-alive shard may still apply it
    // after we gave up (loopback had no timeouts; sockets do). Report that
    // honestly instead of claiming a clean rollback — the operator must
    // recheck that shard when it recovers, or replicas can diverge.
    bool indeterminate = false;
    for (const auto& result : applied_results) {
      if (!result.ok() && result.status().IsDeadlineExceeded()) {
        indeterminate = true;
        break;
      }
    }
    if (indeterminate) {
      return Status::Internal(
          "2pc apply timed out on shard " + std::to_string(writes[i].shard) +
          ": " + applied_results[i].status().message() +
          " (known applies rolled back, but the timed-out write's outcome "
          "is INDETERMINATE — verify that shard before trusting replicas)");
    }
    return Status::Internal(
        "2pc apply failed on shard " + std::to_string(writes[i].shard) +
        ": " + applied_results[i].status().message() +
        " (transaction rolled back)");
  }
  struct Slot {
    bool filled = false;
    PutResult result;      ///< Coordinator replica when replicated.
    double max_time_s = 0;
    size_t replicas = 0;
    size_t last_shard = 0;
  };
  std::map<size_t, Slot> slots;  // batch index -> merged result
  for (size_t i = 0; i < writes.size(); ++i) {
    const ShardWrite& w = writes[i];
    const PutResult& applied = *applied_results[i];
    Slot& slot = slots[w.batch_index];
    slot.replicas += 1;
    slot.last_shard = w.shard;
    slot.max_time_s = std::max(slot.max_time_s, applied.storage_time_s);
    if (!slot.filled || w.shard == coord) {
      slot.filled = true;
      slot.result = applied;
    }
  }
  // Committed: every staging record is known by id, so cleanup is ONE
  // overlapped round of deletes — issued in the order cleanup_staged()
  // visits them, then collected — instead of a lookup and a delete per
  // record in series. Best effort like every cleanup: a leftover record
  // stays invisible (filtered from ListAllVersions) until recovery.
  std::vector<Deferred<uint64_t>> deletes;
  deletes.reserve(writes.size() + 1);
  for (const auto& [shard, indices] : by_shard) {
    for (size_t i : indices) {
      deletes.push_back(shards_[shard]->AsyncDeleteVersion(staged_ids[i]));
    }
  }
  deletes.push_back(shards_[coord]->AsyncDeleteVersion(decision_id));
  for (Deferred<uint64_t>& deleted : deletes) (void)deleted.Get();
  resolve(/*committed=*/true);

  for (auto& [batch_index, slot] : slots) {
    // Replicas write in parallel in a real deployment: charge the slowest.
    slot.result.storage_time_s = slot.max_time_s;
    RecordVersion(slot.result.id,
                  slot.replicas > 1 ? kReplicated : slot.last_shard);
    (*results)[batch_index] = slot.result;
  }
  return Status::Ok();
}

// ------------------------------------------------------------ public API ---

StatusOr<PutResult> ShardedStorageEngine::Put(const std::string& key,
                                              std::string_view data) {
  if (!IsReplicated(key)) {
    return DirectPut(key, data);
  }
  // Replicated namespace: coordinate all live shards even for one key —
  // this is the branch-table/commit-log write path, and every shard must
  // agree. During a rebalance "all live" is the UNION of both epochs'
  // members: the leaving shard still serves replicated reads until it
  // drains, the joining one was pre-seeded by AddShard.
  std::lock_guard<std::mutex> txn_lock(txn_mu_);
  PutRequest request{key, std::string(data)};
  std::vector<ShardWrite> writes;
  const std::vector<size_t> replicas = live_members();
  writes.reserve(replicas.size());
  for (size_t s : replicas) {
    writes.push_back({s, 0, &request});
  }
  std::vector<PutResult> results(1);
  MLCASK_RETURN_IF_ERROR(RunTransactionLocked(writes, &results));
  return results[0];
}

StatusOr<std::vector<PutResult>> ShardedStorageEngine::PutMany(
    const std::vector<PutRequest>& batch) {
  if (batch.empty()) return std::vector<PutResult>();
  if (batch.size() == 1 && !IsReplicated(batch[0].key)) {
    // One write on one shard: no coordination needed.
    std::vector<PutResult> results(1);
    MLCASK_ASSIGN_OR_RETURN(results[0],
                            DirectPut(batch[0].key, batch[0].data));
    return results;
  }
  // Route under the transaction lock: migration batches serialize on it,
  // so a shard decided here cannot lose the key before the apply lands.
  std::lock_guard<std::mutex> txn_lock(txn_mu_);
  std::vector<ShardWrite> writes;
  const std::vector<size_t> replicas = live_members();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (IsReplicated(batch[i].key)) {
      for (size_t s : replicas) {
        writes.push_back({s, i, &batch[i]});
      }
    } else {
      writes.push_back(
          {RouteKeyBlocking(batch[i].key, /*for_write=*/true), i, &batch[i]});
    }
  }
  std::vector<PutResult> results(batch.size());
  if (writes.empty()) return results;
  MLCASK_RETURN_IF_ERROR(RunTransactionLocked(writes, &results));
  return results;
}

StatusOr<std::string> ShardedStorageEngine::Get(const std::string& key) {
  if (IsReplicated(key)) {
    return shards_[coordinator_shard()]->Get(key);
  }
  return WithStableRoute(key, /*for_write=*/false,
                         [&](size_t shard) { return shards_[shard]->Get(key); });
}

StatusOr<std::string> ShardedStorageEngine::GetVersion(const Hash256& id) {
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    auto it = version_shard_.find(id);
    if (it != version_shard_.end()) {
      const size_t shard =
          it->second == kReplicated ? coordinator_shard() : it->second;
      lock.unlock();
      return shards_[shard]->GetVersion(id);
    }
  }
  // Not in the router index (e.g. a restored shard): broadcast probe, every
  // shard's round trip issued before the first response is inspected.
  // Responses are still judged in shard order, so the answer (first holder
  // wins, first non-NotFound error surfaces) is identical to the old
  // serial loop — only the wire latency stops multiplying by shard count.
  // Shards the health tracker knows are down are skipped (no timeout
  // burned); if the id is then found nowhere, the honest answer is a typed
  // Unavailable naming them, NOT NotFound — the version may well live on a
  // shard we could not ask.
  std::vector<std::pair<size_t, Deferred<std::string>>> probes;
  std::vector<size_t> probed;
  std::vector<size_t> skipped;
  const std::vector<size_t> live = live_members();
  probes.reserve(live.size());
  InflightMeter meter;
  for (size_t s : live) {
    if (SkipDownShard(s)) {
      skipped.push_back(s);
      continue;
    }
    probes.emplace_back(s, shards_[s]->AsyncGetVersion(id));
    probed.push_back(s);
    meter.Issue();
  }
  RecordBroadcast(meter.peak, probed);
  // One broadcast round = one accounting charge against the caller's
  // deadline budget, win or lose (early returns included): downstream
  // stamps after this probe must be strictly smaller.
  DeadlineScope::ChargeCurrent(1);
  for (auto& [s, probe] : probes) {
    auto data = probe.Get();
    meter.Collect();
    NoteShardResult(s, data.ok() || data.status().IsNotFound()
                           ? Status::Ok()
                           : data.status());
    if (data.ok()) return data;
    if (!data.status().IsNotFound()) return data.status();
  }
  if (!skipped.empty()) {
    std::string names;
    for (size_t s : skipped) {
      if (!names.empty()) names += ",";
      names += std::to_string(s);
    }
    return Status::Unavailable("version " + id.ShortHex() +
                               " not on any reachable shard (shard(s) " +
                               names + " down, not probed)");
  }
  return Status::NotFound("version " + id.ShortHex() + " not on any shard");
}

bool ShardedStorageEngine::HasVersion(const Hash256& id) const {
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    auto it = version_shard_.find(id);
    if (it != version_shard_.end()) {
      const size_t shard =
          it->second == kReplicated ? coordinator_shard() : it->second;
      lock.unlock();
      return shards_[shard]->HasVersion(id);
    }
  }
  // Down shards are skipped: HasVersion has no error channel, so the
  // degraded answer for an unreachable holder is false (the documented
  // fallback for transport failure anyway).
  std::vector<std::pair<size_t, Deferred<bool>>> probes;
  std::vector<size_t> probed;
  const std::vector<size_t> live = live_members();
  probes.reserve(live.size());
  InflightMeter meter;
  for (size_t s : live) {
    if (SkipDownShard(s)) continue;
    probes.emplace_back(s, shards_[s]->AsyncHasVersion(id));
    probed.push_back(s);
    meter.Issue();
  }
  RecordBroadcast(meter.peak, probed);
  DeadlineScope::ChargeCurrent(1);  // broadcast round issued+collected below
  bool found = false;
  for (auto& [s, probe] : probes) {
    auto has = probe.Get();
    meter.Collect();
    // Every probe is collected (each answer feeds the health tracker);
    // any holder makes the answer true.
    NoteShardResult(s, has.ok() ? Status::Ok() : has.status());
    if (has.ok() && *has) found = true;
  }
  return found;
}

std::vector<Hash256> ShardedStorageEngine::Versions(
    const std::string& key) const {
  if (IsReplicated(key)) {
    return shards_[coordinator_shard()]->Versions(key);
  }
  return WithStableRoute(
      key, /*for_write=*/false,
      [&](size_t shard) { return shards_[shard]->Versions(key); });
}

std::vector<std::pair<std::string, Hash256>>
ShardedStorageEngine::ListAllVersions() const {
  std::vector<std::pair<std::string, Hash256>> all;
  const std::vector<size_t> live = live_members();
  const size_t coord = coordinator_shard();
  const bool dedupe = migration_in_progress();
  // Mid-migration a key copied but not yet cleared exists on both its old
  // and new owner; surface one logical copy.
  std::set<std::pair<std::string, Hash256>> seen;
  for (size_t s : live) {
    for (auto& entry : shards_[s]->ListAllVersions()) {
      if (IsInternalKey(entry.first)) continue;  // 2pc/migration records
      // Replicated keys exist on every shard; surface one logical copy.
      if (s != coord && IsReplicated(entry.first)) continue;
      if (dedupe && !seen.insert(entry).second) continue;
      all.push_back(std::move(entry));
    }
  }
  return all;
}

StatusOr<uint64_t> ShardedStorageEngine::DeleteVersion(const Hash256& id) {
  size_t shard = kReplicated;
  bool indexed = false;
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    auto it = version_shard_.find(id);
    if (it != version_shard_.end()) {
      shard = it->second;
      indexed = true;
    }
  }
  const std::vector<size_t> live = live_members();
  // A delete must be able to reach EVERY potential holder: deciding with a
  // down shard in the cluster risks leaking its replica or leaving a
  // replicated version half-deleted (permanent divergence). Fail fast with
  // a typed status instead; the caller retries once the shard is back.
  for (size_t s : live) {
    if (ShardDown(s)) {
      return Status::Unavailable(
          "cannot delete version " + id.ShortHex() + ": shard " +
          std::to_string(s) + " is down and may hold a replica");
    }
  }
  if (!indexed) {
    // Not in the router index (a restored shard): probe everywhere
    // (overlapped broadcast). More than one holder means a replicated
    // version — fall through to the delete-every-replica branch, otherwise
    // replicas would leak.
    std::vector<std::pair<size_t, Deferred<bool>>> probes;
    std::vector<size_t> probed;
    probes.reserve(live.size());
    InflightMeter meter;
    for (size_t s : live) {
      probes.emplace_back(s, shards_[s]->AsyncHasVersion(id));
      probed.push_back(s);
      meter.Issue();
    }
    RecordBroadcast(meter.peak, probed);
    std::vector<size_t> holders;
    Status probe_failure;
    for (auto& [s, probe] : probes) {
      auto has = probe.Get();
      meter.Collect();
      NoteShardResult(s, has.ok() ? Status::Ok() : has.status());
      if (!has.ok() && probe_failure.ok()) probe_failure = has.status();
      if (has.ok() && *has) holders.push_back(s);
    }
    if (!probe_failure.ok()) {
      // A shard that cannot answer might be the holder: deciding NotFound
      // here would leak its replica (and deleting only the reachable
      // replicas of a replicated version would leave the cluster
      // permanently divergent). Surface the failure; the caller retries
      // when the shard is back.
      return probe_failure;
    }
    if (holders.empty()) {
      return Status::NotFound("version " + id.ShortHex() + " not on any shard");
    }
    shard = holders.size() == 1 ? holders[0] : kReplicated;
  }
  uint64_t freed = 0;
  if (shard == kReplicated) {
    // Drop every replica; report one replica's freed bytes (the logical
    // view counts one copy).
    bool counted = false;
    for (size_t s : live) {
      auto result = shards_[s]->DeleteVersion(id);
      if (!result.ok() && !result.status().IsNotFound()) {
        return result.status();
      }
      if (result.ok() && !counted) {
        freed = *result;
        counted = true;
      }
    }
  } else {
    MLCASK_ASSIGN_OR_RETURN(freed, shards_[shard]->DeleteVersion(id));
  }
  {
    std::unique_lock<std::shared_mutex> lock(index_mu_);
    version_shard_.erase(id);
  }
  return freed;
}

EngineStats ShardedStorageEngine::stats() const {
  EngineStats total;
  for (size_t s : live_members()) {
    EngineStats shard_stats = shards_[s]->stats();
    total.logical_bytes += shard_stats.logical_bytes;
    total.physical_bytes += shard_stats.physical_bytes;
    total.storage_time_s += shard_stats.storage_time_s;
    total.puts += shard_stats.puts;
    total.gets += shard_stats.gets;
  }
  return total;
}

std::string ShardedStorageEngine::Name() const {
  const std::vector<size_t> live = live_members();
  return "sharded-" + std::to_string(live.size()) + "x[" +
         shards_[live.front()]->Name() + "]";
}

double ShardedStorageEngine::ReadCost(uint64_t bytes) const {
  return shards_[coordinator_shard()]->ReadCost(bytes);
}

ShardedStorageEngine::TwoPhaseStats ShardedStorageEngine::two_phase_stats()
    const {
  std::lock_guard<std::mutex> lock(tp_stats_mu_);
  return tp_stats_;
}

Status ShardedStorageEngine::RecoverTwoPhase() {
  // Recovery is itself a coordinated mutation: hold the transaction lock so
  // no new transaction interleaves with the scan-and-resolve pass.
  std::lock_guard<std::mutex> txn_lock(txn_mu_);
  return RecoverTwoPhaseLocked();
}

Status ShardedStorageEngine::RecoverTwoPhaseLocked() {
  const size_t coord = coordinator_shard();

  struct StagedRecord {
    size_t shard = 0;
    std::string key;  ///< Full staging key (staged write or decision).
    Hash256 id;
    bool is_decision = false;
  };
  std::map<uint64_t, std::vector<StagedRecord>> txns;
  std::map<uint64_t, bool> committed;  ///< Decision present on coordinator.
  uint64_t max_txn = 0;
  for (size_t s : live_members()) {
    for (const auto& [key, id] : shards_[s]->ListAllVersions()) {
      uint64_t txn = 0;
      bool is_decision = false;
      if (!ParseStagingKey(key, &txn, &is_decision)) continue;
      txns[txn].push_back({s, key, id, is_decision});
      // Only the coordinator's copy of the decision is authoritative: the
      // coordinator never writes it anywhere else, so a stray decision on
      // another shard is garbage and gets deleted with the rest.
      if (is_decision && s == coord) committed[txn] = true;
      max_txn = std::max(max_txn, txn);
    }
  }

  uint64_t recovered = 0;
  uint64_t fenced = 0;
  uint64_t replayed = 0;
  Status first_failure;

  for (auto& [txn, records] : txns) {
    bool roll_forward = committed.count(txn) > 0;
    if (roll_forward) {
      // Committed: the dead coordinator promised these writes. Re-apply
      // each staged write — idempotently: a write the coordinator already
      // landed exists as a version of the target key with the staged value's
      // exact bytes, and is recognized instead of applied again.
      // Replicated keys (the same target key staged on >1 shard) re-enter
      // the router index as replicated.
      std::map<std::string, size_t> key_shards;  // target key -> shard count
      struct Replay {
        size_t shard;
        std::string key;
        Hash256 staged_id;
        std::string data;
      };
      std::vector<Replay> replays;
      bool txn_ok = true;
      for (const StagedRecord& record : records) {
        if (record.is_decision) continue;
        std::string_view target_key;
        if (!ParseStagingTarget(record.key, &target_key)) {
          if (first_failure.ok()) {
            first_failure = Status::Corruption(
                "2pc recovery found a staging key without a target key: " +
                record.key);
          }
          txn_ok = false;
          break;
        }
        auto payload = shards_[record.shard]->GetVersion(record.id);
        if (!payload.ok()) {
          if (first_failure.ok()) {
            first_failure = Status(
                payload.status().code(),
                "2pc recovery cannot read staged write " + record.key +
                    " on shard " + std::to_string(record.shard) + ": " +
                    payload.status().message());
          }
          txn_ok = false;
          break;
        }
        key_shards[std::string(target_key)] += 1;
        replays.push_back({record.shard, std::string(target_key), record.id,
                           *std::move(payload)});
      }
      if (!txn_ok) continue;  // Leave the records; a later pass retries.
      for (const Replay& replay : replays) {
        bool already_applied = false;
        for (const Hash256& vid :
             shards_[replay.shard]->Versions(replay.key)) {
          auto existing = shards_[replay.shard]->GetVersion(vid);
          if (existing.ok() && *existing == replay.data) {
            already_applied = true;
            RecordVersion(vid, key_shards[replay.key] > 1 ? kReplicated
                                                          : replay.shard);
            break;
          }
        }
        if (already_applied) continue;
        auto put =
            shards_[replay.shard]->CopyVersion(replay.key, replay.staged_id);
        if (!put.ok()) {
          if (first_failure.ok()) {
            first_failure = Status(
                put.status().code(),
                "2pc recovery failed to replay " + replay.key +
                    " on shard " + std::to_string(replay.shard) + ": " +
                    put.status().message());
          }
          txn_ok = false;
          break;
        }
        RecordVersion(put->id,
                      key_shards[replay.key] > 1 ? kReplicated : replay.shard);
        replayed += 1;
      }
      if (!txn_ok) continue;
    }
    // Resolved (rolled forward or fenced): destroy every staging record so
    // the writes can never surface again and a rescan comes back clean.
    for (const StagedRecord& record : records) {
      (void)shards_[record.shard]->DeleteVersion(record.id);
    }
    if (roll_forward) {
      recovered += 1;
    } else {
      fenced += 1;
    }
  }

  // A rebuilt router restarts its transaction counter at 0; bump it past
  // every id seen on disk so new staging keys can never collide with
  // leftovers from a previous incarnation.
  if (!txns.empty()) {
    uint64_t expected = txn_counter_.load(std::memory_order_relaxed);
    while (expected <= max_txn &&
           !txn_counter_.compare_exchange_weak(expected, max_txn + 1,
                                               std::memory_order_relaxed)) {
    }
  }

  {
    std::lock_guard<std::mutex> stats_lock(tp_stats_mu_);
    tp_stats_.recovered_transactions += recovered;
    tp_stats_.fenced_transactions += fenced;
    tp_stats_.replayed_writes += replayed;
  }
  return first_failure;
}

void ShardedStorageEngine::RecordBroadcast(
    uint64_t measured_peak_inflight, const std::vector<size_t>& probed) const {
  std::lock_guard<std::mutex> lock(bc_stats_mu_);
  bc_stats_.broadcasts += 1;
  bc_stats_.probe_round_trips += probed.size();
  bc_stats_.max_inflight_probes =
      std::max(bc_stats_.max_inflight_probes, measured_peak_inflight);
  for (size_t s : probed) bc_stats_.per_shard_probes[s] += 1;
}

ShardedStorageEngine::BroadcastStats ShardedStorageEngine::broadcast_stats()
    const {
  std::lock_guard<std::mutex> lock(bc_stats_mu_);
  return bc_stats_;
}

// ------------------------------------------------------------- rebalance ---

ShardedStorageEngine::MigrationStats ShardedStorageEngine::migration_stats()
    const {
  std::lock_guard<std::mutex> lock(mig_stats_mu_);
  return mig_stats_;
}

Status ShardedStorageEngine::PersistPlan(const ShardRing& from,
                                         const ShardRing& to) {
  // The plan lives on the NEW ring's first member: a slot that survives
  // the change by construction (a leaving slot is never in `to`).
  const size_t home = to.members.front();
  auto put = shards_[home]->Put(std::string(kPlanKey),
                                SerializePlan(from, to,
                                              options_.virtual_nodes_per_shard));
  NoteShardResult(home, put.ok() ? Status::Ok() : put.status());
  if (!put.ok()) {
    return Status(put.status().code(),
                  "cannot persist migration plan on shard " +
                      std::to_string(home) + ": " + put.status().message());
  }
  return Status::Ok();
}

Status ShardedStorageEngine::AddShard(std::unique_ptr<StorageEngine> shard) {
  return AddShard(std::move(shard), MigrationOptions());
}

Status ShardedStorageEngine::RemoveShard(size_t slot) {
  return RemoveShard(slot, MigrationOptions());
}

Status ShardedStorageEngine::ResumeMigration() {
  return ResumeMigration(MigrationOptions());
}

Status ShardedStorageEngine::AddShard(std::unique_ptr<StorageEngine> shard,
                                      const MigrationOptions& opts) {
  if (shard == nullptr) {
    return Status::InvalidArgument("AddShard needs an engine");
  }
  std::unique_lock<std::mutex> txn_lock(txn_mu_);
  if (migration_in_progress()) {
    return Status::FailedPrecondition(
        "a rebalance is already in progress (epoch " +
        std::to_string(ring_epoch()) + ")");
  }
  ShardRing old_ring;
  size_t new_slot = 0;
  {
    std::shared_lock<std::shared_mutex> topo(topo_mu_);
    if (shards_.size() >= kSlotCapacity) {
      return Status::FailedPrecondition("slot capacity (" +
                                        std::to_string(kSlotCapacity) +
                                        ") exhausted");
    }
    old_ring = current_ring_;
    new_slot = shards_.size();
  }
  // Seed the replicated namespace onto the new shard while it is still
  // unroutable: every live shard must carry it before the first
  // replicated read or 2PC fan-out can land there. Holding txn_mu_ keeps
  // the namespace frozen for the copy.
  const size_t coord = old_ring.members.front();
  std::set<std::string> replicated_keys;
  for (const auto& [key, id] : shards_[coord]->ListAllVersions()) {
    if (IsInternalKey(key) || !IsReplicated(key)) continue;
    replicated_keys.insert(key);
  }
  std::vector<MigrateKeyVersions> seed;
  seed.reserve(replicated_keys.size());
  for (const std::string& key : replicated_keys) {
    MigrateKeyVersions entry;
    entry.key = key;
    for (const Hash256& id : shards_[coord]->Versions(key)) {
      auto data = shards_[coord]->GetVersion(id);
      if (!data.ok()) {
        return Status(data.status().code(),
                      "cannot read replicated key '" + key +
                          "' for the new shard: " + data.status().message());
      }
      entry.versions.emplace_back(id, std::move(*data));
    }
    seed.push_back(std::move(entry));
  }
  if (!seed.empty()) {
    auto copied = shard->MigrateBatch(seed);
    if (!copied.ok()) {
      return Status(copied.status().code(),
                    "cannot seed replicated namespace on the new shard: " +
                        copied.status().message());
    }
  }
  std::vector<size_t> members = old_ring.members;
  members.push_back(new_slot);
  ShardRing next = BuildShardRing(old_ring.epoch + 1, std::move(members),
                                  options_.virtual_nodes_per_shard);
  // Durable plan BEFORE the epoch flips: a router killed right after the
  // install still leaves a resumable record behind. A failed plan write
  // aborts cleanly — nothing changed yet.
  MLCASK_RETURN_IF_ERROR(PersistPlan(old_ring, next));
  {
    std::unique_lock<std::shared_mutex> topo(topo_mu_);
    shards_.push_back(std::move(shard));
    prev_ring_ = current_ring_;
    current_ring_ = std::move(next);
    migrating_.store(true, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> mig(mig_mu_);
    mig_cursor_.clear();
    mig_dirty_.clear();
  }
  // Drain in-flight writes routed under the PRE-install single-epoch ring:
  // they carry no dirty mark (routing predates the dual-epoch window), so
  // they must have landed before the first enumeration pass or the cursor
  // could overtake them. Writes routed after the install are dirty-tracked.
  { std::unique_lock<std::shared_mutex> drain(mig_write_mu_); }
  // Grow the per-slot telemetry under each owner's lock.
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    consecutive_failures_.push_back(0);
    half_open_skips_.push_back(0);
  }
  {
    std::lock_guard<std::mutex> lock(tp_stats_mu_);
    tp_stats_.per_shard_round_trips.push_back(0);
  }
  {
    std::lock_guard<std::mutex> lock(bc_stats_mu_);
    bc_stats_.per_shard_probes.push_back(0);
  }
  {
    std::lock_guard<std::mutex> lock(mig_stats_mu_);
    mig_stats_.epoch = ring_epoch();
  }
  txn_lock.unlock();
  return DriveMigration(opts);
}

Status ShardedStorageEngine::RemoveShard(size_t slot,
                                         const MigrationOptions& opts) {
  std::unique_lock<std::mutex> txn_lock(txn_mu_);
  if (migration_in_progress()) {
    return Status::FailedPrecondition(
        "a rebalance is already in progress (epoch " +
        std::to_string(ring_epoch()) + ")");
  }
  ShardRing old_ring;
  {
    std::shared_lock<std::shared_mutex> topo(topo_mu_);
    old_ring = current_ring_;
  }
  if (!old_ring.Contains(slot)) {
    return Status::InvalidArgument("shard " + std::to_string(slot) +
                                   " is not a live member");
  }
  if (old_ring.members.size() <= 1) {
    return Status::FailedPrecondition("cannot remove the last shard");
  }
  // Resolve every staged transaction under the OLD topology first: its
  // commit decisions live on the OLD coordinator, which may be exactly the
  // slot that is leaving.
  MLCASK_RETURN_IF_ERROR(RecoverTwoPhaseLocked());
  std::vector<size_t> members;
  members.reserve(old_ring.members.size() - 1);
  for (size_t s : old_ring.members) {
    if (s != slot) members.push_back(s);
  }
  ShardRing next = BuildShardRing(old_ring.epoch + 1, std::move(members),
                                  options_.virtual_nodes_per_shard);
  MLCASK_RETURN_IF_ERROR(PersistPlan(old_ring, next));
  {
    std::unique_lock<std::shared_mutex> topo(topo_mu_);
    prev_ring_ = current_ring_;
    current_ring_ = std::move(next);
    migrating_.store(true, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> mig(mig_mu_);
    mig_cursor_.clear();
    mig_dirty_.clear();
  }
  // Same pre-install write drain as AddShard (see the comment there).
  { std::unique_lock<std::shared_mutex> drain(mig_write_mu_); }
  {
    std::lock_guard<std::mutex> lock(mig_stats_mu_);
    mig_stats_.epoch = ring_epoch();
  }
  txn_lock.unlock();
  return DriveMigration(opts);
}

Status ShardedStorageEngine::ResumeMigration(const MigrationOptions& opts) {
  if (migration_in_progress()) {
    // Paused in-memory (max_batches): the dual-epoch window is still
    // installed, just keep driving.
    return DriveMigration(opts);
  }
  // Scan for the durable plan a killed router left behind. A shard that
  // cannot ANSWER is an error, not "no plan": it may hold the plan of a
  // resumable migration, and silently serving single-epoch against a ring
  // that does not match the physical data layout would misroute every
  // reassigned key without surfacing anything.
  std::string plan_bytes;
  size_t plan_slot = 0;
  bool found = false;
  for (size_t s : live_members()) {
    auto plan = shards_[s]->Get(std::string(kPlanKey));
    NoteShardResult(s, plan.ok() || plan.status().IsNotFound()
                           ? Status::Ok()
                           : plan.status());
    if (plan.ok()) {
      plan_bytes = std::move(*plan);
      plan_slot = s;
      found = true;
      break;
    }
    if (!plan.status().IsNotFound()) {
      return Status(plan.status().code(),
                    "cannot scan shard " + std::to_string(s) +
                        " for a resumable migration plan: " +
                        plan.status().message());
    }
  }
  // No migration to resume: honor the durable record of the last
  // FINALIZED topology instead, if any (a rebuilt router dialing a stale
  // endpoint list needs it to stop routing keys to a drained slot).
  if (!found) return RestoreDurableTopology();
  uint64_t epoch = 0;
  std::vector<size_t> from;
  std::vector<size_t> to;
  size_t vnodes = 0;
  if (!ParsePlan(plan_bytes, &epoch, &from, &to, &vnodes)) {
    return Status::Corruption("unparseable migration plan on shard " +
                              std::to_string(plan_slot));
  }
  const size_t slots = SlotCount();
  for (size_t s : from) {
    if (s >= slots) {
      return Status::FailedPrecondition(
          "migration plan references slot " + std::to_string(s) +
          " but only " + std::to_string(slots) + " are connected");
    }
  }
  for (size_t s : to) {
    if (s >= slots) {
      return Status::FailedPrecondition(
          "migration plan references slot " + std::to_string(s) +
          " but only " + std::to_string(slots) + " are connected");
    }
  }
  std::string cursor;
  auto cur = shards_[plan_slot]->Get(std::string(kCursorKey));
  if (cur.ok()) {
    cursor = std::move(*cur);
  } else if (!cur.status().IsNotFound()) {
    return cur.status();
  }
  {
    std::unique_lock<std::mutex> txn_lock(txn_mu_);
    {
      std::unique_lock<std::shared_mutex> topo(topo_mu_);
      prev_ring_ = BuildShardRing(epoch > 0 ? epoch - 1 : 0, from, vnodes);
      current_ring_ = BuildShardRing(epoch, to, vnodes);
      migrating_.store(true, std::memory_order_release);
    }
    {
      std::lock_guard<std::mutex> mig(mig_mu_);
      mig_cursor_ = std::move(cursor);
      mig_dirty_.clear();
    }
    // Same pre-install write drain as AddShard (see the comment there).
    { std::unique_lock<std::shared_mutex> drain(mig_write_mu_); }
    {
      std::lock_guard<std::mutex> lock(mig_stats_mu_);
      mig_stats_.resumes += 1;
      mig_stats_.epoch = epoch;
    }
  }
  return DriveMigration(opts);
}

Status ShardedStorageEngine::RestoreDurableTopology() {
  // Take the record with the highest epoch: a surviving member always
  // carries the latest finalize's write as its newest version, but a slot
  // re-added after a drain may still hold an older record.
  uint64_t best_epoch = 0;
  std::vector<size_t> best_members;
  size_t best_vnodes = 0;
  bool have_topology = false;
  for (size_t s : live_members()) {
    auto record = shards_[s]->Get(std::string(kTopologyKey));
    NoteShardResult(s, record.ok() || record.status().IsNotFound()
                           ? Status::Ok()
                           : record.status());
    if (!record.ok()) {
      if (record.status().IsNotFound()) continue;
      // Same rationale as the plan scan: an unreachable shard may hold the
      // record that retires a drained slot from the ring.
      return Status(record.status().code(),
                    "cannot scan shard " + std::to_string(s) +
                        " for a durable topology record: " +
                        record.status().message());
    }
    uint64_t epoch = 0;
    std::vector<size_t> members;
    size_t vnodes = 0;
    if (!ParseTopology(*record, &epoch, &members, &vnodes)) {
      return Status::Corruption("unparseable topology record on shard " +
                                std::to_string(s));
    }
    if (!have_topology || epoch > best_epoch) {
      best_epoch = epoch;
      best_members = std::move(members);
      best_vnodes = vnodes;
      have_topology = true;
    }
  }
  if (!have_topology) return Status::Ok();
  const size_t slots = SlotCount();
  for (size_t s : best_members) {
    if (s >= slots) {
      return Status::FailedPrecondition(
          "topology record references slot " + std::to_string(s) +
          " but only " + std::to_string(slots) + " are connected (re-dial "
          "the full slot list, drained endpoints included)");
    }
  }
  std::lock_guard<std::mutex> txn_lock(txn_mu_);
  {
    std::unique_lock<std::shared_mutex> topo(topo_mu_);
    if (current_ring_.epoch >= best_epoch) return Status::Ok();
    current_ring_ = BuildShardRing(best_epoch, best_members, best_vnodes);
  }
  {
    std::lock_guard<std::mutex> lock(mig_stats_mu_);
    mig_stats_.epoch = best_epoch;
  }
  return Status::Ok();
}

std::vector<KeyMove> ShardedStorageEngine::EnumerateMoves() const {
  ShardRing current;
  std::vector<size_t> live;
  {
    std::shared_lock<std::shared_mutex> topo(topo_mu_);
    if (!migrating_.load(std::memory_order_acquire)) return {};
    current = current_ring_;
    live = current_ring_.members;
    for (size_t s : prev_ring_.members) {
      if (std::find(live.begin(), live.end(), s) == live.end()) {
        live.push_back(s);
      }
    }
  }
  std::sort(live.begin(), live.end());
  // Any object key sitting on a live slot the CURRENT ring does not route
  // it to must move there: the initial reassignment, keys written to old
  // owners mid-migration, and crash residue (copied but not yet cleared)
  // all reduce to the same rule.
  std::vector<KeyMove> moves;
  std::set<std::string> seen;
  for (size_t s : live) {
    for (const auto& [key, id] : shards_[s]->ListAllVersions()) {
      if (IsInternalKey(key) || IsReplicated(key)) continue;
      const size_t owner = RingOwner(current, key);
      if (owner == s) continue;
      if (!seen.insert(key).second) continue;
      moves.push_back({key, s, owner});
    }
  }
  std::sort(moves.begin(), moves.end(),
            [](const KeyMove& a, const KeyMove& b) { return a.key < b.key; });
  return moves;
}

StatusOr<size_t> ShardedStorageEngine::MigrateOneBatch(
    const std::vector<KeyMove>& moves, size_t byte_budget) {
  // One batch is one critical section against coordinated transactions:
  // merges route-and-apply under txn_mu_, so holding it here means no
  // transaction can have routed to a source shard this batch is about to
  // clear. The cost is that replicated writes and PutMany stall for the
  // batch's round trips — which is what `byte_budget` bounds: a batch of
  // large artifacts ships a truncated prefix instead of holding the lock
  // for an unbounded payload.
  std::lock_guard<std::mutex> txn_lock(txn_mu_);
  // Ring snapshot for the dirty-key fold below (lock order: topo before
  // mig, same as TryRouteKey).
  ShardRing cur_ring;
  ShardRing old_ring;
  {
    std::shared_lock<std::shared_mutex> topo(topo_mu_);
    cur_ring = current_ring_;
    old_ring = prev_ring_;
  }
  std::vector<KeyMove> batch = moves;
  {
    std::lock_guard<std::mutex> mig(mig_mu_);
    // From here until the batch lands, write routes past the cursor WAIT
    // (TryRouteKey): no key can become misplaced under the cursor advance.
    mig_batch_active_ = true;
    // Fold in every dirty key at or below this batch's last key: they were
    // written to their old owner AFTER the pass enumeration (so no batch
    // of this pass would otherwise carry them), and the cursor is about to
    // pass them — advancing without them is how a key's data gets
    // stranded at a shard the router no longer routes it to.
    std::set<std::string_view> in_batch;
    for (const KeyMove& mv : batch) in_batch.insert(mv.key);
    const std::string& batch_max = moves.back().key;
    // Collected separately: appending to `batch` mid-loop would reallocate
    // it and dangle the `in_batch` views into its keys.
    std::vector<KeyMove> folded;
    for (const std::string& dirty : mig_dirty_) {
      if (dirty > batch_max) break;  // set iterates sorted
      if (in_batch.count(dirty) != 0) continue;
      const size_t from = RingOwner(old_ring, dirty);
      const size_t to = RingOwner(cur_ring, dirty);
      if (from == to) continue;  // defensive: only reassigned keys get dirty
      folded.push_back({dirty, from, to});
    }
    batch.insert(batch.end(), std::make_move_iterator(folded.begin()),
                 std::make_move_iterator(folded.end()));
    std::sort(batch.begin(), batch.end(),
              [](const KeyMove& a, const KeyMove& b) { return a.key < b.key; });
    for (const KeyMove& mv : batch) inflight_keys_.insert(mv.key);
  }
  // Drain: once this unique lock has been held (however briefly), every
  // routed call that decided BEFORE the keys went in flight (and before
  // the write gate closed) has finished; later calls observe the in-flight
  // set / the gate and wait for the batch.
  { std::unique_lock<std::shared_mutex> drain(mig_write_mu_); }
  auto unblock = [this] {
    std::lock_guard<std::mutex> mig(mig_mu_);
    inflight_keys_.clear();
    mig_batch_active_ = false;
    mig_cv_.notify_all();
  };

  // Read every version of every moving key from its source shard, up to
  // the byte budget: a truncated batch ships its sorted PREFIX (the cursor
  // advance stays correct) and reports how much of `moves` it consumed.
  struct Moved {
    const KeyMove* mv = nullptr;
    std::vector<Hash256> ids;
  };
  std::map<size_t, std::vector<MigrateKeyVersions>> by_dest;
  std::vector<Moved> moved;
  uint64_t bytes = 0;
  size_t included = 0;  ///< Prefix of `batch` this round actually ships.
  for (const KeyMove& mv : batch) {
    if (byte_budget != 0 && included > 0 && bytes >= byte_budget) break;
    ++included;
    std::vector<Hash256> ids = shards_[mv.from]->Versions(mv.key);
    if (ids.empty()) continue;  // deleted concurrently; nothing to move
    MigrateKeyVersions entry;
    entry.key = mv.key;
    entry.versions.reserve(ids.size());
    for (const Hash256& id : ids) {
      auto data = shards_[mv.from]->GetVersion(id);
      if (!data.ok()) {
        unblock();
        return Status(data.status().code(),
                      "rebalance cannot read '" + mv.key + "' from shard " +
                          std::to_string(mv.from) + ": " +
                          data.status().message());
      }
      bytes += data->size();
      entry.versions.emplace_back(id, std::move(*data));
    }
    by_dest[mv.to].push_back(std::move(entry));
    moved.push_back({&mv, std::move(ids)});
  }

  // Ship one MigrateBatch per destination, all round trips overlapped.
  std::vector<std::pair<size_t, Deferred<MigrateBatchResult>>> ships;
  ships.reserve(by_dest.size());
  for (auto& [dest, batch] : by_dest) {
    ships.emplace_back(dest, shards_[dest]->AsyncMigrateBatch(batch));
  }
  uint64_t applied = 0;
  uint64_t skipped = 0;
  Status ship_failure;
  size_t failed_shard = 0;
  for (auto& [dest, deferred] : ships) {
    auto result = deferred.Get();
    NoteShardResult(dest, result.ok() ? Status::Ok() : result.status());
    if (!result.ok()) {
      if (ship_failure.ok()) {
        ship_failure = result.status();
        failed_shard = dest;
      }
      continue;
    }
    applied += result->applied_versions;
    skipped += result->skipped_versions;
  }
  // One shipped migration round consumed one accounting unit of any caller
  // deadline budget — later hops (cursor persist, next batch) stamp less.
  DeadlineScope::ChargeCurrent(1);
  if (!ship_failure.ok()) {
    unblock();
    return Status(ship_failure.code(),
                  "rebalance batch failed on shard " +
                      std::to_string(failed_shard) + ": " +
                      ship_failure.message() +
                      " (migration still installed; resume when the shard "
                      "is back)");
  }

  // Persist the cursor BEFORE clearing the sources: a crash after this
  // point replays the batch as skips plus residual deletes — never as
  // data loss. (Before this point the copies simply happen again.) The
  // cursor advances exactly to the last key this batch SHIPPED — never to
  // a key from the pass enumeration the byte budget truncated away, and
  // never past a dirty key the batch did not fold in.
  const std::string& last_key = batch[included - 1].key;
  std::string new_cursor;
  {
    std::lock_guard<std::mutex> mig(mig_mu_);
    new_cursor = std::max(mig_cursor_, last_key);
  }
  const size_t home = plan_shard();
  auto persisted = shards_[home]->Put(std::string(kCursorKey), new_cursor);
  NoteShardResult(home,
                  persisted.ok() ? Status::Ok() : persisted.status());
  if (!persisted.ok()) {
    unblock();
    return Status(persisted.status().code(),
                  "rebalance cannot persist cursor on shard " +
                      std::to_string(home) + ": " +
                      persisted.status().message());
  }
  size_t dirty_consumed = 0;
  {
    std::lock_guard<std::mutex> mig(mig_mu_);
    mig_cursor_ = new_cursor;
    // Every key at or below the cursor is at its new owner now; the dirty
    // entries this batch covered are resolved.
    const auto resolved_end = mig_dirty_.upper_bound(new_cursor);
    dirty_consumed = static_cast<size_t>(
        std::distance(mig_dirty_.begin(), resolved_end));
    mig_dirty_.erase(mig_dirty_.begin(), resolved_end);
  }

  // Re-home the version index, then clear the source copies.
  for (const Moved& m : moved) {
    for (const Hash256& id : m.ids) {
      RecordVersion(id, m.mv->to);
    }
    for (const Hash256& id : m.ids) {
      auto freed = shards_[m.mv->from]->DeleteVersion(id);
      if (!freed.ok() && !freed.status().IsNotFound()) {
        unblock();
        return Status(freed.status().code(),
                      "rebalance cannot clear source copy of '" + m.mv->key +
                          "' on shard " + std::to_string(m.mv->from) + ": " +
                          freed.status().message());
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(mig_stats_mu_);
    mig_stats_.keys_migrated += moved.size();
    mig_stats_.versions_migrated += applied;
    mig_stats_.skipped_versions += skipped;
    mig_stats_.bytes_migrated += bytes;
    mig_stats_.batches += 1;
    mig_stats_.cursor_writes += 1;
    mig_stats_.dirty_keys_migrated += dirty_consumed;
  }
  unblock();
  // How much of the caller's `moves` slice this batch covered (everything
  // at or below the shipped prefix's last key — the rest was truncated by
  // the byte budget and goes around again).
  size_t consumed = 0;
  while (consumed < moves.size() && moves[consumed].key <= last_key) {
    ++consumed;
  }
  return consumed;
}

Status ShardedStorageEngine::DriveMigration(const MigrationOptions& opts) {
  const size_t batch_keys = std::max<size_t>(1, opts.batch_keys);
  uint64_t batches_done = 0;
  while (true) {
    std::vector<KeyMove> moves = EnumerateMoves();
    if (moves.empty()) {
      // Quiesce writers, then confirm no straggler appeared between the
      // two enumerations — only then flip to single-epoch routing.
      std::lock_guard<std::mutex> txn_lock(txn_mu_);
      { std::unique_lock<std::shared_mutex> drain(mig_write_mu_); }
      moves = EnumerateMoves();
      if (moves.empty()) return FinalizeMigrationLocked();
    }
    for (size_t begin = 0; begin < moves.size();) {
      if (opts.max_batches != 0 && batches_done >= opts.max_batches) {
        // Paused: the dual-epoch window stays installed; ResumeMigration
        // picks up from the (durable) cursor.
        return Status::Ok();
      }
      const size_t end = std::min(moves.size(), begin + batch_keys);
      std::vector<KeyMove> batch(moves.begin() + begin, moves.begin() + end);
      auto consumed = MigrateOneBatch(batch, opts.batch_bytes);
      if (!consumed.ok()) return consumed.status();
      // A byte-truncated batch consumes only a prefix; the remainder goes
      // into the next round. (`consumed` can even be 0 when the whole
      // budget went to folded-in dirty keys below this slice — the cursor
      // still advanced, so the drive always makes progress.)
      begin += *consumed;
      ++batches_done;
    }
  }
}

Status ShardedStorageEngine::FinalizeMigrationLocked() {
  ShardRing current;
  ShardRing prev;
  {
    std::shared_lock<std::shared_mutex> topo(topo_mu_);
    if (!migrating_.load(std::memory_order_acquire)) return Status::Ok();
    current = current_ring_;
    prev = prev_ring_;
  }
  // Drain every leaving slot EMPTY: after key migration the only residue
  // is the replicated namespace (still correct on every surviving member)
  // plus any internal leftovers.
  for (size_t s : prev.members) {
    if (current.Contains(s)) continue;
    for (const auto& [key, id] : shards_[s]->ListAllVersions()) {
      auto freed = shards_[s]->DeleteVersion(id);
      if (!freed.ok() && !freed.status().IsNotFound()) {
        return Status(freed.status().code(),
                      "cannot drain leaving shard " + std::to_string(s) +
                          " (key '" + key + "'): " + freed.status().message());
      }
    }
  }
  // Persist the surviving membership on every remaining member BEFORE the
  // plan is retired: a router rebuilt from the original (pre-shrink) engine
  // list finds this record and restores the post-migration ring instead of
  // routing a slice of the keyspace to a drained slot. Every member carries
  // a copy so the record survives any single surviving shard being down.
  const std::string topology =
      SerializeTopology(current, options_.virtual_nodes_per_shard);
  for (size_t s : current.members) {
    auto put = shards_[s]->Put(std::string(kTopologyKey), topology);
    NoteShardResult(s, put.ok() ? Status::Ok() : put.status());
    if (!put.ok()) {
      return Status(put.status().code(),
                    "cannot persist final topology on shard " +
                        std::to_string(s) + ": " + put.status().message());
    }
  }
  // Retire the durable plan and cursor: the migration is over, a later
  // ResumeMigration must find nothing.
  const size_t home = current.members.front();
  for (std::string_view bookkeeping : {kPlanKey, kCursorKey}) {
    const std::string key(bookkeeping);
    for (const Hash256& id : shards_[home]->Versions(key)) {
      auto freed = shards_[home]->DeleteVersion(id);
      if (!freed.ok() && !freed.status().IsNotFound()) {
        return Status(freed.status().code(),
                      "cannot retire migration record '" + key +
                          "': " + freed.status().message());
      }
    }
  }
  {
    std::unique_lock<std::shared_mutex> topo(topo_mu_);
    prev_ring_ = ShardRing{};
    migrating_.store(false, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> mig(mig_mu_);
    mig_cursor_.clear();
    mig_dirty_.clear();
  }
  return Status::Ok();
}

// ------------------------------------------------------------- factories ---

std::unique_ptr<StorageEngine> MakeLoopbackShard(
    std::unique_ptr<StorageEngine> backend) {
  // Ownership chain: proxy -> transport -> (shared) service -> backend.
  auto service = std::make_shared<StorageEngineService>(std::move(backend));
  auto transport = std::make_unique<LoopbackTransport>(
      [service](std::string_view request) {
        return service->Handle(request);
      });
  return std::make_unique<RemoteStorageEngine>(std::move(transport));
}

std::unique_ptr<ShardedStorageEngine> MakeLoopbackCluster(
    size_t shards,
    const std::function<std::unique_ptr<StorageEngine>()>& backend_factory,
    ShardedStorageEngine::Options options) {
  MLCASK_CHECK_MSG(shards > 0, "cluster needs at least one shard");
  std::vector<std::unique_ptr<StorageEngine>> proxies;
  proxies.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    proxies.push_back(MakeLoopbackShard(backend_factory()));
  }
  return std::make_unique<ShardedStorageEngine>(std::move(proxies),
                                                std::move(options));
}

}  // namespace mlcask::storage
