// Chaos harness: seeded fault injection against loopback and real
// multi-process clusters, asserting the self-healing invariant — every
// drill ends in a TYPED status or a fully recovered cluster with the
// correct data, never a hang and never a wrong answer. Covers the
// FaultSpec grammar, disk-full 2PC aborts, the router's durable-intent
// recovery (roll-forward, fencing, idempotent replay), the shard health
// view, transparent redial with the server-side replay ledger, bounded
// Deferred::Get under redial, crash decoding in LocalServerCluster::Stop,
// kill -9 + restart recovery on durable shards, and a seeded fault sweep
// over real 4-shard merges checked bit-identical against the fault-free
// fingerprint.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/sha256.h"
#include "common/strings.h"
#include "merge/merge_op.h"
#include "sim/scenario.h"
#include "storage/deadline.h"
#include "storage/fault_injector.h"
#include "storage/forkbase_engine.h"
#include "storage/remote_engine.h"
#include "storage/server_cluster.h"
#include "storage/sharded_engine.h"
#include "storage/socket_transport.h"
#include "storage/wire_codec.h"

#ifndef MLCASK_SERVER_BIN
#define MLCASK_SERVER_BIN ""
#endif

namespace mlcask::storage {
namespace {

// Mirrors the router's internal staging layout (sharded_engine.cc) so the
// white-box drills can plant the exact on-disk state a crashed coordinator
// leaves behind: a staged write is the raw value under a staging key that
// names its target key; the decision payload carries the intent header.
constexpr char kStagingPrefix[] = "__2pc__/";
constexpr char kIntentHeader[] = "__2pc-intent__\x1f";

std::string StagingKey(uint64_t txn, size_t shard, size_t write,
                       const std::string& target) {
  return StrFormat("%stxn%llu/s%zu/w%zu/", kStagingPrefix,
                   static_cast<unsigned long long>(txn), shard, write) +
         target;
}

std::string DecisionKey(uint64_t txn) {
  return StrFormat("%stxn%llu/decision", kStagingPrefix,
                   static_cast<unsigned long long>(txn));
}

size_t CountStagedKeys(const ShardedStorageEngine& cluster) {
  size_t staged = 0;
  for (size_t s = 0; s < cluster.num_shards(); ++s) {
    for (const auto& [key, id] : cluster.shard(s)->ListAllVersions()) {
      (void)id;
      if (key.rfind(kStagingPrefix, 0) == 0) ++staged;
    }
  }
  return staged;
}

/// A loopback cluster whose every backend is a FaultyEngine, with the
/// decorator handles exposed so tests can flip shards dead/alive.
std::unique_ptr<ShardedStorageEngine> MakeFaultyCluster(
    size_t shards, std::vector<FaultyEngine*>* handles,
    const FaultSpec& spec = FaultSpec()) {
  handles->clear();
  auto injector = std::make_shared<FaultInjector>(spec);
  return MakeLoopbackCluster(shards, [&]() {
    auto engine = std::make_unique<FaultyEngine>(
        std::make_unique<ForkBaseEngine>(), injector);
    handles->push_back(engine.get());
    return engine;
  });
}

/// A key the cluster routes to shard `target` (object namespace, so it is
/// NOT replicated).
std::string KeyOnShard(const ShardedStorageEngine& cluster, size_t target,
                       const std::string& hint) {
  for (int i = 0; i < 4096; ++i) {
    std::string key = "artifact/" + hint + std::to_string(i);
    if (cluster.ShardForKey(key) == target) return key;
  }
  ADD_FAILURE() << "no key found routing to shard " << target;
  return "artifact/unroutable";
}

LocalServerCluster::Options ServerOptions() {
  LocalServerCluster::Options options;
  options.server_binary = MLCASK_SERVER_BIN;
  return options;
}

// ---------------------------------------------------------------------------
// FaultSpec grammar
// ---------------------------------------------------------------------------

TEST(FaultSpecTest, ParseToStringRoundTrip) {
  auto spec = FaultSpec::Parse(
      "seed=7,drop=0.25,dropafter=0.5,garble=0.125,delay_ms=20:0.5,"
      "drip_ms_per_kib=3,diskfull=0.0625,kill_after=9");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->drop, 0.25);
  EXPECT_DOUBLE_EQ(spec->drop_after, 0.5);
  EXPECT_DOUBLE_EQ(spec->garble, 0.125);
  EXPECT_EQ(spec->delay_ms, 20u);
  EXPECT_DOUBLE_EQ(spec->delay_prob, 0.5);
  EXPECT_EQ(spec->drip_ms_per_kib, 3u);
  EXPECT_DOUBLE_EQ(spec->disk_full, 0.0625);
  EXPECT_EQ(spec->kill_after, 9u);
  EXPECT_TRUE(spec->any());

  // The normalized string reproduces the schedule exactly.
  auto reparsed = FaultSpec::Parse(spec->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->ToString(), spec->ToString());
}

TEST(FaultSpecTest, RejectsUnknownKeysAndBadValues) {
  EXPECT_FALSE(FaultSpec::Parse("explode=1").ok());
  EXPECT_FALSE(FaultSpec::Parse("drop=maybe").ok());
  EXPECT_FALSE(FaultSpec::Parse("drop=1.5").ok());
  EXPECT_FALSE(FaultSpec::Parse("delay_ms=10").ok());  // missing :prob
  auto empty = FaultSpec::Parse("");
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_FALSE(empty->any());
}

// ---------------------------------------------------------------------------
// Disk-full: a typed 2PC abort, never partial state
// ---------------------------------------------------------------------------

TEST(ChaosTest, DiskFullShardAbortsReplicatedPutWithNoStagedResidue) {
  // Shard 2's engine fails every mutation "disk full"; the other shards are
  // healthy, so their prepares land and must be rolled back by the abort.
  size_t built = 0;
  std::vector<FaultyEngine*> handles;
  auto full_injector = std::make_shared<FaultInjector>(
      *FaultSpec::Parse("seed=3,diskfull=1"));
  auto none_injector = std::make_shared<FaultInjector>(FaultSpec());
  auto cluster = MakeLoopbackCluster(3, [&]() {
    auto engine = std::make_unique<FaultyEngine>(
        std::make_unique<ForkBaseEngine>(),
        built == 2 ? full_injector : none_injector);
    handles.push_back(engine.get());
    ++built;
    return engine;
  });

  auto put = cluster->Put("pipeline/chaos/commits", "commit-json");
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(put.status().code(), StatusCode::kUnavailable) << put.status();
  EXPECT_NE(put.status().ToString().find("disk full"), std::string::npos)
      << put.status();

  auto tp = cluster->two_phase_stats();
  EXPECT_EQ(tp.aborts, 1u);
  EXPECT_EQ(tp.commits, 0u);
  // The healthy shards' staged intents were cleaned up; the key never
  // surfaced anywhere.
  EXPECT_EQ(CountStagedKeys(*cluster), 0u);
  for (size_t s = 0; s < cluster->num_shards(); ++s) {
    EXPECT_TRUE(cluster->shard(s)->Versions("pipeline/chaos/commits").empty())
        << "shard " << s;
  }
}

TEST(ChaosTest, DiskFullShardAbortsALargeReplicatedPutThatCarriesRecipes) {
  // A 512 KiB replicated value is staged with its recipe (planned once by
  // the router), which FaultyEngine gates as a mutation like any put.
  size_t built = 0;
  auto full_injector = std::make_shared<FaultInjector>(
      *FaultSpec::Parse("seed=3,diskfull=1"));
  auto none_injector = std::make_shared<FaultInjector>(FaultSpec());
  auto cluster = MakeLoopbackCluster(3, [&]() {
    return std::make_unique<FaultyEngine>(
        std::make_unique<ForkBaseEngine>(),
        built++ == 2 ? full_injector : none_injector);
  });
  const std::string value(512 * 1024, 'L');
  auto put = cluster->Put("library/chaos/lib", value);
  ASSERT_FALSE(put.ok());
  EXPECT_NE(put.status().ToString().find("disk full"), std::string::npos)
      << put.status();
  EXPECT_EQ(CountStagedKeys(*cluster), 0u);
  for (size_t s = 0; s < cluster->num_shards(); ++s) {
    EXPECT_TRUE(cluster->shard(s)->Versions("library/chaos/lib").empty());
  }

  // Healthy, the same write commits with the id a direct Put gives.
  auto healthy = MakeLoopbackCluster(3, [&]() {
    return std::make_unique<FaultyEngine>(std::make_unique<ForkBaseEngine>(),
                                          none_injector);
  });
  auto committed = healthy->Put("library/chaos/lib", value);
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(committed->id, ForkBaseEngine().Put("library/chaos/lib", value)->id);
  EXPECT_EQ(CountStagedKeys(*healthy), 0u);
}

/// A ForkBase engine counting the MigrateBatch calls that reach it (the
/// async form's default lands here too).
class CountingMigrateEngine : public ForkBaseEngine {
 public:
  StatusOr<MigrateBatchResult> MigrateBatch(
      const std::vector<MigrateKeyVersions>& batch) override {
    ++migrate_calls;
    return ForkBaseEngine::MigrateBatch(batch);
  }
  int migrate_calls = 0;
};

TEST(ChaosTest, FaultyEngineForwardsMigrateBatchWholeAndGatesItOnce) {
  // A migrated batch is one mutation at the decorator: the inner engine's
  // own MigrateBatch runs once (a durable shard checkpoints once per batch,
  // not once per version), and a fault fails the whole call typed without
  // reaching the inner engine.
  ForkBaseEngine source;
  std::vector<MigrateKeyVersions> batch(2);
  for (size_t k = 0; k < batch.size(); ++k) {
    batch[k].key = "artifact/migrated" + std::to_string(k);
    for (int v = 0; v < 3; ++v) {
      const std::string value = batch[k].key + "#" + std::to_string(v);
      auto put = source.Put(batch[k].key, value);
      ASSERT_TRUE(put.ok()) << put.status();
      batch[k].versions.emplace_back(put->id, value);
    }
  }

  auto inner = std::make_unique<CountingMigrateEngine>();
  CountingMigrateEngine* counting = inner.get();
  FaultyEngine engine(std::move(inner),
                      std::make_shared<FaultInjector>(FaultSpec()));
  auto migrated = engine.MigrateBatch(batch);
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  EXPECT_EQ(migrated->applied_versions, 6u);
  EXPECT_EQ(counting->migrate_calls, 1);
  EXPECT_EQ(counting->Versions("artifact/migrated1"),
            source.Versions("artifact/migrated1"));
  auto resumed = engine.AsyncMigrateBatch(batch).Get();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->skipped_versions, 6u);
  EXPECT_EQ(counting->migrate_calls, 2);

  engine.set_unavailable(true);
  auto down = engine.MigrateBatch(batch);
  EXPECT_EQ(down.status().code(), StatusCode::kUnavailable) << down.status();
  auto down_async = engine.AsyncMigrateBatch(batch).Get();
  EXPECT_EQ(down_async.status().code(), StatusCode::kUnavailable)
      << down_async.status();
  EXPECT_EQ(counting->migrate_calls, 2);

  auto full_inner = std::make_unique<CountingMigrateEngine>();
  CountingMigrateEngine* full_counting = full_inner.get();
  FaultyEngine full(std::move(full_inner),
                    std::make_shared<FaultInjector>(
                        *FaultSpec::Parse("seed=3,diskfull=1")));
  auto refused = full.MigrateBatch(batch);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable)
      << refused.status();
  EXPECT_NE(refused.status().ToString().find("disk full"), std::string::npos)
      << refused.status();
  EXPECT_EQ(full_counting->migrate_calls, 0);
  EXPECT_TRUE(full_counting->Versions("artifact/migrated0").empty());
}

// ---------------------------------------------------------------------------
// Durable 2PC recovery: roll-forward, fencing, idempotent replay
// ---------------------------------------------------------------------------

TEST(ChaosTest, RecoverRollsForwardTransactionWithDurableDecision) {
  std::vector<FaultyEngine*> handles;
  auto cluster = MakeFaultyCluster(3, &handles);

  // Plant exactly what a coordinator that died between writing its commit
  // decision and applying phase 2 leaves behind: one staged intent per
  // shard, plus the decision marker on shard 0.
  std::vector<std::string> keys, payloads;
  for (size_t s = 0; s < 3; ++s) {
    keys.push_back(KeyOnShard(*cluster, s, "rollfwd"));
    payloads.push_back("payload-" + std::to_string(s));
    auto staged =
        cluster->shard(s)->Put(StagingKey(77, s, s, keys[s]), payloads[s]);
    ASSERT_TRUE(staged.ok()) << staged.status();
  }
  auto decision = cluster->shard(0)->Put(DecisionKey(77),
                                         std::string(kIntentHeader) + "commit");
  ASSERT_TRUE(decision.ok()) << decision.status();

  auto recovered = cluster->RecoverTwoPhase();
  ASSERT_TRUE(recovered.ok()) << recovered;

  auto tp = cluster->two_phase_stats();
  EXPECT_EQ(tp.recovered_transactions, 1u);
  EXPECT_EQ(tp.fenced_transactions, 0u);
  EXPECT_EQ(tp.replayed_writes, 3u);
  // Every intended write landed, readable through the router, and no
  // staging state survived.
  for (size_t s = 0; s < 3; ++s) {
    auto got = cluster->Get(keys[s]);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, payloads[s]);
  }
  EXPECT_EQ(CountStagedKeys(*cluster), 0u);
}

TEST(ChaosTest, RecoverFencesTransactionWithoutDecision) {
  std::vector<FaultyEngine*> handles;
  auto cluster = MakeFaultyCluster(3, &handles);

  // A coordinator that died BEFORE the decision point: staged intents, no
  // decision marker. Recovery must destroy the intents (fencing the zombie
  // coordinator) and never surface the key.
  std::vector<std::string> keys;
  for (size_t s = 0; s < 3; ++s) {
    keys.push_back(KeyOnShard(*cluster, s, "fence"));
    auto staged =
        cluster->shard(s)->Put(StagingKey(9, s, s, keys[s]), "never-lands");
    ASSERT_TRUE(staged.ok()) << staged.status();
  }

  auto recovered = cluster->RecoverTwoPhase();
  ASSERT_TRUE(recovered.ok()) << recovered;

  auto tp = cluster->two_phase_stats();
  EXPECT_EQ(tp.recovered_transactions, 0u);
  EXPECT_EQ(tp.fenced_transactions, 1u);
  EXPECT_EQ(tp.replayed_writes, 0u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_TRUE(cluster->shard(s)->Versions(keys[s]).empty()) << "shard " << s;
  }
  EXPECT_EQ(CountStagedKeys(*cluster), 0u);
}

TEST(ChaosTest, RecoverReplayIsIdempotentOnAlreadyAppliedWrites) {
  std::vector<FaultyEngine*> handles;
  auto cluster = MakeFaultyCluster(2, &handles);

  // A coordinator that died between applying the write and cleaning up the
  // staging records: the target key already holds the intent's payload.
  // Replay must recognize it by payload identity and not write a duplicate
  // version.
  const std::string key = KeyOnShard(*cluster, 1, "idem");
  ASSERT_TRUE(cluster->Put(key, "applied-once").ok());
  ASSERT_TRUE(cluster->shard(1)
                  ->Put(StagingKey(4, 1, 0, key), "applied-once")
                  .ok());
  ASSERT_TRUE(cluster->shard(0)
                  ->Put(DecisionKey(4), std::string(kIntentHeader) + "commit")
                  .ok());

  auto recovered = cluster->RecoverTwoPhase();
  ASSERT_TRUE(recovered.ok()) << recovered;

  auto tp = cluster->two_phase_stats();
  EXPECT_EQ(tp.recovered_transactions, 1u);
  EXPECT_EQ(tp.replayed_writes, 0u);  // recognized, not re-applied
  EXPECT_EQ(cluster->shard(1)->Versions(key).size(), 1u);
  EXPECT_EQ(CountStagedKeys(*cluster), 0u);
}

TEST(ChaosTest, RecoverFinishesACopyThatLandedOnOnlyOneShard) {
  std::vector<FaultyEngine*> handles;
  auto cluster = MakeFaultyCluster(2, &handles);

  // A coordinator that died inside phase 2 of a replicated write: both
  // shards staged the value, the decision is durable, and the copy reached
  // shard 0 but never shard 1. Recovery must finish shard 1 only.
  const std::string key = "pipeline/partial/commits";
  std::vector<Hash256> staged_ids;
  for (size_t s = 0; s < 2; ++s) {
    auto staged =
        cluster->shard(s)->Put(StagingKey(5, s, s, key), "the-commit");
    ASSERT_TRUE(staged.ok()) << staged.status();
    staged_ids.push_back(staged->id);
  }
  ASSERT_TRUE(cluster->shard(0)
                  ->Put(DecisionKey(5), std::string(kIntentHeader) + "commit")
                  .ok());
  auto landed = cluster->shard(0)->CopyVersion(key, staged_ids[0]);
  ASSERT_TRUE(landed.ok()) << landed.status();

  auto recovered = cluster->RecoverTwoPhase();
  ASSERT_TRUE(recovered.ok()) << recovered;

  auto tp = cluster->two_phase_stats();
  EXPECT_EQ(tp.recovered_transactions, 1u);
  EXPECT_EQ(tp.replayed_writes, 1u);  // shard 1 only; shard 0 recognized
  for (size_t s = 0; s < 2; ++s) {
    // One version per replica, with the same id on both.
    EXPECT_EQ(cluster->shard(s)->Versions(key),
              std::vector<Hash256>{landed->id})
        << "shard " << s;
  }
  auto got = cluster->Get(key);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, "the-commit");
  EXPECT_EQ(CountStagedKeys(*cluster), 0u);
}

TEST(ChaosTest, RecoverRejectsAStagingKeyWithoutATarget) {
  std::vector<FaultyEngine*> handles;
  auto cluster = MakeFaultyCluster(2, &handles);

  // A staged write whose key stops at `w<idx>` names no target key, so a
  // committed decision cannot be rolled forward: Corruption, and the
  // records stay for a later pass instead of being destroyed.
  ASSERT_TRUE(cluster->shard(1)
                  ->Put(std::string(kStagingPrefix) + "txn6/s1/w0",
                        "orphan-value")
                  .ok());
  ASSERT_TRUE(cluster->shard(0)
                  ->Put(DecisionKey(6), std::string(kIntentHeader) + "commit")
                  .ok());

  auto recovered = cluster->RecoverTwoPhase();
  EXPECT_EQ(recovered.code(), StatusCode::kCorruption) << recovered;
  auto tp = cluster->two_phase_stats();
  EXPECT_EQ(tp.recovered_transactions, 0u);
  EXPECT_EQ(tp.fenced_transactions, 0u);
  EXPECT_EQ(tp.replayed_writes, 0u);
  EXPECT_EQ(CountStagedKeys(*cluster), 2u);
}

TEST(ChaosTest, RecoverOnCleanClusterIsANoOp) {
  std::vector<FaultyEngine*> handles;
  auto cluster = MakeFaultyCluster(2, &handles);
  ASSERT_TRUE(cluster->Put("artifact/clean", "data").ok());
  ASSERT_TRUE(cluster->Put("pipeline/clean/commits", "json").ok());

  auto recovered = cluster->RecoverTwoPhase();
  ASSERT_TRUE(recovered.ok()) << recovered;
  auto tp = cluster->two_phase_stats();
  EXPECT_EQ(tp.recovered_transactions, 0u);
  EXPECT_EQ(tp.fenced_transactions, 0u);
  EXPECT_EQ(CountStagedKeys(*cluster), 0u);
}

// ---------------------------------------------------------------------------
// Shard health view: skip known-dead shards with typed errors, no hangs
// ---------------------------------------------------------------------------

TEST(ChaosTest, HealthViewMarksShardDownAndFastFailsFanouts) {
  std::vector<FaultyEngine*> handles;
  auto cluster = MakeFaultyCluster(3, &handles);
  const size_t down = 1;

  // Seed one object so DeleteVersion later has a real id to refuse.
  auto seeded = cluster->Put(KeyOnShard(*cluster, 0, "seed"), "seed-data");
  ASSERT_TRUE(seeded.ok()) << seeded.status();

  handles[down]->set_unavailable(true);
  // Three consecutive failures trip the breaker.
  for (int i = 0; i < 3; ++i) {
    auto put = cluster->Put(KeyOnShard(*cluster, down, "hit"), "x");
    EXPECT_FALSE(put.ok());
    EXPECT_EQ(put.status().code(), StatusCode::kUnavailable);
  }
  auto health = cluster->shard_health();
  ASSERT_EQ(health.state.size(), 3u);
  EXPECT_EQ(health.state[down], ShardedStorageEngine::ShardHealth::kDown);
  EXPECT_GE(health.consecutive_failures[down], 3u);
  EXPECT_EQ(health.state[0], ShardedStorageEngine::ShardHealth::kUp);

  // Broadcast version lookup: the down shard is skipped, the miss is a
  // typed Unavailable NAMING the unreachable shard — not NotFound, because
  // the answer is not trustworthy while a shard is dark.
  auto lookup = cluster->GetVersion(Sha256::Digest("no-such-version"));
  ASSERT_FALSE(lookup.ok());
  EXPECT_EQ(lookup.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(lookup.status().ToString().find("down"), std::string::npos)
      << lookup.status();

  // Replicated 2PC: aborted BEFORE staging anything, with a typed status.
  auto replicated = cluster->Put("pipeline/health/commits", "json");
  ASSERT_FALSE(replicated.ok());
  EXPECT_EQ(replicated.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(CountStagedKeys(*cluster), 0u);

  // DeleteVersion refuses to report success while a possible replica holder
  // is unreachable.
  auto del = cluster->DeleteVersion(seeded->id);
  ASSERT_FALSE(del.ok());
  EXPECT_EQ(del.status().code(), StatusCode::kUnavailable);

  // Recovery: heal the engine, tell the router, full service resumes.
  handles[down]->set_unavailable(false);
  cluster->MarkShardRecovered(down);
  health = cluster->shard_health();
  EXPECT_EQ(health.state[down], ShardedStorageEngine::ShardHealth::kUp);
  EXPECT_TRUE(cluster->Put(KeyOnShard(*cluster, down, "back"), "y").ok());
  EXPECT_TRUE(cluster->Put("pipeline/health/commits", "json").ok());
}

/// `prepared_writes` counts staging records a shard acknowledged and
/// nothing else: a transaction aborted before staging (down-shard pre-check,
/// spent deadline) adds none, and one whose prepare failed on a dead shard
/// adds only the live shards' writes.
TEST(ChaosTest, AbortedTransactionsCountOnlyAcknowledgedStaging) {
  std::vector<FaultyEngine*> handles;
  auto cluster = MakeFaultyCluster(3, &handles);
  const size_t down = 1;
  handles[down]->set_unavailable(true);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(cluster->Put(KeyOnShard(*cluster, down, "hit"), "x").ok());
  }
  ASSERT_EQ(cluster->shard_health().state[down],
            ShardedStorageEngine::ShardHealth::kDown);

  // The first fan-out after the down transition probes the dead shard: the
  // two live replicas acknowledge their staging, the dead one cannot.
  auto before = cluster->two_phase_stats();
  EXPECT_FALSE(cluster->Put("pipeline/abort/commits", "json").ok());
  auto after = cluster->two_phase_stats();
  EXPECT_EQ(after.aborts, before.aborts + 1);
  EXPECT_EQ(after.prepared_writes, before.prepared_writes + 2);

  // Now the pre-check aborts before a single staging batch is issued.
  before = after;
  auto replicated = cluster->Put("pipeline/abort/commits", "json");
  ASSERT_FALSE(replicated.ok());
  EXPECT_EQ(replicated.status().code(), StatusCode::kUnavailable);
  after = cluster->two_phase_stats();
  EXPECT_EQ(after.aborts, before.aborts + 1);
  EXPECT_EQ(after.prepare_round_trips, before.prepare_round_trips);
  EXPECT_EQ(after.prepared_writes, before.prepared_writes);

  // Healthy again, but the caller's deadline is already spent: the same
  // abort-before-staging, through the deadline fail-fast.
  handles[down]->set_unavailable(false);
  cluster->MarkShardRecovered(down);
  before = cluster->two_phase_stats();
  {
    DeadlineBudget spent(1);
    spent.Charge(10);
    DeadlineScope scope(&spent);
    auto late = cluster->Put("pipeline/abort/commits", "json");
    ASSERT_FALSE(late.ok());
    EXPECT_TRUE(late.status().IsDeadlineExceeded()) << late.status();
  }
  after = cluster->two_phase_stats();
  EXPECT_EQ(after.aborts, before.aborts + 1);
  EXPECT_EQ(after.prepared_writes, before.prepared_writes);
  EXPECT_EQ(CountStagedKeys(*cluster), 0u);
}

/// Half-open gate accounting. A freshly-down shard gets ONE immediate probe
/// (the first fan-out after the transition — an outage shorter than the
/// fan-out cadence heals in a single request), then the breaker closes and
/// only every 8th fan-out probes it. The old behavior skipped immediately
/// and made a blip pay the full 8-fan-out penalty.
TEST(ChaosTest, FreshlyDownShardGetsOneImmediateProbe) {
  std::vector<FaultyEngine*> handles;
  auto cluster = MakeFaultyCluster(3, &handles);
  const size_t down = 1;
  handles[down]->set_unavailable(true);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(cluster->Put(KeyOnShard(*cluster, down, "hit"), "x").ok());
  }
  ASSERT_EQ(cluster->shard_health().state[down],
            ShardedStorageEngine::ShardHealth::kDown);
  const uint64_t before = cluster->broadcast_stats().per_shard_probes[down];

  // Fan-out #1 after the down transition: one immediate probe.
  (void)cluster->GetVersion(Sha256::Digest("probe-1"));
  EXPECT_EQ(cluster->broadcast_stats().per_shard_probes[down], before + 1);
  // Fan-outs #2..#7: the breaker is closed, the shard is skipped.
  for (int i = 2; i <= 7; ++i) {
    (void)cluster->GetVersion(Sha256::Digest("probe-" + std::to_string(i)));
    EXPECT_EQ(cluster->broadcast_stats().per_shard_probes[down], before + 1)
        << "fan-out " << i << " should have skipped the down shard";
  }
  // Fan-out #8: the half-open retry goes through.
  (void)cluster->GetVersion(Sha256::Digest("probe-8"));
  EXPECT_EQ(cluster->broadcast_stats().per_shard_probes[down], before + 2);

  // Once a half-open probe SUCCEEDS, the breaker resets without operator
  // action (within one more 8-fan-out window).
  handles[down]->set_unavailable(false);
  for (int i = 0; i < 8; ++i) {
    (void)cluster->GetVersion(
        Sha256::Digest("probe-heal-" + std::to_string(i)));
  }
  EXPECT_EQ(cluster->shard_health().state[down],
            ShardedStorageEngine::ShardHealth::kUp);
}

// ---------------------------------------------------------------------------
// Transparent redial + idempotent replay over real sockets
// ---------------------------------------------------------------------------

TEST(ChaosTest, RedialReplaysLostResponsesExactlyOnce) {
  const std::string path =
      "/tmp/mlcask_chaos_replay_" + std::to_string(::getpid()) + ".sock";
  ForkBaseEngine backend;
  StorageEngineService service(&backend);
  auto server = SocketTransportServer::Bind("unix:" + path,
                                            SocketTransportServer::Options());
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)
                  ->Serve([&service](std::string_view request) {
                    return service.Handle(request);
                  })
                  .ok());

  {
    // Every ORIGINAL send reaches the server and then loses its connection
    // (drop-after-send) — the worst case for at-most-once semantics. The
    // transport must redial and replay; the server's ledger must recognize
    // every replayed mutation and answer from the recorded response.
    SocketTransport::Options options;
    options.injector = std::make_shared<FaultInjector>(
        *FaultSpec::Parse("seed=11,dropafter=1"));
    auto transport = SocketTransport::Connect("unix:" + path, options);
    ASSERT_TRUE(transport.ok()) << transport.status();
    SocketTransport* raw = transport->get();
    RemoteStorageEngine engine(*std::move(transport));

    for (int i = 0; i < 6; ++i) {
      auto put =
          engine.Put("artifact/replay" + std::to_string(i), "payload");
      ASSERT_TRUE(put.ok()) << "put " << i << ": " << put.status();
    }
    // Exactly once: the backend engine executed each mutation a single
    // time, despite every connection having been killed under it. (Whether
    // a given duplicate was absorbed by the replay ledger or never
    // retransmitted is a timing race; the engine-level count is the
    // invariant either way, and Versions stays de-dup-proofed at 1.)
    EXPECT_EQ(backend.stats().puts, 6u);
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(backend.Versions("artifact/replay" + std::to_string(i)).size(),
                1u)
          << "key " << i;
    }
    EXPECT_GE(raw->redials(), 6u);
  }
  (*server)->Shutdown();
  ::unlink(path.c_str());
}

TEST(ChaosTest, ReplayLedgerAnswersDuplicateTokensWithoutReExecuting) {
  // The ledger in isolation, deterministically: two bit-identical requests
  // with the same replay token (what a redialing client retransmits) must
  // execute ONCE and answer the duplicate from the recorded response.
  ForkBaseEngine backend;
  StorageEngineService service(&backend);
  const std::string request =
      wire::EncodePutRequest("artifact/ledger", "payload", "sess.1");

  const std::string first = service.Handle(request);
  const std::string second = service.Handle(request);
  EXPECT_EQ(first, second);  // byte-identical recorded response
  EXPECT_EQ(backend.stats().puts, 1u);
  EXPECT_EQ(backend.Versions("artifact/ledger").size(), 1u);
  EXPECT_EQ(service.replay_hits(), 1u);

  // A DIFFERENT token is a genuinely new mutation, not a replay.
  const std::string third = service.Handle(
      wire::EncodePutRequest("artifact/ledger", "payload", "sess.2"));
  EXPECT_EQ(backend.stats().puts, 2u);
  EXPECT_EQ(service.replay_hits(), 1u);
}

TEST(ChaosTest, ReplayLedgerAppliesADuplicatedCopyVersionOnce) {
  // CopyVersion is a mutation like Put: a retransmitted request with the
  // same token is answered from the ledger and creates ONE version.
  ForkBaseEngine backend;
  StorageEngineService service(&backend);
  auto staged = backend.Put("__2pc__/txn1/s0/w0/library/m", "the-value");
  ASSERT_TRUE(staged.ok());
  const std::string request =
      wire::EncodeCopyVersionRequest("library/m", staged->id, "sess.7");

  const std::string first = service.Handle(request);
  const std::string second = service.Handle(request);
  EXPECT_EQ(first, second);  // byte-identical recorded response
  auto result = wire::DecodePutResponse(first);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(backend.Versions("library/m"), std::vector<Hash256>{result->id});
  EXPECT_EQ(backend.stats().puts, 2u);  // the staging put and one copy
  EXPECT_EQ(service.replay_hits(), 1u);
  EXPECT_EQ(*backend.Get("library/m"), "the-value");
}

TEST(ChaosTest, ShedRequestReleasesReplayLedgerClaim) {
  // Overload regression: a replayable request whose token was CLAIMED by
  // the ledger and which is then shed with kResourceExhausted must release
  // the claim. If the shed answer were recorded, every retry of the token
  // would be answered "overloaded" forever; if the claim were merely
  // abandoned, the client's retransmit would wedge behind the ledger
  // condvar waiting for a response that will never be recorded.
  auto inner = std::make_unique<ForkBaseEngine>();
  ForkBaseEngine* backend = inner.get();
  auto faulty = std::make_unique<FaultyEngine>(std::move(inner), nullptr);
  FaultyEngine* engine = faulty.get();
  StorageEngineService service(std::move(faulty));

  const std::string request =
      wire::EncodePutRequest("artifact/shed", "payload", "sess.shed");

  engine->set_shed(true);
  const std::string shed_response = service.Handle(request);
  std::string_view rest;
  const Status shed_status = wire::DecodeResponseStatus(shed_response, &rest);
  ASSERT_FALSE(shed_status.ok());
  EXPECT_TRUE(shed_status.IsResourceExhausted()) << shed_status;
  EXPECT_EQ(backend->stats().puts, 0u);

  // The retry (bit-identical retransmit, same token) must re-execute and
  // succeed promptly — not block, not replay the shed answer.
  engine->set_shed(false);
  const std::string retry_response = service.Handle(request);
  EXPECT_TRUE(wire::DecodeResponseStatus(retry_response, &rest).ok());
  EXPECT_EQ(backend->stats().puts, 1u);
  EXPECT_EQ(backend->Versions("artifact/shed").size(), 1u);
  EXPECT_EQ(service.replay_hits(), 0u);  // the shed answer was never recorded

  // And the token behaves as a NORMAL replay token from here on.
  const std::string duplicate = service.Handle(request);
  EXPECT_EQ(duplicate, retry_response);
  EXPECT_EQ(backend->stats().puts, 1u);
  EXPECT_EQ(service.replay_hits(), 1u);
}

TEST(ChaosTest, DeferredGetUnderDeadPeerResolvesWithinCallTimeout) {
  // A peer that accepts and swallows bytes but never responds: the worst
  // kind of partial failure. Deferred::Get must resolve with a typed status
  // within call_timeout_ms — never block past it.
  const std::string path =
      "/tmp/mlcask_chaos_mute_" + std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 8), 0);
  std::atomic<bool> stop{false};
  std::thread mute([&] {
    std::vector<int> fds;
    std::vector<std::thread> drains;
    while (!stop.load()) {
      int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) break;
      fds.push_back(fd);
      // Drain in the background so the client's writes never block either.
      drains.emplace_back([fd] {
        char buf[4096];
        while (::read(fd, buf, sizeof(buf)) > 0) {
        }
      });
    }
    // End every drain's read, join, and only then close: closing under a
    // blocked reader races it, and the reader could go on to read whatever
    // the reused fd number is opened for next.
    for (int fd : fds) ::shutdown(fd, SHUT_RDWR);
    for (std::thread& drain : drains) drain.join();
    for (int fd : fds) ::close(fd);
  });

  {
    SocketTransport::Options options;
    options.call_timeout_ms = 400;
    options.redial_budget_ms = 200;
    auto transport = SocketTransport::Connect("unix:" + path, options);
    ASSERT_TRUE(transport.ok()) << transport.status();
    RemoteStorageEngine engine(*std::move(transport));

    const auto start = std::chrono::steady_clock::now();
    auto deferred = engine.AsyncPut("artifact/mute", "data");
    auto result = deferred.Get();
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.status().code() == StatusCode::kDeadlineExceeded ||
                result.status().code() == StatusCode::kUnavailable)
        << result.status();
    // Bounded: call_timeout_ms plus generous scheduling slack, far below
    // anything resembling a hang.
    EXPECT_LT(elapsed, 5000) << "Deferred::Get blocked past its deadline";
  }
  stop.store(true);
  ::shutdown(listener, SHUT_RDWR);
  ::close(listener);
  mute.join();
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// LocalServerCluster: crash forensics and durable kill -9 recovery
// ---------------------------------------------------------------------------

TEST(ChaosTest, StopReportsCleanShutdownAsOk) {
  LocalServerCluster servers;
  ASSERT_TRUE(servers.Start(2, ServerOptions()).ok());
  auto verdict = servers.Stop();
  EXPECT_TRUE(verdict.ok()) << verdict;
}

TEST(ChaosTest, StopDecodesACrashedShardWithSignalAndLogTail) {
  // kill_after=1: the server SIGKILLs itself on its first data job. That is
  // a real crash (not a deliberate KillShard), so Stop() must report it,
  // decoded from the wait status.
  LocalServerCluster servers;
  auto options = ServerOptions();
  options.fault_spec = "seed=5,kill_after=1";
  ASSERT_TRUE(servers.Start(1, options).ok());

  SocketTransport::Options transport_options;
  transport_options.call_timeout_ms = 2000;
  transport_options.redial_budget_ms = 100;  // the server is not coming back
  auto cluster = ConnectCluster(servers.endpoints(),
                                ShardedStorageEngine::Options(),
                                transport_options);
  if (cluster.ok()) {
    // The first request (possibly the connection hello) killed the server;
    // whichever call observes it must fail typed, not hang.
    auto put = (*cluster)->Put("artifact/boom", "x");
    EXPECT_FALSE(put.ok());
  }

  auto verdict = servers.Stop();
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.ToString().find("killed by signal 9"), std::string::npos)
      << verdict;
}

TEST(ChaosTest, DurableShardSurvivesKillDashNineAndRouterRecovers2pc) {
  LocalServerCluster servers;
  auto options = ServerOptions();
  options.durable = true;
  ASSERT_TRUE(servers.Start(2, options).ok());

  std::string key0;  // object key owned by shard 0, written pre-crash
  {
    auto cluster = ConnectCluster(servers.endpoints());
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    key0 = KeyOnShard(**cluster, 0, "durable");
    ASSERT_TRUE((*cluster)->Put(key0, "survives-kill").ok());

    // Plant a committed-but-unapplied transaction (intents everywhere,
    // decision on shard 0) THROUGH the sockets, onto the durable engines —
    // the exact debris of a coordinator that died after its decision.
    for (size_t s = 0; s < 2; ++s) {
      ASSERT_TRUE((*cluster)
                      ->shard(s)
                      ->Put(StagingKey(42, s, 0, "pipeline/recovered/commits"),
                            "the-commit")
                      .ok());
    }
    ASSERT_TRUE((*cluster)
                    ->shard(0)
                    ->Put(DecisionKey(42),
                          std::string(kIntentHeader) + "commit")
                    .ok());
  }  // old router gone: the coordinator is dead

  // kill -9 both shards (no flush, no goodbye), then restart them on their
  // data dirs.
  for (size_t s = 0; s < 2; ++s) {
    ASSERT_TRUE(servers.KillShard(s).ok());
  }
  for (size_t s = 0; s < 2; ++s) {
    auto restarted = servers.RestartShard(s);
    ASSERT_TRUE(restarted.ok()) << restarted;
  }

  auto cluster = ConnectCluster(servers.endpoints());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  // Durability: the acknowledged pre-crash write is still there.
  auto got = (*cluster)->Get(key0);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, "survives-kill");

  // The new router scans the debris and rolls the decided transaction
  // forward on every shard.
  auto recovered = (*cluster)->RecoverTwoPhase();
  ASSERT_TRUE(recovered.ok()) << recovered;
  auto tp = (*cluster)->two_phase_stats();
  EXPECT_EQ(tp.recovered_transactions, 1u);
  EXPECT_EQ(tp.fenced_transactions, 0u);
  for (size_t s = 0; s < 2; ++s) {
    auto commit = (*cluster)->shard(s)->Get("pipeline/recovered/commits");
    ASSERT_TRUE(commit.ok()) << "shard " << s << ": " << commit.status();
    EXPECT_EQ(*commit, "the-commit");
  }
  EXPECT_EQ(CountStagedKeys(**cluster), 0u)
      << "no INDETERMINATE __2pc__ intents may survive recovery";

  // The healed cluster takes new replicated commits.
  ASSERT_TRUE((*cluster)->Put("pipeline/post/commits", "fresh").ok());
  auto verdict = servers.Stop();
  EXPECT_TRUE(verdict.ok()) << verdict;  // the kills were deliberate
}

}  // namespace
}  // namespace mlcask::storage

// ---------------------------------------------------------------------------
// The seeded fault sweep: real 4-shard merges under injection must produce
// the bit-identical winner — or nothing, but never a wrong winner and never
// a hang. (Separate namespace: reuses the merge fingerprint idiom.)
// ---------------------------------------------------------------------------

namespace mlcask::merge {
namespace {

struct MergeFingerprint {
  uint64_t executions = 0;
  double best_score = 0;
  int best_index = -1;
  std::vector<std::string> winner_chain;
  std::vector<std::string> artifact_hashes;

  bool operator==(const MergeFingerprint& other) const {
    return executions == other.executions && best_score == other.best_score &&
           best_index == other.best_index &&
           winner_chain == other.winner_chain &&
           artifact_hashes == other.artifact_hashes;
  }
};

MergeFingerprint RunMerge(size_t shards,
                          const std::vector<std::string>& endpoints,
                          const std::string& client_fault_spec = "") {
  sim::DeploymentConfig config;
  config.num_workers = 1;
  config.storage_shards = shards;
  config.storage_endpoints = endpoints;
  config.client_fault_spec = client_fault_spec;
  auto deployment = sim::MakeDeployment("readmission", 0.06, config);
  MLCASK_CHECK_OK(deployment.status());
  auto d = *std::move(deployment);
  MLCASK_CHECK_OK(sim::BuildTwoBranchScenario(d.get()).status());
  MergeOperation op(d->repo.get(), d->libraries.get(), d->registry.get(),
                    d->engine.get(), d->clock.get());
  MergeOptions options;
  options.shards = shards;
  auto report = op.Merge("master", "dev", options);
  MLCASK_CHECK_OK(report.status());

  MergeFingerprint fp;
  fp.executions = report->component_executions;
  fp.best_score = report->best_score;
  fp.best_index = report->best_index;
  const CandidateChain& winner =
      report->outcomes[static_cast<size_t>(report->best_index)].chain;
  for (const pipeline::ComponentVersionSpec* spec : winner) {
    fp.winner_chain.push_back(spec->Key());
  }
  auto head = d->repo->Head("master");
  MLCASK_CHECK_OK(head.status());
  for (const version::ComponentRecord& rec : (*head)->snapshot.components) {
    fp.artifact_hashes.push_back(rec.output_id.ToHex());
  }
  return fp;
}

TEST(ChaosMergeTest, SeededFaultScheduleProducesBitIdenticalWinner) {
  const MergeFingerprint reference = RunMerge(1, {});
  for (uint64_t seed : {7ull, 23ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    storage::LocalServerCluster servers;
    auto options = storage::ServerOptions();
    // Server side: seeded job delays reorder completions across shards.
    options.fault_spec =
        "seed=" + std::to_string(seed) + ",delay_ms=2:0.05";
    ASSERT_TRUE(servers.Start(4, options).ok());
    // Client side: seeded connection kills before AND after send — every
    // loss path heals through redial + idempotent replay.
    const std::string client_spec = "seed=" + std::to_string(seed + 1) +
                                    ",drop=0.01,dropafter=0.01";
    MergeFingerprint fp = RunMerge(4, servers.endpoints(), client_spec);
    EXPECT_TRUE(fp == reference)
        << "merge under faults diverged: executions " << fp.executions
        << " vs " << reference.executions << ", best_index " << fp.best_index
        << " vs " << reference.best_index;
    auto verdict = servers.Stop();
    EXPECT_TRUE(verdict.ok()) << verdict;
  }
}

}  // namespace
}  // namespace mlcask::merge
