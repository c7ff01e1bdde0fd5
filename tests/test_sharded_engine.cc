// The distributed storage + merge stack: ShardedStorageEngine routing,
// replicated namespaces, two-phase commit (including the abort path), the
// RemoteStorageEngine wire protocol — and the headline equivalence harness:
// a sharded merge drain (MergeOptions::shards ∈ {1,2,4,8}) must produce the
// identical winner, execution count, and persisted artifact hashes as the
// single-node path on the fig9 and fig11 scenarios, with and without
// mid-merge shard-cache eviction.

#include "storage/sharded_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "merge/merge_op.h"
#include "sim/scenario.h"
#include "storage/forkbase_engine.h"
#include "storage/local_dir_engine.h"
#include "storage/remote_engine.h"
#include "storage/transport.h"

namespace mlcask::storage {
namespace {

std::unique_ptr<ShardedStorageEngine> MakeCluster(size_t shards) {
  return MakeLoopbackCluster(
      shards, [] { return std::make_unique<ForkBaseEngine>(); });
}

TEST(ShardedEngineTest, RoutesAndRoundTripsAcrossShards) {
  auto cluster = MakeCluster(4);
  std::vector<PutResult> puts;
  for (int i = 0; i < 32; ++i) {
    auto put = cluster->Put("artifact/obj" + std::to_string(i),
                            "payload-" + std::to_string(i));
    ASSERT_TRUE(put.ok());
    puts.push_back(*put);
  }
  for (int i = 0; i < 32; ++i) {
    auto got = cluster->Get("artifact/obj" + std::to_string(i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "payload-" + std::to_string(i));
    auto by_id = cluster->GetVersion(puts[static_cast<size_t>(i)].id);
    ASSERT_TRUE(by_id.ok());
    EXPECT_EQ(*by_id, "payload-" + std::to_string(i));
    EXPECT_TRUE(cluster->HasVersion(puts[static_cast<size_t>(i)].id));
  }
  // Consistent hashing actually spreads the keys: no shard is empty and no
  // shard holds everything.
  size_t occupied = 0;
  for (size_t s = 0; s < cluster->num_shards(); ++s) {
    size_t keys = cluster->shard(s)->ListAllVersions().size();
    EXPECT_LT(keys, 32u);
    if (keys > 0) ++occupied;
  }
  EXPECT_GT(occupied, 1u);
  // The logical view is exactly one entry per put.
  EXPECT_EQ(cluster->ListAllVersions().size(), 32u);
}

TEST(ShardedEngineTest, ReplicatedNamespaceReachesEveryShard) {
  auto cluster = MakeCluster(3);
  ASSERT_TRUE(cluster->IsReplicated("pipeline/demo/commits"));
  ASSERT_FALSE(cluster->IsReplicated("artifact/demo/x"));
  auto put = cluster->Put("pipeline/demo/commits", "commit-json");
  ASSERT_TRUE(put.ok());
  // Every shard can answer the branch-table/commit-log read locally.
  for (size_t s = 0; s < cluster->num_shards(); ++s) {
    auto got = cluster->shard(s)->Get("pipeline/demo/commits");
    ASSERT_TRUE(got.ok()) << "shard " << s;
    EXPECT_EQ(*got, "commit-json");
  }
  // Replication ran as a two-phase transaction...
  auto tp = cluster->two_phase_stats();
  EXPECT_EQ(tp.transactions, 1u);
  EXPECT_EQ(tp.commits, 1u);
  EXPECT_EQ(tp.aborts, 0u);
  EXPECT_EQ(tp.prepared_writes, 3u);
  // ...and the logical view still shows ONE copy, with staging records gone.
  auto all = cluster->ListAllVersions();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].first, "pipeline/demo/commits");
  // Deleting drops every replica.
  ASSERT_TRUE(cluster->DeleteVersion(put->id).ok());
  for (size_t s = 0; s < cluster->num_shards(); ++s) {
    EXPECT_FALSE(cluster->shard(s)->HasVersion(put->id));
  }
}

TEST(ShardedEngineTest, PutManyCommitsAtomicallyInOrder) {
  auto cluster = MakeCluster(4);
  std::vector<PutRequest> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back({"artifact/w/c" + std::to_string(i),
                     "winner-output-" + std::to_string(i)});
  }
  auto results = cluster->PutMany(batch);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), batch.size());
  // Results come back in batch order and every key is readable.
  for (size_t i = 0; i < batch.size(); ++i) {
    auto got = cluster->GetVersion((*results)[i].id);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, batch[i].data);
  }
  auto tp = cluster->two_phase_stats();
  EXPECT_EQ(tp.transactions, 1u);
  EXPECT_EQ(tp.commits, 1u);
  EXPECT_EQ(tp.prepared_writes, batch.size());
  // No staging residue in the logical view.
  EXPECT_EQ(cluster->ListAllVersions().size(), batch.size());
}

TEST(ShardedEngineTest, TwoPhaseRoundTripLedgerObservesOverlappedFanout) {
  auto cluster = MakeCluster(4);
  // One replicated put: 4 participants, one prepare batch + one apply each.
  ASSERT_TRUE(cluster->Put("pipeline/demo/commits", "commit-json").ok());
  auto tp = cluster->two_phase_stats();
  EXPECT_EQ(tp.prepare_round_trips, 4u);
  EXPECT_EQ(tp.apply_round_trips, 4u);
  // The accounting-not-timing witness: all four participants' round trips
  // were in flight before the first was collected. The old serial
  // issue-one-wait-one loop can never push this above 1.
  EXPECT_EQ(tp.max_inflight_round_trips, 4u);
  // The durable commit decision adds one round trip, always on shard 0.
  EXPECT_EQ(tp.decision_round_trips, 1u);
  ASSERT_EQ(tp.per_shard_round_trips.size(), 4u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(tp.per_shard_round_trips[s], s == 0 ? 3u : 2u) << "shard " << s;
  }

  // A routed (non-replicated) multi-write batch: participants vary, but
  // per-shard counts must sum to prepare batches + apply writes.
  std::vector<PutRequest> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back({"artifact/rt/c" + std::to_string(i), "x"});
  }
  ASSERT_TRUE(cluster->PutMany(batch).ok());
  tp = cluster->two_phase_stats();
  uint64_t per_shard_total = 0;
  for (uint64_t n : tp.per_shard_round_trips) per_shard_total += n;
  EXPECT_EQ(per_shard_total, tp.prepare_round_trips + tp.apply_round_trips +
                                 tp.decision_round_trips);
  EXPECT_EQ(tp.transactions, 2u);
}

TEST(ShardedEngineTest, BroadcastLedgerCountsIndexMissProbes) {
  auto cluster = MakeCluster(3);
  // Write BEHIND the router (directly to a shard) so the router index has
  // never seen the version id: lookups must fall back to a broadcast.
  auto put = cluster->shard(1)->Put("artifact/hidden", "behind-the-router");
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(cluster->broadcast_stats().broadcasts, 0u);

  EXPECT_TRUE(cluster->HasVersion(put->id));
  auto bc = cluster->broadcast_stats();
  EXPECT_EQ(bc.broadcasts, 1u);
  EXPECT_EQ(bc.probe_round_trips, 3u);
  EXPECT_EQ(bc.max_inflight_probes, 3u);  // overlapped, not serial
  ASSERT_EQ(bc.per_shard_probes.size(), 3u);
  for (size_t s = 0; s < 3; ++s) EXPECT_EQ(bc.per_shard_probes[s], 1u);

  auto data = cluster->GetVersion(put->id);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "behind-the-router");
  bc = cluster->broadcast_stats();
  EXPECT_EQ(bc.broadcasts, 2u);
  EXPECT_EQ(bc.probe_round_trips, 6u);

  // An INDEXED lookup never broadcasts: the ledger stands still.
  auto indexed = cluster->Put("artifact/indexed", "routed");
  ASSERT_TRUE(indexed.ok());
  EXPECT_TRUE(cluster->HasVersion(indexed->id));
  EXPECT_EQ(cluster->broadcast_stats().broadcasts, 2u);
}

TEST(ShardedEngineTest, ReplicatedPutSendsItsValueOncePerReplica) {
  // Phase 1 stages the raw value on each replica; phase 2 applies it by
  // reference (CopyVersion sends a key and an id) and cleanup deletes by
  // id. So the shards receive the value once each — not a second time in
  // phase 2 — and nothing of the transaction is left behind.
  auto cluster = MakeCluster(2);
  Pcg32 rng(512);
  std::string value(512 << 10, '\0');
  for (char& c : value) c = static_cast<char>(rng.NextU32() & 0xff);
  auto request_bytes = [&cluster]() {
    uint64_t total = 0;
    for (size_t s = 0; s < cluster->num_shards(); ++s) {
      auto* remote = dynamic_cast<RemoteStorageEngine*>(cluster->shard(s));
      EXPECT_NE(remote, nullptr);
      if (remote != nullptr) total += remote->transport()->stats().request_bytes;
    }
    return total;
  };
  const uint64_t before = request_bytes();
  auto put = cluster->Put("library/model/weights", value);
  ASSERT_TRUE(put.ok()) << put.status();
  const uint64_t sent = request_bytes() - before;
  EXPECT_LT(static_cast<double>(sent), 2.2 * static_cast<double>(value.size()))
      << sent << " request bytes for a " << value.size() << "-byte value";

  for (size_t s = 0; s < cluster->num_shards(); ++s) {
    for (const auto& [key, id] : cluster->shard(s)->ListAllVersions()) {
      (void)id;
      EXPECT_NE(key.rfind("__2pc__/", 0), 0u) << "shard " << s << ": " << key;
    }
  }
  // The id a single engine gives the same write.
  ForkBaseEngine single;
  auto single_put = single.Put("library/model/weights", value);
  ASSERT_TRUE(single_put.ok());
  EXPECT_EQ(put->id, single_put->id);
  EXPECT_EQ(*cluster->Get("library/model/weights"), value);
}

/// Wraps an engine and fails every Put once armed — the "participant vote
/// no" of the 2PC tests.
template <typename Inner>
class FailingEngineT : public StorageEngine {
 public:
  StatusOr<PutResult> Put(const std::string& key,
                          std::string_view data) override {
    const bool staging = key.rfind("__2pc__/", 0) == 0;
    if (fail_puts) return Status::Internal("injected shard failure");
    if (fail_apply_puts && !staging) {
      // Votes yes in phase 1 (staging writes succeed), breaks in phase 2.
      return Status::Internal("injected apply failure");
    }
    return inner.Put(key, data);
  }
  StatusOr<std::string> Get(const std::string& key) override {
    return inner.Get(key);
  }
  StatusOr<std::string> GetVersion(const Hash256& id) override {
    return inner.GetVersion(id);
  }
  bool HasVersion(const Hash256& id) const override {
    return inner.HasVersion(id);
  }
  std::vector<Hash256> Versions(const std::string& key) const override {
    return inner.Versions(key);
  }
  std::vector<std::pair<std::string, Hash256>> ListAllVersions()
      const override {
    return inner.ListAllVersions();
  }
  StatusOr<uint64_t> DeleteVersion(const Hash256& id) override {
    return inner.DeleteVersion(id);
  }
  EngineStats stats() const override { return inner.stats(); }
  std::string Name() const override { return "failing"; }
  double ReadCost(uint64_t bytes) const override {
    return inner.ReadCost(bytes);
  }

  bool fail_puts = false;
  bool fail_apply_puts = false;
  Inner inner;
};

using FailingEngine = FailingEngineT<LocalDirEngine>;

TEST(ShardedEngineTest, PrepareFailureAbortsWithoutPartialState) {
  std::vector<std::unique_ptr<StorageEngine>> shards;
  shards.push_back(std::make_unique<LocalDirEngine>());
  auto failing = std::make_unique<FailingEngine>();
  FailingEngine* failing_ptr = failing.get();
  shards.push_back(std::move(failing));
  ShardedStorageEngine cluster(std::move(shards));

  failing_ptr->fail_puts = true;
  // A replicated write must reach both shards, so shard 1's "no" vote
  // aborts the transaction before ANY real key surfaces.
  auto put = cluster.Put("pipeline/demo/commits", "doomed");
  ASSERT_FALSE(put.ok());
  EXPECT_TRUE(cluster.Get("pipeline/demo/commits").status().IsNotFound());
  auto tp = cluster.two_phase_stats();
  EXPECT_EQ(tp.aborts, 1u);
  EXPECT_EQ(tp.commits, 0u);
  // Shard 0's staged intent was rolled back: nothing is left anywhere.
  EXPECT_TRUE(cluster.shard(0)->ListAllVersions().empty());
  EXPECT_TRUE(cluster.shard(1)->ListAllVersions().empty());

  // Once the participant heals, the same transaction goes through.
  failing_ptr->fail_puts = false;
  ASSERT_TRUE(cluster.Put("pipeline/demo/commits", "healed").ok());
  EXPECT_EQ(*cluster.Get("pipeline/demo/commits"), "healed");
  EXPECT_EQ(cluster.two_phase_stats().commits, 1u);
}

TEST(ShardedEngineTest, ApplyFailureRollsBackAppliedWrites) {
  std::vector<std::unique_ptr<StorageEngine>> shards;
  shards.push_back(std::make_unique<LocalDirEngine>());
  auto failing = std::make_unique<FailingEngine>();
  FailingEngine* failing_ptr = failing.get();
  shards.push_back(std::move(failing));
  ShardedStorageEngine cluster(std::move(shards));

  // Shard 1 votes yes in phase 1 but breaks in phase 2: shard 0's already
  // applied write must be rolled back — no partial merge winner surfaces.
  failing_ptr->fail_apply_puts = true;
  auto put = cluster.Put("pipeline/demo/commits", "half-committed?");
  ASSERT_FALSE(put.ok());
  EXPECT_TRUE(cluster.Get("pipeline/demo/commits").status().IsNotFound());
  EXPECT_TRUE(cluster.shard(0)->ListAllVersions().empty());
  EXPECT_TRUE(cluster.shard(1)->ListAllVersions().empty());
  // Stats stay coherent: every transaction is either a commit or an abort.
  auto tp = cluster.two_phase_stats();
  EXPECT_EQ(tp.transactions, tp.commits + tp.aborts);
  EXPECT_EQ(tp.aborts, 1u);
}

TEST(ShardedEngineTest, RollbackRemovesFullyDeduplicatedApplies) {
  // Regression: on a de-duplicating engine an apply whose bytes pre-exist
  // reports deduplicated=true, but it still created a FRESH version id
  // (ids hash key + ordinal) — rollback must delete it like any other
  // applied write, or the aborted transaction's key stays readable.
  std::vector<std::unique_ptr<StorageEngine>> shards;
  auto healthy = std::make_unique<FailingEngineT<ForkBaseEngine>>();
  auto failing = std::make_unique<FailingEngineT<ForkBaseEngine>>();
  FailingEngineT<ForkBaseEngine>* healthy_ptr = healthy.get();
  FailingEngineT<ForkBaseEngine>* failing_ptr = failing.get();
  shards.push_back(std::move(healthy));
  shards.push_back(std::move(failing));
  ShardedStorageEngine cluster(std::move(shards));

  // Pre-seed the exact payload chunks on both shards under another key, so
  // the later transactional apply fully de-duplicates.
  const std::string payload(4096, 'd');
  ASSERT_TRUE(healthy_ptr->inner.Put("seed", payload).ok());
  ASSERT_TRUE(failing_ptr->inner.Put("seed", payload).ok());

  failing_ptr->fail_apply_puts = true;
  auto put = cluster.Put("pipeline/demo/commits", payload);
  ASSERT_FALSE(put.ok());
  // The aborted write is gone from the healthy shard despite having been a
  // zero-new-bytes apply; the seed object is untouched.
  EXPECT_TRUE(cluster.Get("pipeline/demo/commits").status().IsNotFound());
  EXPECT_TRUE(healthy_ptr->inner.Versions("pipeline/demo/commits").empty());
  EXPECT_EQ(*healthy_ptr->inner.Get("seed"), payload);
  EXPECT_EQ(cluster.two_phase_stats().aborts, 1u);
}

TEST(RemoteEngineTest, WireProtocolMatchesDirectEngine) {
  // The same operations through the serialization boundary and directly
  // against a twin engine must agree bit-for-bit.
  auto service = std::make_shared<StorageEngineService>(
      std::make_unique<ForkBaseEngine>());
  RemoteStorageEngine remote(std::make_unique<LoopbackTransport>(
      [service](std::string_view request) { return service->Handle(request); }));
  ForkBaseEngine direct;

  // Explicit length keeps the embedded NUL and high bytes — exactly what
  // the binary codec must carry intact across the wire.
  constexpr char kBinaryTail[] = "binary\x00\x01\xff tail";
  const std::string binary_tail(kBinaryTail, sizeof(kBinaryTail) - 1);
  ASSERT_EQ(binary_tail.size(), 14u);
  const std::string payload = std::string(2048, '\x7f') + binary_tail;
  auto rp = remote.Put("k", payload);
  auto dp = direct.Put("k", payload);
  ASSERT_TRUE(rp.ok() && dp.ok());
  EXPECT_EQ(rp->id, dp->id);
  EXPECT_EQ(rp->logical_bytes, dp->logical_bytes);
  EXPECT_EQ(rp->new_physical_bytes, dp->new_physical_bytes);
  EXPECT_DOUBLE_EQ(rp->storage_time_s, dp->storage_time_s);

  EXPECT_EQ(*remote.Get("k"), *direct.Get("k"));
  EXPECT_EQ(*remote.GetVersion(rp->id), *direct.GetVersion(dp->id));
  EXPECT_TRUE(remote.HasVersion(rp->id));
  EXPECT_EQ(remote.Versions("k"), direct.Versions("k"));
  EXPECT_EQ(remote.stats().logical_bytes, direct.stats().logical_bytes);
  EXPECT_DOUBLE_EQ(remote.ReadCost(1 << 20), direct.ReadCost(1 << 20));
  EXPECT_EQ(remote.Name(), "remote(forkbase)");

  // Errors round-trip as the original status category.
  Hash256 unknown;
  unknown.bytes[0] = 0xab;
  EXPECT_TRUE(remote.GetVersion(unknown).status().IsNotFound());
  EXPECT_FALSE(remote.HasVersion(unknown));

  // Every one of those calls crossed the wire.
  TransportStats ts = remote.transport()->stats();
  EXPECT_GT(ts.calls, 8u);
  EXPECT_GT(ts.request_bytes, payload.size());  // the whole payload went over
  EXPECT_GT(ts.response_bytes, 0u);
}

}  // namespace
}  // namespace mlcask::storage

namespace mlcask::merge {
namespace {

using sim::BuildDistributedMergeScenario;
using sim::BuildTwoBranchScenario;
using sim::Deployment;
using sim::DeploymentConfig;
using sim::MakeDeployment;

/// Which scenario the equivalence matrix runs on.
enum class Scenario { kFig9, kFig11 };

struct MergeFingerprint {
  uint64_t executions = 0;
  double best_score = 0;
  int best_index = -1;
  size_t candidates = 0;
  double makespan_s = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_peak_bytes = 0;  ///< Summed across shard caches.
  /// Version/impl identity of the winning chain.
  std::vector<std::string> winner_chain;
  /// Persisted artifact content hashes of the merge commit, in order.
  std::vector<std::string> artifact_hashes;
};

MergeFingerprint RunMerge(Scenario scenario, size_t shards,
                          uint64_t cache_max_bytes,
                          bool concurrent_shard_drains = true) {
  DeploymentConfig config;
  config.num_workers = 1;
  config.storage_shards = shards;  // real distributed storage when sharded
  auto deployment = MakeDeployment("readmission", 0.06, config);
  MLCASK_CHECK_OK(deployment.status());
  auto d = *std::move(deployment);
  if (scenario == Scenario::kFig9) {
    MLCASK_CHECK_OK(BuildTwoBranchScenario(d.get()).status());
  } else {
    MLCASK_CHECK_OK(BuildDistributedMergeScenario(
                        d.get(), /*extra_extractor_versions=*/2,
                        /*extra_model_versions=*/2)
                        .status());
  }
  MergeOperation op(d->repo.get(), d->libraries.get(), d->registry.get(),
                    d->engine.get(), d->clock.get());
  MergeOptions options;
  options.shards = shards;
  options.cache_max_bytes = cache_max_bytes;
  options.concurrent_shard_drains = concurrent_shard_drains;
  auto report = op.Merge("master", "dev", options);
  MLCASK_CHECK_OK(report.status());

  MergeFingerprint fp;
  fp.executions = report->component_executions;
  fp.best_score = report->best_score;
  fp.best_index = report->best_index;
  fp.candidates = report->candidates_considered;
  fp.makespan_s = report->makespan_s;
  fp.cache_evictions = report->cache_stats.evictions;
  fp.cache_peak_bytes = report->cache_stats.peak_bytes;
  const CandidateChain& winner =
      report->outcomes[static_cast<size_t>(report->best_index)].chain;
  for (const pipeline::ComponentVersionSpec* spec : winner) {
    fp.winner_chain.push_back(spec->Key());
  }
  auto head = d->repo->Head("master");
  MLCASK_CHECK_OK(head.status());
  for (const version::ComponentRecord& rec : (*head)->snapshot.components) {
    fp.artifact_hashes.push_back(rec.output_id.ToHex());
    // The winner's artifacts are really persisted in the (sharded) engine.
    EXPECT_TRUE(d->engine->HasVersion(rec.output_id));
  }
  return fp;
}

class ShardedMergeEquivalenceTest
    : public ::testing::TestWithParam<size_t> {};

/// The acceptance matrix: winner, executions, and persisted artifact hashes
/// bit-identical to single-node at 1/2/4/8 shards, on both scenarios.
TEST_P(ShardedMergeEquivalenceTest, MatchesSingleNodeOnBothScenarios) {
  const size_t shards = GetParam();
  for (Scenario scenario : {Scenario::kFig9, Scenario::kFig11}) {
    SCOPED_TRACE(scenario == Scenario::kFig9 ? "fig9" : "fig11");
    MergeFingerprint reference = RunMerge(scenario, 1, /*cache=*/0);
    MergeFingerprint sharded = RunMerge(scenario, shards, /*cache=*/0);
    EXPECT_EQ(sharded.executions, reference.executions);
    EXPECT_EQ(sharded.best_index, reference.best_index);
    EXPECT_EQ(sharded.best_score, reference.best_score);  // exact, not near
    EXPECT_EQ(sharded.candidates, reference.candidates);
    EXPECT_EQ(sharded.winner_chain, reference.winner_chain);
    EXPECT_EQ(sharded.artifact_hashes, reference.artifact_hashes);
    if (shards > 1) {
      // Sharding must never make the virtual drain slower.
      EXPECT_LE(sharded.makespan_s, reference.makespan_s + 1e-9);
    }
  }
}

/// REAL-time parallelism must be invisible in the results: dispatching the
/// per-shard drains onto concurrently running per-shard ExecutionCores
/// (real OS threads) produces the identical winner, execution count,
/// persisted artifact hashes — and, with one virtual worker per shard,
/// even the identical virtual makespan — as the sequential real-time
/// dispatch, at every shard count and on both scenarios.
TEST_P(ShardedMergeEquivalenceTest, ConcurrentDrainsMatchSequentialDrains) {
  const size_t shards = GetParam();
  for (Scenario scenario : {Scenario::kFig9, Scenario::kFig11}) {
    SCOPED_TRACE(scenario == Scenario::kFig9 ? "fig9" : "fig11");
    MergeFingerprint sequential =
        RunMerge(scenario, shards, /*cache=*/0,
                 /*concurrent_shard_drains=*/false);
    MergeFingerprint concurrent =
        RunMerge(scenario, shards, /*cache=*/0,
                 /*concurrent_shard_drains=*/true);
    EXPECT_EQ(concurrent.executions, sequential.executions);
    EXPECT_EQ(concurrent.best_index, sequential.best_index);
    EXPECT_EQ(concurrent.best_score, sequential.best_score);
    EXPECT_EQ(concurrent.candidates, sequential.candidates);
    EXPECT_EQ(concurrent.winner_chain, sequential.winner_chain);
    EXPECT_EQ(concurrent.artifact_hashes, sequential.artifact_hashes);
    // One virtual worker per shard keeps each shard's timeline serial and
    // deterministic, so the virtual makespan is bit-identical too — real
    // dispatch order must never leak into virtual time.
    EXPECT_EQ(concurrent.makespan_s, sequential.makespan_s);
  }
}

/// Mid-merge shard-cache eviction: capping each shard's trial cache forces
/// evictions during the drain; the merge result must be unchanged and the
/// recomputation cost bounded to extra executions.
TEST_P(ShardedMergeEquivalenceTest, ShardCacheEvictionKeepsResultIdentical) {
  const size_t shards = GetParam();
  MergeFingerprint uncapped = RunMerge(Scenario::kFig11, shards, /*cache=*/0);
  // Half of one shard's uncapped working set (the report sums per-shard
  // peaks): tight enough to evict mid-drain, far above a single entry.
  const uint64_t cap = uncapped.cache_peak_bytes / (2 * shards);
  MergeFingerprint capped = RunMerge(Scenario::kFig11, shards, cap);
  EXPECT_GT(capped.cache_evictions, 0u) << "cap did not bite";
  EXPECT_EQ(capped.best_index, uncapped.best_index);
  EXPECT_EQ(capped.best_score, uncapped.best_score);
  EXPECT_EQ(capped.winner_chain, uncapped.winner_chain);
  EXPECT_EQ(capped.artifact_hashes, uncapped.artifact_hashes);
  EXPECT_GE(capped.executions, uncapped.executions);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedMergeEquivalenceTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(ShardedMergeTest, FourShardsSpeedUpTheFig11Drain) {
  MergeFingerprint one = RunMerge(Scenario::kFig11, 1, 0);
  MergeFingerprint four = RunMerge(Scenario::kFig11, 4, 0);
  // The bench gates >= 2x; the test keeps a safety margin against workload
  // tweaks while still proving real parallelism.
  EXPECT_GT(one.makespan_s / four.makespan_s, 1.5);
}

}  // namespace
}  // namespace mlcask::merge
