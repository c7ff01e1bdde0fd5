// Tests for the ExecutionCore (thread pool + virtual-time schedulers) and
// the ArtifactCache's in-flight guards.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/artifact_cache.h"
#include "pipeline/execution_core.h"

namespace mlcask::pipeline {
namespace {

TEST(ExecutionCoreTest, RunWorkersRunsBodyPerWorker) {
  for (size_t workers : {size_t{1}, size_t{4}}) {
    ExecutionCore core(workers);
    std::vector<std::atomic<size_t>> calls(workers);
    Status status = core.RunWorkers(
        [&](size_t i) {
          calls[i].fetch_add(1);
          return Status::Ok();
        },
        workers);
    ASSERT_TRUE(status.ok());
    // Every body index ran exactly once.
    for (const std::atomic<size_t>& c : calls) EXPECT_EQ(c.load(), 1u);
  }
}

TEST(ExecutionCoreTest, RunWorkersPropagatesError) {
  ExecutionCore core(4);
  std::atomic<size_t> ran{0};
  Status status = core.RunWorkers(
      [&](size_t i) {
        ran.fetch_add(1);
        return i == 1 || i == 2 ? Status::Internal("boom " + std::to_string(i))
                                : Status::Ok();
      },
      4);
  EXPECT_FALSE(status.ok());
  // A failing body does not cancel the others, and the lowest-numbered
  // failure is the one reported.
  EXPECT_EQ(ran.load(), 4u);
  EXPECT_EQ(status.message(), "boom 1");
}

TEST(ExecutionCoreTest, OneBodyBatchRunsInlineOnTheCaller) {
  ExecutionCore core(4);
  std::thread::id ran_on;
  ASSERT_TRUE(core.RunWorkers(
                      [&](size_t) {
                        ran_on = std::this_thread::get_id();
                        return Status::Ok();
                      },
                      1)
                  .ok());
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(core.stats().tasks_stolen, 0u);
}

TEST(ExecutionCoreTest, GraphMakespanModelsParallelMachine) {
  // Diamond: 0 -> {1, 2} -> 3, each task 1 virtual second. With two
  // workers 1 and 2 overlap: makespan 3; serially it is 4.
  std::vector<std::vector<size_t>> deps = {{}, {0}, {0}, {1, 2}};
  auto run = [](size_t, SimClock* clock) {
    clock->Advance(1.0);
    return Status::Ok();
  };
  ExecutionCore serial(1);
  auto serial_span = serial.RunGraph(deps, run, /*virtual_workers=*/1);
  ASSERT_TRUE(serial_span.ok());
  EXPECT_DOUBLE_EQ(*serial_span, 4.0);

  ExecutionCore parallel(2);
  auto parallel_span = parallel.RunGraph(deps, run, /*virtual_workers=*/2);
  ASSERT_TRUE(parallel_span.ok());
  EXPECT_DOUBLE_EQ(*parallel_span, 3.0);
}

TEST(ExecutionCoreTest, GraphRespectsDependencyOrder) {
  // A chain: each task must observe its predecessor's side effect.
  constexpr size_t kN = 32;
  std::vector<std::vector<size_t>> deps(kN);
  for (size_t i = 1; i < kN; ++i) deps[i] = {i - 1};
  std::vector<int> done(kN, 0);
  std::atomic<bool> violated{false};
  ExecutionCore core(4);
  auto span = core.RunGraph(
      deps,
      [&](size_t i, SimClock*) {
        if (i > 0 && done[i - 1] != 1) violated = true;
        done[i] = 1;
        return Status::Ok();
      },
      /*virtual_workers=*/4);
  ASSERT_TRUE(span.ok());
  EXPECT_FALSE(violated.load());
}

TEST(ExecutionCoreTest, GraphFinishTimesReported) {
  std::vector<std::vector<size_t>> deps = {{}, {0}};
  std::vector<double> finish;
  ExecutionCore core(2);
  auto span = core.RunGraph(
      deps,
      [](size_t i, SimClock* clock) {
        clock->Advance(i == 0 ? 1.5 : 2.0);
        return Status::Ok();
      },
      /*virtual_workers=*/2, /*start_time_s=*/10.0, &finish);
  ASSERT_TRUE(span.ok());
  ASSERT_EQ(finish.size(), 2u);
  EXPECT_DOUBLE_EQ(finish[0], 11.5);
  EXPECT_DOUBLE_EQ(finish[1], 13.5);
  EXPECT_DOUBLE_EQ(*span, 13.5);
}

TEST(ExecutionCoreTest, GraphWithUnreachableCycleErrorsInsteadOfHanging) {
  // Task 0 is a valid source, but 1 and 2 depend on each other: the graph
  // must error out after 0 completes, not sleep forever.
  std::vector<std::vector<size_t>> deps = {{}, {2}, {1}};
  for (size_t workers : {size_t{1}, size_t{2}}) {
    ExecutionCore core(workers);
    auto span = core.RunGraph(
        deps, [](size_t, SimClock*) { return Status::Ok(); }, workers);
    EXPECT_FALSE(span.ok()) << "workers=" << workers;
  }
}

TEST(ExecutionCoreTest, GraphErrorCancelsRemainingTasks) {
  constexpr size_t kN = 16;
  std::vector<std::vector<size_t>> deps(kN);
  for (size_t i = 1; i < kN; ++i) deps[i] = {i - 1};
  std::atomic<size_t> ran{0};
  ExecutionCore core(2);
  auto span = core.RunGraph(
      deps,
      [&](size_t i, SimClock*) {
        ran.fetch_add(1);
        return i == 3 ? Status::Internal("boom") : Status::Ok();
      },
      /*virtual_workers=*/2);
  EXPECT_FALSE(span.ok());
  EXPECT_LT(ran.load(), kN);
}

TEST(ExecutionCoreTest, VirtualWidthIsIndependentOfThreadCount) {
  // Diamond: 0 -> {1, 2} -> 3, each task 1 virtual second. The reported
  // makespan follows the requested VIRTUAL width, not the pool's real
  // thread count — a wide pool models a serial machine faithfully and a
  // narrow pool models a wide machine faithfully.
  std::vector<std::vector<size_t>> deps = {{}, {0}, {0}, {1, 2}};
  auto run = [](size_t, SimClock* clock) {
    clock->Advance(1.0);
    return Status::Ok();
  };
  ExecutionCore wide_pool(4);
  auto serial_span = wide_pool.RunGraph(deps, run, /*virtual_workers=*/1);
  ASSERT_TRUE(serial_span.ok());
  EXPECT_DOUBLE_EQ(*serial_span, 4.0);

  ExecutionCore narrow_pool(1);
  auto parallel_span =
      narrow_pool.RunGraph(deps, run, /*virtual_workers=*/2);
  ASSERT_TRUE(parallel_span.ok());
  EXPECT_DOUBLE_EQ(*parallel_span, 3.0);
}

TEST(ExecutionCoreTest, NestedRunGraphFromPoolWorkerDoesNotDeadlock) {
  // Regression for the shared-pool deadlock: every pool thread is occupied
  // by an outer body, and each outer body submits a nested graph to the
  // SAME pool. Without the submitting thread helping (batch-local work
  // stealing) the nested batches would sit in the queue forever. The
  // virtual makespans of the nested graphs must come out exactly as if
  // each had the pool to itself.
  ExecutionCore core(2);
  std::vector<std::vector<size_t>> deps = {{}, {0}, {0}, {1, 2}};
  auto run = [](size_t, SimClock* clock) {
    clock->Advance(1.0);
    return Status::Ok();
  };
  std::atomic<size_t> nested_ok{0};
  auto outer = [&](size_t) -> Status {
    auto span = core.RunGraph(deps, run, /*virtual_workers=*/2);
    MLCASK_RETURN_IF_ERROR(span.status());
    if (*span == 3.0) nested_ok.fetch_add(1);
    return Status::Ok();
  };
  ASSERT_TRUE(core.RunWorkers(outer, /*num_bodies=*/2).ok());
  EXPECT_EQ(nested_ok.load(), 2u);
  // The nested submitters must have helped: at least one nested body was
  // claimed by its own submitting thread rather than a pool thread.
  EXPECT_GT(core.stats().tasks_stolen, 0u);
}

TEST(ExecutionCoreTest, PoolStatsCountThreadsBatchesAndTasks) {
  ExecutionCore core(3);
  EXPECT_EQ(core.stats().threads_spawned, 3u);
  EXPECT_EQ(core.stats().batches_run, 0u);
  ASSERT_TRUE(
      core.RunWorkers([](size_t) { return Status::Ok(); }, /*num_bodies=*/5)
          .ok());
  ExecutionCore::PoolStats stats = core.stats();
  EXPECT_EQ(stats.batches_run, 1u);
  EXPECT_EQ(stats.tasks_run, 5u);
  // An inline (threadless) core spawns nothing and steals nothing.
  ExecutionCore inline_core(1);
  ASSERT_TRUE(inline_core
                  .RunWorkers([](size_t) { return Status::Ok(); },
                              /*num_bodies=*/2)
                  .ok());
  EXPECT_EQ(inline_core.stats().threads_spawned, 0u);
  EXPECT_EQ(inline_core.stats().tasks_run, 2u);
  EXPECT_EQ(inline_core.stats().tasks_stolen, 0u);
}

TEST(ExecutionCoreTest, InstanceCounterTracksConstruction) {
  const uint64_t before = ExecutionCore::instances_created();
  {
    ExecutionCore a(1);
    ExecutionCore b(2);
  }
  EXPECT_EQ(ExecutionCore::instances_created() - before, 2u);
}

TEST(ArtifactCacheTest, FindMissesUntilInsert) {
  ArtifactCache cache;
  Hash256 key;
  key.bytes[0] = 1;
  EXPECT_EQ(cache.Find(key), nullptr);
  ArtifactEntry entry;
  entry.score = 0.5;
  cache.Insert(key, std::move(entry));
  auto found = cache.Find(key);
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->score, 0.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ArtifactCacheTest, InFlightGuardComputesOnce) {
  // Many threads acquire the same key; exactly one gets a lease, the rest
  // block until it fulfills and then reuse the entry.
  ArtifactCache cache;
  Hash256 key;
  key.bytes[0] = 7;
  std::atomic<size_t> computed{0};
  std::atomic<size_t> reused{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      ArtifactCache::Acquired acquired = cache.Acquire(key);
      if (acquired.lease != nullptr) {
        computed.fetch_add(1);
        // Hold the lease long enough that the others really wait.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ArtifactEntry entry;
        entry.score = 0.75;
        cache.Fulfill(acquired.lease.get(), std::move(entry));
      } else {
        EXPECT_DOUBLE_EQ(acquired.entry->score, 0.75);
        reused.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computed.load(), 1u);
  EXPECT_EQ(reused.load(), 7u);
}

TEST(ArtifactCacheTest, AbandonedLeaseHandsOverToWaiter) {
  ArtifactCache cache;
  Hash256 key;
  key.bytes[0] = 9;
  std::atomic<size_t> leases_granted{0};
  {
    ArtifactCache::Acquired first = cache.Acquire(key);
    ASSERT_NE(first.lease, nullptr);
    std::thread waiter([&] {
      ArtifactCache::Acquired second = cache.Acquire(key);
      // The abandoned lease must not leave the waiter stuck or hand it a
      // phantom entry.
      ASSERT_NE(second.lease, nullptr);
      leases_granted.fetch_add(1);
      ArtifactEntry entry;
      entry.score = 1.0;
      cache.Fulfill(second.lease.get(), std::move(entry));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    // Drop `first` without fulfilling: error path.
    { ArtifactCache::Acquired dropped = std::move(first); }
    waiter.join();
  }
  EXPECT_EQ(leases_granted.load(), 1u);
  auto found = cache.Find(key);
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->score, 1.0);
}

TEST(ArtifactCacheTest, ClearKeepsPendingLeases) {
  ArtifactCache cache;
  Hash256 ready_key, pending_key;
  ready_key.bytes[0] = 1;
  pending_key.bytes[0] = 2;
  cache.Insert(ready_key, ArtifactEntry{});
  ArtifactCache::Acquired acquired = cache.Acquire(pending_key);
  ASSERT_NE(acquired.lease, nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Find(ready_key), nullptr);
  // The pending computation still publishes.
  cache.Fulfill(acquired.lease.get(), ArtifactEntry{});
  EXPECT_NE(cache.Find(pending_key), nullptr);
}

}  // namespace
}  // namespace mlcask::pipeline
