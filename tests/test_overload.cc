// Overload-protection stack: deadline codec + accounting-proven budget
// shrink across fan-out hops, bounded admission queues with typed shedding,
// expired-deadline drops at dequeue, and the redial retry budget.
//
// The deadline-shrink proof here is ACCOUNTING, not timing: every 2PC phase
// charges the ambient budget at least 1ms, so the per-hop stamps a
// coordinator leaves in its transports' hop_budgets_ms ledger must strictly
// decrease even on a machine where the whole transaction runs in
// microseconds — no sleeps, no flaky clock assertions.

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

#include "storage/deadline.h"
#include "storage/fault_injector.h"
#include "storage/forkbase_engine.h"
#include "storage/remote_engine.h"
#include "storage/sharded_engine.h"
#include "storage/socket_transport.h"
#include "storage/transport.h"
#include "storage/wire_codec.h"

namespace mlcask::storage {
namespace {

std::string TempSock(const char* tag) {
  return "/tmp/mlcask-overload-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

// --- budget accounting ------------------------------------------------------

TEST(DeadlineBudgetTest, ChargeShrinksBudgetWithoutWallClock) {
  DeadlineBudget budget(100);
  EXPECT_EQ(budget.total_ms(), 100u);
  const uint64_t r0 = budget.remaining_ms();
  EXPECT_LE(r0, 100u);
  EXPECT_GT(r0, 50u);  // fresh budget, negligible real elapsed
  budget.Charge(10);
  const uint64_t r1 = budget.remaining_ms();
  EXPECT_LT(r1, r0);  // strictly smaller at zero wall time
  budget.Charge(200);
  EXPECT_EQ(budget.remaining_ms(), 0u);
  EXPECT_TRUE(budget.expired());
}

TEST(DeadlineBudgetTest, ScopeIsAmbientNestedAndCheckable) {
  EXPECT_EQ(DeadlineScope::CurrentRemainingMs(), 0u);  // no ambient scope
  DeadlineBudget outer(500);
  DeadlineScope outer_scope(&outer);
  EXPECT_GT(DeadlineScope::CurrentRemainingMs(), 400u);
  {
    DeadlineBudget inner(50);
    DeadlineScope inner_scope(&inner);
    EXPECT_LE(DeadlineScope::CurrentRemainingMs(), 50u);
  }
  // Inner scope popped: the outer budget is ambient again.
  EXPECT_GT(DeadlineScope::CurrentRemainingMs(), 400u);
  EXPECT_TRUE(DeadlineScope::CheckCurrent("test").ok());
  outer.Charge(600);
  EXPECT_TRUE(DeadlineScope::CheckCurrent("test").IsDeadlineExceeded());
}

// --- wire codec -------------------------------------------------------------

TEST(DeadlineCodecTest, StampRoundTripsAndAbsenceIsBitIdenticalOldWire) {
  // No ambient scope: the encoding must carry no deadline tag — these are
  // the exact bytes the previous wire revision produced, so an old peer
  // sees nothing new.
  const std::string unstamped = wire::EncodePutRequest("k", "v", "tok");
  EXPECT_EQ(wire::ExtractDeadline(unstamped), 0u);

  std::string stamped;
  {
    DeadlineBudget budget(750);
    DeadlineScope scope(&budget);
    stamped = wire::EncodePutRequest("k", "v", "tok");
  }
  EXPECT_NE(stamped, unstamped);
  const uint64_t extracted = wire::ExtractDeadline(stamped);
  EXPECT_GT(extracted, 0u);
  EXPECT_LE(extracted, 750u);
  auto decoded = wire::DecodeRequest(stamped);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->deadline_ms, extracted);
  EXPECT_EQ(decoded->key, "k");
  EXPECT_EQ(decoded->body, "v");
  EXPECT_EQ(decoded->replay_token, "tok");

  // A SPENT scope stamps nothing: bit-identical to the stampless wire, so
  // budget exhaustion can never produce a novel encoding either.
  {
    DeadlineBudget spent(0);
    DeadlineScope scope(&spent);
    EXPECT_EQ(wire::EncodePutRequest("k", "v", "tok"), unstamped);
  }
}

TEST(DeadlineCodecTest, EveryRequestEncoderStampsTheAmbientBudget) {
  DeadlineBudget budget(900);
  DeadlineScope scope(&budget);
  const Hash256 id = Sha256::Digest("x");
  EXPECT_GT(wire::ExtractDeadline(wire::EncodePutRequest("k", "v")), 0u);
  EXPECT_GT(wire::ExtractDeadline(wire::EncodePutManyRequest(
                {{"k", "v"}})),
            0u);
  EXPECT_GT(wire::ExtractDeadline(
                wire::EncodeKeyRequest(wire::Method::kGet, "k")),
            0u);
  EXPECT_GT(wire::ExtractDeadline(
                wire::EncodeIdRequest(wire::Method::kGetVersion, id)),
            0u);
  EXPECT_GT(wire::ExtractDeadline(wire::EncodeReadCostRequest(64)), 0u);
  EXPECT_GT(wire::ExtractDeadline(wire::EncodeMigrateBatchRequest({})), 0u);
}

TEST(DeadlineCodecTest, PeeksOnlyTheBinaryDeadlineTag) {
  std::string stamped;
  {
    DeadlineBudget budget(900);
    DeadlineScope scope(&budget);
    stamped = wire::EncodeKeyRequest(wire::Method::kGet, "k");
  }
  EXPECT_GT(PeekRequestDeadlineMs(stamped), 0u);
  EXPECT_EQ(PeekRequestDeadlineMs(
                wire::EncodeKeyRequest(wire::Method::kGet, "k")),
            0u);
  // The retired JSON wire's "deadline_ms" member is not a stamp.
  EXPECT_EQ(PeekRequestDeadlineMs(
                "{\"method\":\"get\",\"deadline_ms\": 123,\"key\":\"k\"}"),
            0u);
  EXPECT_EQ(PeekRequestDeadlineMs(""), 0u);
}

// --- budget shrink across hops ---------------------------------------------

TEST(DeadlineShrinkTest, ReplicatedPutLeavesStrictlyDecreasingHopBudgets) {
  auto cluster = MakeLoopbackCluster(
      3, [] { return std::make_unique<ForkBaseEngine>(); });
  DeadlineBudget budget(1000);
  {
    DeadlineScope scope(&budget);
    ASSERT_TRUE(cluster->Put("pipeline/overload/commit", "snapshot").ok());
  }
  // Every shard saw stamped calls; per-hop (per-phase) budgets strictly
  // decrease. Calls within one phase share a stamp, so adjacent duplicates
  // collapse before the monotonicity check.
  size_t shards_with_three_hops = 0;
  for (size_t s = 0; s < cluster->num_shards(); ++s) {
    auto* remote = dynamic_cast<RemoteStorageEngine*>(cluster->shard(s));
    ASSERT_NE(remote, nullptr);
    const TransportStats stats = remote->transport()->stats();
    ASSERT_GT(stats.deadline_stamped_calls, 0u) << "shard " << s;
    EXPECT_EQ(stats.deadline_stamped_calls, stats.hop_budgets_ms.size());
    std::vector<uint64_t> hops;
    for (uint64_t stamp : stats.hop_budgets_ms) {
      if (hops.empty() || stamp != hops.back()) hops.push_back(stamp);
    }
    ASSERT_GE(hops.size(), 2u) << "shard " << s;
    for (size_t i = 1; i < hops.size(); ++i) {
      EXPECT_LT(hops[i], hops[i - 1])
          << "shard " << s << " hop " << i << " did not shrink";
    }
    if (hops.size() >= 3) ++shards_with_three_hops;
  }
  // The 2PC coordinator path (prepare → decision → apply) gives at least
  // one transport three distinct shrinking budgets: the 3-hop proof.
  EXPECT_GE(shards_with_three_hops, 1u);
}

TEST(DeadlineShrinkTest, SpentBudgetFailsReplicatedPutFastWithNoResidue) {
  auto cluster = MakeLoopbackCluster(
      2, [] { return std::make_unique<ForkBaseEngine>(); });
  DeadlineBudget budget(1);
  budget.Charge(10);  // spent before the call
  DeadlineScope scope(&budget);
  const Status status =
      cluster->Put("pipeline/overload/late", "snapshot").status();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsDeadlineExceeded());
  // Fail-fast means fail-CLEAN: nothing staged, nothing to recover.
  for (size_t s = 0; s < cluster->num_shards(); ++s) {
    for (const auto& [key, id] : cluster->shard(s)->ListAllVersions()) {
      (void)id;
      EXPECT_NE(key.rfind("__2pc__/", 0), 0u) << key;
    }
  }
}

// --- admission control ------------------------------------------------------

TEST(AdmissionTest, ServerShedsBeyondQueueCapWithTypedResourceExhausted) {
  const std::string path = TempSock("shed");
  SocketTransportServer::Options options;
  options.worker_threads = 1;
  options.max_queued_jobs = 1;
  auto server = SocketTransportServer::Bind("unix:" + path, options);
  ASSERT_TRUE(server.ok());
  std::atomic<int> handled{0};
  ASSERT_TRUE((*server)
                  ->Serve([&](std::string_view) {
                    handled.fetch_add(1);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(100));
                    return std::string("pong");
                  })
                  .ok());
  auto transport = SocketTransport::Connect("unix:" + path);
  ASSERT_TRUE(transport.ok());
  const std::string request = wire::EncodePlainRequest(wire::Method::kName);
  std::vector<TransportFuture> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back((*transport)->AsyncCall(request));
  }
  size_t ok = 0, shed = 0;
  for (TransportFuture& future : futures) {
    auto result = future.get();
    if (result.ok()) {
      ++ok;
    } else if (result.status().IsResourceExhausted()) {
      ++shed;
    }
  }
  EXPECT_GT(ok, 0u);    // the server kept serving
  EXPECT_GT(shed, 0u);  // and shed the overflow, typed
  EXPECT_EQ(ok + shed, 16u);
  EXPECT_EQ((*server)->shed_jobs(), shed);
  // The admission cap IS the bound: the queue never grew past it.
  EXPECT_LE((*server)->peak_queued_jobs(), 1u);
  EXPECT_EQ(static_cast<size_t>(handled.load()), ok);
  (*server)->Shutdown();
  ::unlink(path.c_str());
}

TEST(AdmissionTest, ExpiredDeadlineJobsAreDroppedAtDequeueUnexecuted) {
  const std::string path = TempSock("expired");
  SocketTransportServer::Options options;
  options.worker_threads = 1;
  auto server = SocketTransportServer::Bind("unix:" + path, options);
  ASSERT_TRUE(server.ok());
  std::atomic<int> handled{0};
  ASSERT_TRUE((*server)
                  ->Serve([&](std::string_view) {
                    handled.fetch_add(1);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(300));
                    return std::string("pong");
                  })
                  .ok());
  auto transport = SocketTransport::Connect("unix:" + path);
  ASSERT_TRUE(transport.ok());
  // First request: no deadline, occupies the single worker for 300ms.
  auto slow =
      (*transport)->AsyncCall(wire::EncodePlainRequest(wire::Method::kName));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Second request: stamped with a 20ms budget, queued behind the slow one.
  // By dequeue time its deadline is long spent — it must be dropped with a
  // typed DeadlineExceeded, and the handler must NEVER see it.
  std::string stamped;
  {
    DeadlineBudget budget(20);
    DeadlineScope scope(&budget);
    stamped = wire::EncodeKeyRequest(wire::Method::kGet, "k");
  }
  auto doomed = (*transport)->AsyncCall(stamped);
  auto first = slow.get();
  ASSERT_TRUE(first.ok());
  auto second = doomed.get();
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsDeadlineExceeded());
  EXPECT_EQ((*server)->expired_jobs(), 1u);
  EXPECT_EQ(handled.load(), 1);  // the expired job never executed
  (*server)->Shutdown();
  ::unlink(path.c_str());
}

// --- retry budget + jittered redial ----------------------------------------

TEST(RetryBudgetTest, ReplayBudgetExhaustionFailsTypedResourceExhausted) {
  // A killer peer: accepts every connection and slams it shut without ever
  // answering. Redial always succeeds, the REPLAY always dies — the
  // pathological flap where unbounded replay would retry-storm forever.
  // (A client-side injector can't build this: replays deliberately carry
  // no injected faults.) With a budget of one replay the call must fail
  // typed ResourceExhausted, promptly.
  //
  // The killer holds its FIRST connection until the request bytes arrive,
  // so the call is pending before any session dies. Closing it at once
  // would race the client: an idle session cycling connect -> EOF can run
  // out its barren-session allowance before the call registers, and the
  // transport then (correctly) declares the flapping peer broken with
  // Unavailable before the replay budget is ever consulted.
  const std::string path = TempSock("budget");
  ::unlink(path.c_str());
  int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  ASSERT_EQ(
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 8), 0);
  std::thread killer([&] {
    bool first = true;
    while (true) {
      int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) break;  // listener closed: test over
      if (first) {
        char byte = 0;
        (void)::read(fd, &byte, 1);  // the call's first request byte (or EOF)
        first = false;
      }
      ::close(fd);
    }
  });

  SocketTransport::Options options;
  options.max_call_replays = 1;
  options.redial_jitter_seed = 42;
  options.redial_initial_backoff_ms = 1;
  options.redial_budget_ms = 5000;
  options.call_timeout_ms = 10000;
  auto transport = SocketTransport::Connect("unix:" + path, options);
  ASSERT_TRUE(transport.ok());
  auto result =
      (*transport)->Call(wire::EncodePlainRequest(wire::Method::kName));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();

  (*transport).reset();  // stop redialing before the listener goes away
  ::shutdown(listener, SHUT_RDWR);  // wakes the blocked accept
  ::close(listener);
  killer.join();
  ::unlink(path.c_str());
}

TEST(RetryBudgetTest, SeededJitterRedialFailsTypedWithinBudget) {
  const std::string path = TempSock("jitter");
  auto server = SocketTransportServer::Bind("unix:" + path);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(
      (*server)
          ->Serve([](std::string_view) { return std::string("pong"); })
          .ok());
  SocketTransport::Options options;
  options.redial_jitter_seed = 7;  // pinned: deterministic backoff draws
  options.redial_budget_ms = 200;
  options.redial_initial_backoff_ms = 16;
  options.call_timeout_ms = 10000;
  auto transport = SocketTransport::Connect("unix:" + path, options);
  ASSERT_TRUE(transport.ok());
  (*server)->Shutdown();  // the peer dies; redial can never succeed
  ::unlink(path.c_str());
  const auto start = std::chrono::steady_clock::now();
  auto result =
      (*transport)->Call(wire::EncodePlainRequest(wire::Method::kName));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  ASSERT_FALSE(result.ok());
  // Full jitter keeps each sleep under min(500ms, initial << N) and the
  // whole episode inside redial_budget_ms — typed failure, promptly.
  EXPECT_LT(elapsed, 3000);
}

}  // namespace
}  // namespace mlcask::storage
