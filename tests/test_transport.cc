// LoopbackTransport stats consistency: calls and byte counters are updated
// together under one mutex, so a reader polling stats() while other threads
// are mid-Call (e.g. telemetry read while shard services apply a batched
// PutMany) always sees a snapshot where the byte totals correspond to a
// whole number of completed round trips — never a call counted without its
// bytes or vice versa.

#include "storage/transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace mlcask::storage {
namespace {

TEST(LoopbackTransportTest, CountsCallsAndBytes) {
  LoopbackTransport transport(
      [](std::string_view request) { return std::string(request) + "!!"; });
  auto response = transport.Call("ping");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(*response, "ping!!");
  TransportStats s = transport.stats();
  EXPECT_EQ(s.calls, 1u);
  EXPECT_EQ(s.request_bytes, 4u);
  EXPECT_EQ(s.response_bytes, 6u);
}

TEST(LoopbackTransportTest, AsyncCallResolvesInlineAndDeterministically) {
  // The base-class AsyncCall degrades to a synchronous Call resolved
  // inline: by the time the future is returned the handler has run. That
  // keeps loopback deployments bit-deterministic (the sharded equivalence
  // matrix depends on it) while sharing the fan-out code path with real
  // async transports.
  int handled = 0;
  LoopbackTransport transport([&handled](std::string_view request) {
    handled += 1;
    return std::string(request) + "!";
  });
  TransportFuture future = transport.AsyncCall("a");
  EXPECT_EQ(handled, 1);  // already executed at issue time
  auto result = future.get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, "a!");
}

TEST(LoopbackTransportTest, StatsSnapshotIsConsistentUnderConcurrency) {
  // Fixed-size request/response make consistency checkable: in any honest
  // snapshot, request_bytes == calls * |req| and response_bytes ==
  // calls * |resp|. With independently-updated counters a reader could
  // catch a writer between increments and see a torn triple.
  const std::string request(64, 'q');
  const std::string response(48, 'r');
  LoopbackTransport transport(
      [&response](std::string_view) { return response; });

  constexpr int kWriters = 4;
  constexpr int kCallsPerWriter = 2000;
  constexpr int kReaders = 2;
  std::atomic<bool> done{false};
  std::atomic<int> readers_ready{0};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> snapshots{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      bool first = true;
      while (!done.load(std::memory_order_acquire)) {
        TransportStats s = transport.stats();
        snapshots.fetch_add(1, std::memory_order_relaxed);
        if (s.request_bytes != s.calls * request.size() ||
            s.response_bytes != s.calls * response.size()) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
        if (first) {
          readers_ready.fetch_add(1, std::memory_order_release);
          first = false;
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      // Write only once every reader has taken its first snapshot, so the
      // readers are running for the whole write phase.
      while (readers_ready.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kCallsPerWriter; ++i) {
        ASSERT_TRUE(transport.Call(request).ok());
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(snapshots.load(), 0u);
  TransportStats final_stats = transport.stats();
  EXPECT_EQ(final_stats.calls,
            static_cast<uint64_t>(kWriters) * kCallsPerWriter);
  EXPECT_EQ(final_stats.request_bytes, final_stats.calls * request.size());
  EXPECT_EQ(final_stats.response_bytes, final_stats.calls * response.size());
}

}  // namespace
}  // namespace mlcask::storage
