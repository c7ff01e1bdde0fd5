#ifndef MLCASK_STORAGE_TRANSPORT_H_
#define MLCASK_STORAGE_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/deadline.h"
#include "storage/deferred.h"

namespace mlcask::storage {

/// Cumulative message accounting of one transport endpoint.
struct TransportStats {
  uint64_t calls = 0;           ///< Round trips completed successfully.
  uint64_t request_bytes = 0;   ///< Serialized request payload, total.
  uint64_t response_bytes = 0;  ///< Serialized response payload, total.
  uint64_t transport_errors = 0;  ///< Round trips failed below the app layer.
  uint64_t chunk_frames_sent = 0;      ///< Streamed-transfer frames out.
  uint64_t chunk_frames_received = 0;  ///< Streamed-transfer frames in.
  /// High-water mark of the frame receive buffer. With chunk streaming this
  /// stays O(chunk size) even for multi-MiB values — the acceptance bound
  /// the transport tests assert. 0 for transports without a wire.
  uint64_t peak_decoder_buffer_bytes = 0;
  /// Requests that carried a deadline stamp (remaining-budget ms).
  uint64_t deadline_stamped_calls = 0;
  /// The stamps themselves, in issue order (bounded log — first
  /// kMaxHopBudgetSamples calls). This is the accounting ledger the
  /// deadline-shrink tests read: a coordinator fanning three sequential 2PC
  /// phases through one transport must leave a strictly decreasing sequence
  /// here regardless of how fast the wall clock ran.
  std::vector<uint64_t> hop_budgets_ms;

  static constexpr size_t kMaxHopBudgetSamples = 256;
};

// TransportFuture (the completion handle AsyncCall returns) lives in
// storage/deferred.h together with the typed Deferred<T> wrapper.

/// Serialized-request handler: the server side of the RPC surface. Sees
/// nothing but bytes; returns the serialized response.
using TransportHandler = std::function<std::string(std::string_view)>;

/// A multiplexed request/response message channel — the CLIENT session half
/// of the transport API. The distributed storage stack
/// (RemoteStorageEngine <-> StorageEngineService) moves ONLY serialized byte
/// strings through this interface, so swapping the loopback implementation
/// for a socket one changes no storage code: the wire format is already
/// exercised on every call.
///
/// The surface is deliberately small:
///   Call       blocking round trip (the PR-3 compatibility surface)
///   AsyncCall  fire the request now, wait later — N AsyncCalls issued
///              before the first wait overlap their wire latency, which is
///              what the sharded engine's fan-outs (2PC phases, broadcast
///              probes, replicated puts) are built on
///   CallOwned / AsyncCallOwned
///              the same, taking the encoded request by value: a transport
///              that must keep the request (a socket session replays it
///              after a redial) keeps that buffer instead of a copy
///
/// Thread safety: all methods may be invoked concurrently from many workers
/// (storage engines are themselves concurrent); implementations must
/// tolerate that.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one serialized request and blocks for the serialized response.
  /// Transport-level failures (peer gone, channel closed, deadline) surface
  /// as error statuses; application-level errors travel INSIDE the response
  /// payload.
  virtual StatusOr<std::string> Call(std::string_view request) = 0;

  /// Sends one serialized request WITHOUT waiting. The returned future
  /// resolves when the matching response arrives (correlation is the
  /// transport's job — socket framing carries per-request ids). The default
  /// implementation degrades to a synchronous Call resolved inline, which
  /// is exactly right for zero-latency in-process transports and keeps
  /// their execution deterministic.
  virtual TransportFuture AsyncCall(std::string_view request) {
    std::promise<StatusOr<std::string>> promise;
    promise.set_value(Call(request));
    return promise.get_future();
  }

  /// Call / AsyncCall with the request moved in. The defaults forward to
  /// the view forms, which is right for a transport that keeps nothing.
  virtual StatusOr<std::string> CallOwned(std::string request) {
    return Call(request);
  }
  virtual TransportFuture AsyncCallOwned(std::string request) {
    return AsyncCall(request);
  }

  virtual TransportStats stats() const = 0;
  virtual std::string Name() const = 0;

  /// The deadline this transport suggests for waiting on one AsyncCall
  /// future (milliseconds; 0 = none). Typed waiters (Deferred) bound their
  /// Get() with it so a connected-but-wedged peer cannot hang a fan-out.
  /// Zero-latency in-process transports have nothing to bound.
  virtual uint64_t call_timeout_ms() const { return 0; }

  /// Wire-format version stamped on outgoing frames, for transports with a
  /// framed wire (0 = not frame-based, e.g. loopback).
  virtual uint8_t wire_version() const { return 0; }
  /// No transport in src/ implements this: every frame-based session speaks
  /// the one wire version. It stays only because the benchmark's
  /// TracingTransport decorator overrides it, and goes with the next change
  /// to the benchmark.
  virtual void set_wire_version(uint8_t /*version*/) {}
};

/// The SERVER half of the transport API: binds an endpoint, pumps incoming
/// requests through a TransportHandler, ships the responses back. Hosts that
/// outlive a single call (the mlcask_server binary, in-test socket servers)
/// program against this instead of transport-specific types.
class TransportServer {
 public:
  virtual ~TransportServer() = default;

  /// Starts serving `handler` in the background and returns immediately.
  /// The handler may be invoked concurrently (one caller per connection).
  virtual Status Serve(TransportHandler handler) = 0;

  /// Stops accepting, drains connections, joins worker threads. Idempotent;
  /// also invoked by the destructor.
  virtual void Shutdown() = 0;

  /// The bound endpoint spec ("unix:/tmp/s.sock", "tcp:127.0.0.1:43117" —
  /// with the real port when an ephemeral one was requested).
  virtual std::string endpoint() const = 0;
};

/// In-process transport: delivers each request to a handler function and
/// returns its response, counting both directions' bytes. The handler side
/// still sees nothing but the serialized request — the loopback is a real
/// serialization boundary, just with a zero-latency wire. AsyncCall resolves
/// inline (base default): loopback deployments stay bit-deterministic, which
/// the sharded equivalence tests rely on.
///
/// stats() returns a CONSISTENT snapshot: all counters are updated together
/// under one mutex after each round trip, so a reader racing in-flight calls
/// (e.g. polling telemetry while shard services apply a batched PutMany)
/// never observes a call counted without its bytes, or request bytes from a
/// newer call than the response bytes (tests/test_transport.cc hammers this
/// invariant). Independent atomics would tear: each counter individually
/// consistent, the triple not.
class LoopbackTransport : public Transport {
 public:
  using Handler = TransportHandler;

  explicit LoopbackTransport(Handler handler) : handler_(std::move(handler)) {}

  StatusOr<std::string> Call(std::string_view request) override {
    if (handler_ == nullptr) {
      return Status::FailedPrecondition("loopback transport has no handler");
    }
    // The handler runs outside the stats lock: counting must not serialize
    // the engine work behind concurrent calls.
    const uint64_t deadline_ms = PeekRequestDeadlineMs(request);
    std::string response = handler_(request);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.calls += 1;
      stats_.request_bytes += request.size();
      stats_.response_bytes += response.size();
      if (deadline_ms > 0) {
        stats_.deadline_stamped_calls += 1;
        if (stats_.hop_budgets_ms.size() <
            TransportStats::kMaxHopBudgetSamples) {
          stats_.hop_budgets_ms.push_back(deadline_ms);
        }
      }
    }
    return response;
  }

  TransportStats stats() const override {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }

  std::string Name() const override { return "loopback"; }

 private:
  Handler handler_;
  mutable std::mutex stats_mu_;
  TransportStats stats_;
};

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_TRANSPORT_H_
