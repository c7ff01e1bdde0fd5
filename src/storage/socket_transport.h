#ifndef MLCASK_STORAGE_SOCKET_TRANSPORT_H_
#define MLCASK_STORAGE_SOCKET_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "storage/endpoint.h"
#include "storage/fault_injector.h"
#include "storage/frame.h"
#include "storage/transport.h"
#include "storage/wire_codec.h"

namespace mlcask::storage {

/// Client connection lifecycle under the self-healing transport. One-way
/// within a session; kRecovered and kConnected are equivalent for callers
/// (kRecovered just records that at least one redial happened).
///
///   kConnected --(read error / EOF / corruption)--> kDegraded
///   kDegraded  --(redial attempts, bounded exponential backoff)--> kRedialing
///   kRedialing --(connect ok: replay pending calls)--> kRecovered
///   kRedialing --(budget exhausted)--> kFailed (terminal; pending calls
///                                      fail Unavailable, session broken)
enum class ConnState : uint8_t {
  kConnected = 0,
  kDegraded = 1,
  kRedialing = 2,
  kRecovered = 3,
  kFailed = 4,
};

/// The first real Transport: length-prefixed frames (storage/frame.h) over a
/// Unix-domain or TCP stream socket, multiplexed by per-request correlation
/// id. One connection carries any number of in-flight calls: AsyncCall
/// registers the id, writes the frame, and returns; a dedicated reader
/// thread demultiplexes response frames back to their waiters. That is what
/// turns the sharded engine's N-shard fan-outs into N OVERLAPPED round
/// trips — the serial-loop latency multiplier the blocking API had is gone.
///
/// Wire-speed details:
///   * sends are scatter-gather — the 14-byte header and the payload go out
///     as one sendmsg iovec, never coalesced into a copy;
///   * payloads at or above options.chunk_threshold are streamed as
///     content-defined CHUNK frames (shared correlation id, manifest-hashed
///     CHUNK_END), so the peer's receive buffer stays O(chunk), not
///     O(value), and the receiving shard can dedupe identical chunks;
///   * incoming chunk streams are reassembled and integrity-checked before
///     the waiter sees the value.
///
/// Failure surface (all as statuses, never hangs). A lost or garbled
/// connection first enters the redial state machine (ConnState above):
/// in-flight calls stay pending, a replacement connection is dialed with
/// bounded exponential backoff, and pending requests are replayed on it in
/// correlation-id order (the server's replay ledger deduplicates mutations
/// the first connection already applied). Only when the redial budget is
/// exhausted does the session fail:
///   connect refused / no such socket      Unavailable (from Connect)
///   peer gone + redial budget exhausted   Unavailable, fails EVERY pending
///   call outliving options.call_timeout   DeadlineExceeded (Call/CallMany)
///   wire-format version skew              Unimplemented (from the peer's
///                                         error frame, or local decode)
///   garbled stream / bad chunk manifest   redial; terminal only on budget
///                                         exhaustion (redial_budget_ms=0
///                                         restores fail-fast Corruption)
///
/// stats() is a consistent snapshot under one mutex, same contract as
/// LoopbackTransport; completed calls count {calls, request, response} as
/// one unit, transport failures count transport_errors.
class SocketTransport : public Transport {
 public:
  struct Options {
    /// Milliseconds a blocking Call/CallMany waits before giving up with
    /// DeadlineExceeded. 0 = wait forever. AsyncCall futures are not
    /// deadline-bound (the waiter chooses how long to wait) but always
    /// resolve on response or connection loss.
    uint64_t call_timeout_ms = 30000;
    /// Reject frames above this payload size as corrupt.
    uint32_t max_frame_payload = kMaxFramePayload;
    /// Payloads at or above this size are chunk-streamed. 0 disables
    /// streaming.
    size_t chunk_threshold = wire::kDefaultChunkThreshold;
    /// Total milliseconds the transport keeps redialing a lost connection
    /// before declaring the session broken. While redialing, in-flight
    /// calls stay pending and are REPLAYED on the fresh connection (the
    /// server's replay ledger makes replayed mutations apply once). 0
    /// restores the old fail-fast behavior: first connection loss fails
    /// every pending call.
    uint64_t redial_budget_ms = 2000;
    /// First redial backoff. The sleep before attempt N is drawn uniformly
    /// from [0, min(500ms, initial << N)] — FULL JITTER, so a fleet of
    /// clients orphaned by one server restart does not redial in lockstep
    /// and re-create the overload that killed the connection.
    uint64_t redial_initial_backoff_ms = 10;
    /// Seed for the jitter PRNG. 0 draws a random seed; tests pin it for
    /// reproducible backoff schedules.
    uint64_t redial_jitter_seed = 0;
    /// Per-call retry budget: how many times one pending call may be
    /// replayed across redials before it fails with a typed
    /// ResourceExhausted instead of riding yet another fresh connection.
    /// Bounds retry amplification under overload (a shedding server must
    /// not be hammered forever by the calls it shed). 0 = unbounded.
    uint32_t max_call_replays = 8;
    /// Optional deterministic fault policy applied to outgoing requests
    /// (drop / drop-after-send / garble / delay). Chaos harness only.
    std::shared_ptr<FaultInjector> injector;
  };

  /// Connects to `endpoint` (unix: or tcp:). Connection failures surface as
  /// Unavailable; a loopback endpoint is rejected as InvalidArgument (it
  /// has no wire — build a LoopbackTransport instead). The no-options
  /// overloads use the defaults above.
  static StatusOr<std::unique_ptr<SocketTransport>> Connect(
      const Endpoint& endpoint, Options options);
  static StatusOr<std::unique_ptr<SocketTransport>> Connect(
      const Endpoint& endpoint) {
    return Connect(endpoint, Options());
  }
  /// Spec-string convenience ("unix:/tmp/s.sock", "tcp:host:port").
  static StatusOr<std::unique_ptr<SocketTransport>> Connect(
      std::string_view spec, Options options);
  static StatusOr<std::unique_ptr<SocketTransport>> Connect(
      std::string_view spec) {
    return Connect(spec, Options());
  }

  ~SocketTransport() override;

  StatusOr<std::string> Call(std::string_view request) override;
  TransportFuture AsyncCall(std::string_view request) override;
  /// Overridden so the batch honors call_timeout_ms too: all requests are
  /// issued first, then collected against one shared deadline.
  std::vector<StatusOr<std::string>> CallMany(
      const std::vector<std::string>& requests) override;
  TransportStats stats() const override;
  std::string Name() const override;
  uint64_t call_timeout_ms() const override {
    return options_.call_timeout_ms;
  }
  uint8_t wire_version() const override { return kWireVersion; }

  /// Connection state machine position (telemetry/tests).
  ConnState conn_state() const {
    return conn_state_.load(std::memory_order_relaxed);
  }
  /// Successful redials over the transport's lifetime.
  uint64_t redials() const { return redials_.load(std::memory_order_relaxed); }

 private:
  SocketTransport(int fd, Endpoint endpoint, Options options);

  /// AsyncCall plus the assigned correlation id, so deadline-bound callers
  /// can deregister the pending entry on timeout.
  TransportFuture AsyncCallWithId(std::string_view request, uint64_t* id_out);
  /// Waits for `future` until `deadline` (forever when `timeout_ms` is 0).
  /// On timeout the pending entry for `id` is removed, so the one call is
  /// accounted exactly once: as a transport error, never ALSO as a
  /// completed round trip when its response straggles in later.
  StatusOr<std::string> CollectWithDeadline(
      TransportFuture* future, uint64_t id,
      std::chrono::steady_clock::time_point deadline, uint64_t timeout_ms);

  /// Sends one already-registered request (monolithic or chunk-streamed),
  /// applying `fault` on the way out. A degraded connection silently skips
  /// the send — the redial replay delivers it. Send failures degrade the
  /// connection (redial enabled) or fail the session (budget 0).
  Status SendRequest(uint64_t id, std::string_view request,
                     const SendFault& fault);
  /// Streams one large payload as CHUNK frames + CHUNK_END, all from one
  /// scatter-gather iovec batch under the write lock.
  Status SendChunked(uint64_t id, std::string_view payload,
                     const SendFault& fault);

  void ReaderLoop();
  /// Reads and demultiplexes one connection's worth of frames; returns the
  /// status that ended the session (EOF, read error, corruption). Sets
  /// `*delivered` when at least one frame resolved a pending call.
  Status PumpSession(bool* delivered);
  /// Dials a replacement connection (bounded exponential backoff within
  /// redial_budget_ms), installs it, and replays every pending request in
  /// correlation-id order.
  Status Redial();
  /// Fails every pending call with `status` and marks the session broken.
  void FailAllPending(const Status& status);

  struct Pending {
    std::promise<StatusOr<std::string>> promise;
    std::string request;  ///< Full request bytes, retained for replay.
    uint32_t replays = 0;  ///< Redial replays consumed (retry budget).
  };

  const Endpoint endpoint_;
  const Options options_;
  int fd_ = -1;          ///< Guarded by write_mu_ (the reader swaps it).
  bool connected_ = true;  ///< Guarded by write_mu_; false while degraded.
  std::atomic<ConnState> conn_state_{ConnState::kConnected};
  std::atomic<uint64_t> redials_{0};
  std::atomic<bool> stopping_{false};

  std::mutex write_mu_;  ///< Serializes frame writes (frames stay whole).

  std::mutex pending_mu_;
  std::unordered_map<uint64_t, Pending> pending_;
  Status broken_;  ///< Non-ok once the session is unusable.
  std::atomic<uint64_t> next_id_{1};

  mutable std::mutex stats_mu_;
  TransportStats stats_;

  std::mutex redial_mu_;
  std::condition_variable redial_cv_;  ///< Wakes backoff sleeps on destroy.
  std::mt19937_64 jitter_rng_;  ///< Reader thread only (Redial backoff).

  std::thread reader_;
};

/// Lifecycle of the event-loop server, in start order. Transitions are
/// one-way: kInitial -> kStarting -> kStarted -> kStopping -> kStopped
/// (Bind-then-destroy goes kInitial -> kStopped directly). Borrowed from
/// the explicit pipeline start/stop discipline so every thread knows which
/// resources exist at any point — no half-started servers.
enum class ServerState : uint8_t {
  kInitial = 0,   ///< Bound, not serving.
  kStarting = 1,  ///< Serve() is bringing up the loop + workers.
  kStarted = 2,   ///< Event loop running, accepting connections.
  kStopping = 3,  ///< Shutdown() in progress.
  kStopped = 4,   ///< Everything joined and closed. Terminal.
};

/// Server half: binds a unix:/tcp: endpoint and serves every connection
/// from ONE epoll event loop over nonblocking sockets — no thread per
/// connection, so thousands of idle clients cost one thread and their fds.
///
///   * The loop owns all sockets: it accepts, reads into each connection's
///     incremental FrameDecoder, and flushes responses with scatter-gather
///     sendmsg from a per-connection iovec queue (header + payload parts,
///     never coalesced; EPOLLOUT is armed only while a flush would block).
///   * Handlers run on a small worker pool so the loop never blocks on
///     application work. Requests on ONE connection are handled in arrival
///     order (a per-connection job strand — the per-shard ordering the 2PC
///     apply phase relies on); separate connections proceed concurrently.
///   * Incoming chunk streams are reassembled per connection and deduped
///     through a server-wide WireChunkCache: identical chunks across
///     values, versions, and clients hash/store once (wire_chunk_stats()).
///   * Responses at or above chunk_threshold stream back as CHUNK frames.
///
/// Version skew and garbled streams are answered per the frame contract:
/// a well-framed request in any other wire version gets an Unimplemented
/// ERROR frame back (correlated via the frozen header layout); an
/// unparseable stream closes the connection, which fails the peer's pending
/// calls as Unavailable instead of hanging them.
class SocketTransportServer : public TransportServer {
 public:
  struct Options {
    uint32_t max_frame_payload = kMaxFramePayload;
    /// Responses at or above this size stream as chunk frames. 0 disables
    /// streaming.
    size_t chunk_threshold = wire::kDefaultChunkThreshold;
    /// Handler worker pool size.
    size_t worker_threads = 4;
    /// Receive-side chunk cache capacity (bytes of retained chunk data).
    size_t chunk_cache_bytes = 64u << 20;
    /// Optional deterministic fault policy applied to inbound jobs (delay,
    /// slow-drip, kill -9 on the Nth request). Chaos harness only.
    std::shared_ptr<FaultInjector> injector;

    /// Admission control: hard caps on the queued-but-unserved work the
    /// server will hold. A DATA frame arriving past any cap is SHED — it is
    /// answered immediately with a typed ResourceExhausted ERROR frame and
    /// never enters the worker queue, so queue depth and RSS stay bounded no
    /// matter how far offered load exceeds capacity. Chunk-stream frames are
    /// never shed mid-stream (dropping one would corrupt reassembly); their
    /// cost is bounded by max_frame_payload + chunk_cache_bytes. 0 = that
    /// cap unbounded.
    size_t max_queued_jobs = 4096;          ///< Server-wide job count cap.
    size_t max_queued_bytes = 256u << 20;   ///< Server-wide job bytes cap.
    size_t max_conn_queued_jobs = 1024;     ///< Per-connection job count cap.
    size_t max_conn_queued_bytes = 64u << 20;  ///< Per-connection bytes cap.
  };

  /// Binds and listens. unix: paths are unlinked first (stale socket files
  /// from a crashed predecessor must not wedge restarts); tcp: port 0 binds
  /// an ephemeral port, visible via endpoint().
  static StatusOr<std::unique_ptr<SocketTransportServer>> Bind(
      const Endpoint& endpoint, Options options);
  static StatusOr<std::unique_ptr<SocketTransportServer>> Bind(
      const Endpoint& endpoint) {
    return Bind(endpoint, Options());
  }
  static StatusOr<std::unique_ptr<SocketTransportServer>> Bind(
      std::string_view spec, Options options);
  static StatusOr<std::unique_ptr<SocketTransportServer>> Bind(
      std::string_view spec) {
    return Bind(spec, Options());
  }

  ~SocketTransportServer() override;

  Status Serve(TransportHandler handler) override;
  void Shutdown() override;
  std::string endpoint() const override { return endpoint_.ToString(); }

  ServerState state() const { return state_.load(std::memory_order_acquire); }

  /// Connections accepted over the server's lifetime (telemetry/tests).
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

  /// Receive-side chunk dedup accounting (telemetry/tests/bench).
  ChunkStoreStats wire_chunk_stats() const { return chunk_cache_.stats(); }

  /// Admission/overload accounting (telemetry/tests/bench).
  uint64_t shed_jobs() const {
    return shed_jobs_.load(std::memory_order_relaxed);
  }
  /// Jobs whose deadline was already spent when a worker dequeued them:
  /// dropped with a typed DeadlineExceeded, handler never invoked.
  uint64_t expired_jobs() const {
    return expired_jobs_.load(std::memory_order_relaxed);
  }
  uint64_t queued_jobs() const {
    return queued_jobs_.load(std::memory_order_relaxed);
  }
  uint64_t peak_queued_jobs() const {
    return peak_queued_jobs_.load(std::memory_order_relaxed);
  }
  uint64_t peak_queued_bytes() const {
    return peak_queued_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// One queued piece of outgoing data: a frame header plus an optional
  /// slice of a shared payload. The payload body is shared_ptr-owned so N
  /// chunk parts of one response reference one buffer — zero coalescing.
  struct OutPart {
    std::string header;
    size_t header_off = 0;
    std::shared_ptr<const std::string> body;
    size_t body_off = 0;
    size_t body_len = 0;
  };

  /// One decoded request awaiting a worker.
  struct Job {
    FrameType type = FrameType::kData;
    uint64_t id = 0;
    std::string payload;
    /// When the loop queued the job — workers check the request's deadline
    /// stamp against time-in-queue and drop expired jobs unexecuted.
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Per-connection state. The event loop owns fd/decoder/outbox flushing;
  /// exactly one worker at a time drains `jobs` (the strand), preserving
  /// arrival order. `mu` guards the cross-thread fields.
  struct Connection {
    std::mutex mu;
    int fd = -1;
    bool closed = false;
    uint32_t epoll_events = 0;  ///< Currently armed event mask.
    FrameDecoder decoder;
    wire::StreamAssembler assembler;
    std::deque<Job> jobs;
    size_t queued_bytes = 0;  ///< Payload bytes across `jobs` (admission).
    bool job_active = false;  ///< A worker currently owns the strand.
    std::deque<OutPart> outbox;

    Connection(uint32_t max_payload, wire::WireChunkCache* cache)
        : decoder(max_payload), assembler(max_payload, cache) {}
  };

  SocketTransportServer(int listen_fd, Endpoint endpoint, Options options);

  void LoopThread();
  void WorkerThread();
  /// Closes the listen socket and unlinks a unix: path.
  void CloseListener();

  void AcceptReady();
  void ReadReady(const std::shared_ptr<Connection>& connection);
  /// Flushes the outbox with scatter-gather sendmsg until empty or EAGAIN;
  /// arms/disarms EPOLLOUT accordingly. Event-loop thread only. Returns
  /// false when the peer is gone and the caller must CloseConnection.
  bool FlushConnection(const std::shared_ptr<Connection>& connection);
  /// Event-loop thread only: deregisters, closes, forgets.
  void CloseConnection(const std::shared_ptr<Connection>& connection);

  /// Worker side: runs the handler for one job and enqueues the response
  /// (monolithic or chunk-streamed), then pokes the loop to flush.
  void ProcessJob(const std::shared_ptr<Connection>& connection, Job job);
  void EnqueueResponse(const std::shared_ptr<Connection>& connection,
                       uint64_t id, std::string response);
  /// Worker side: enqueues a correlated ERROR frame (typed status payload)
  /// and pokes the loop — the shed/expired answer path, handler never run.
  void EnqueueError(const std::shared_ptr<Connection>& connection, uint64_t id,
                    const Status& status);
  /// Thread safe: queues `connection` for a loop-thread flush and wakes it.
  void NotifyWritable(std::shared_ptr<Connection> connection);
  /// Thread safe: half-closes the socket so the loop retires it (workers
  /// never close fds — the loop owns them).
  static void AbortConnection(const std::shared_ptr<Connection>& connection);

  Endpoint endpoint_;
  Options options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  TransportHandler handler_;
  wire::WireChunkCache chunk_cache_;

  std::atomic<ServerState> state_{ServerState::kInitial};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> connections_accepted_{0};

  // Admission accounting. queued_jobs_/queued_bytes_ track work accepted but
  // not yet handed to the handler; peaks are high-water marks over the
  // server's lifetime (the bounded-queue acceptance criterion reads them).
  std::atomic<uint64_t> queued_jobs_{0};
  std::atomic<uint64_t> queued_bytes_{0};
  std::atomic<uint64_t> shed_jobs_{0};
  std::atomic<uint64_t> expired_jobs_{0};
  std::atomic<uint64_t> peak_queued_jobs_{0};
  std::atomic<uint64_t> peak_queued_bytes_{0};

  /// Loop-thread-only registry keeping connections alive while registered.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  std::mutex notify_mu_;
  std::vector<std::shared_ptr<Connection>> notify_;  ///< Pending flushes.

  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Connection>> work_queue_;
  bool workers_stop_ = false;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_SOCKET_TRANSPORT_H_
