// Outside-in tracing for the benchmark binary.
//
// Spans are recorded only by the benchmark's own files: decorators around
// the public boundaries of storage (StorageEngine, Transport, the server's
// TransportHandler), a wrapped pipeline::LibraryRegistry for ml and data,
// and RAII spans around the Executor, PipelineRepo, MergeOperation and
// MergeServiceClient calls the lanes make themselves. Nothing inside src/ is
// instrumented. Untraced runs compose the system without any decorator.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pipeline/library_registry.h"
#include "storage/storage_engine.h"
#include "storage/transport.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kOp,              ///< One timed op of a lane (the root of its spans).
  kLibGenerate,     ///< data: a dataset generator LibraryFn.
  kLibPreprocess,   ///< ml: a preprocessing LibraryFn.
  kLibTrain,        ///< ml: a model LibraryFn (it reports a score).
  kStoragePut,      ///< Client-facing engine: Put / PutMany.
  kStorageGet,      ///< Client-facing engine: Get / GetVersion.
  kStorageMeta,     ///< Client-facing engine: every other call.
  kStorageBackend,  ///< Server-side backend engine, any call but a put.
  kBackendPut,      ///< Server-side backend engine: Put / PutMany.
  kRpcStorage,      ///< Client transport: a storage request.
  kRpcSubmit,       ///< Client transport: merge-service submit.
  kRpcPoll,         ///< Client transport: merge-service poll.
  kRpcFetch,        ///< Client transport: merge-service fetch/cancel.
  kServerStorage,   ///< Server handler: a storage request.
  kServerService,   ///< Server handler: a merge-service request.
  kPipelineRun,     ///< Executor::Run.
  kPipelineLibrary, ///< LibraryRepo::Put (registering a component version).
  kVersionCommit,   ///< PipelineRepo::Init / CommitOn.
  kVersionOther,    ///< PipelineRepo::ImportState / Branch / ExportState.
  kMerge,           ///< MergeOperation::Merge.
  kServiceAwait,    ///< MergeServiceClient::AwaitWinner.
  kCount,
};

const char* SpanKindName(SpanKind kind);

/// Kind-specific counters a span carries (see Span::Set at each call site):
/// storage spans hold logical bytes, new physical bytes and object count;
/// RPC and server spans request and response bytes; pipeline runs reused
/// and total components; merges candidates, executions, pruned nodes and
/// checkpoints.
struct SpanCounters {
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  uint64_t d = 0;
};

/// One closed (or still open) span.
struct SpanRecord {
  SpanKind kind = SpanKind::kOp;
  int64_t parent = -1;  ///< Index of the enclosing span on the same thread.
  uint64_t op = 0;      ///< Op in flight when the span began (0 = none).
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanCounters n;
};

/// Process-wide span store. Spans stay in memory until the run ends.
class Tracer {
 public:
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// The op whose spans are being recorded; server-side spans, which run on
  /// other threads, are attributed to it. With one client in a closed loop
  /// exactly one op is in flight.
  static void SetOp(uint64_t op) { op_.store(op, std::memory_order_relaxed); }

  /// Opens a span nested under the calling thread's innermost open span.
  static int64_t Begin(SpanKind kind);
  /// Opens a span whose end is recorded by another thread (async RPCs).
  /// Its parent is the calling thread's innermost open span.
  static int64_t BeginDetached(SpanKind kind);
  static void End(int64_t index, const SpanCounters& n = {});
  static void EndDetached(int64_t index, const SpanCounters& n = {});
  static void Relabel(int64_t index, SpanKind kind);

  static std::vector<SpanRecord> Snapshot();
  static void Clear();

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<uint64_t> op_;
};

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(SpanKind kind)
      : index_(Tracer::enabled() ? Tracer::Begin(kind) : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::End(index_, n_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Set(uint64_t a, uint64_t b = 0, uint64_t c = 0, uint64_t d = 0) {
    n_ = {a, b, c, d};
  }

 private:
  int64_t index_;
  SpanCounters n_;
};

/// StorageEngine decorator. `backend` selects the server-side span kind;
/// otherwise calls are split into put/get/meta spans. Async calls are
/// forwarded untraced so a wrapped router keeps its overlapped fan-outs.
class TracingEngine : public mlcask::storage::StorageEngine {
 public:
  TracingEngine(std::unique_ptr<mlcask::storage::StorageEngine> inner,
                bool backend);

  mlcask::StatusOr<mlcask::storage::PutResult> Put(
      const std::string& key, std::string_view data) override;
  mlcask::StatusOr<std::vector<mlcask::storage::PutResult>> PutMany(
      const std::vector<mlcask::storage::PutRequest>& batch) override;
  mlcask::StatusOr<std::string> Get(const std::string& key) override;
  mlcask::StatusOr<std::string> GetVersion(
      const mlcask::Hash256& id) override;
  bool HasVersion(const mlcask::Hash256& id) const override;
  std::vector<mlcask::Hash256> Versions(const std::string& key) const override;
  std::vector<std::pair<std::string, mlcask::Hash256>> ListAllVersions()
      const override;
  mlcask::StatusOr<uint64_t> DeleteVersion(const mlcask::Hash256& id) override;
  mlcask::StatusOr<mlcask::storage::MigrateBatchResult> MigrateBatch(
      const std::vector<mlcask::storage::MigrateKeyVersions>& batch) override;
  mlcask::storage::EngineStats stats() const override {
    return inner_->stats();
  }
  std::string Name() const override { return inner_->Name(); }
  double ReadCost(uint64_t bytes) const override {
    return inner_->ReadCost(bytes);
  }

  mlcask::storage::Deferred<mlcask::storage::PutResult> AsyncPut(
      const std::string& key, std::string_view data) override {
    return inner_->AsyncPut(key, data);
  }
  mlcask::storage::Deferred<std::vector<mlcask::storage::PutResult>>
  AsyncPutMany(const std::vector<mlcask::storage::PutRequest>& batch) override {
    return inner_->AsyncPutMany(batch);
  }
  mlcask::storage::Deferred<std::string> AsyncGetVersion(
      const mlcask::Hash256& id) override {
    return inner_->AsyncGetVersion(id);
  }
  mlcask::storage::Deferred<bool> AsyncHasVersion(
      const mlcask::Hash256& id) const override {
    return inner_->AsyncHasVersion(id);
  }
  mlcask::storage::Deferred<uint64_t> AsyncDeleteVersion(
      const mlcask::Hash256& id) override {
    return inner_->AsyncDeleteVersion(id);
  }
  mlcask::storage::Deferred<mlcask::storage::MigrateBatchResult>
  AsyncMigrateBatch(
      const std::vector<mlcask::storage::MigrateKeyVersions>& batch) override {
    return inner_->AsyncMigrateBatch(batch);
  }

 private:
  SpanKind Kind(SpanKind client_kind) const {
    if (!backend_) return client_kind;
    return client_kind == SpanKind::kStoragePut ? SpanKind::kBackendPut
                                                : SpanKind::kStorageBackend;
  }

  std::unique_ptr<mlcask::storage::StorageEngine> inner_;
  bool backend_;
};

/// Client Transport decorator. Blocking calls are timed inline. Async calls
/// are forwarded at once (so fan-outs still overlap), and each gets its own
/// waiter thread that closes the call's span when that call's reply
/// arrives, then hands the reply to the caller's future. A call's span
/// therefore never waits on another call's reply.
class TracingTransport : public mlcask::storage::Transport {
 public:
  explicit TracingTransport(std::unique_ptr<mlcask::storage::Transport> inner)
      : inner_(std::move(inner)) {}
  /// Waits for every waiter thread to finish.
  ~TracingTransport() override;
  TracingTransport(const TracingTransport&) = delete;
  TracingTransport& operator=(const TracingTransport&) = delete;

  mlcask::StatusOr<std::string> Call(std::string_view request) override;
  mlcask::storage::TransportFuture AsyncCall(std::string_view request) override;
  mlcask::storage::TransportStats stats() const override {
    return inner_->stats();
  }
  std::string Name() const override { return inner_->Name(); }
  uint64_t call_timeout_ms() const override {
    return inner_->call_timeout_ms();
  }
  uint8_t wire_version() const override { return inner_->wire_version(); }
  void set_wire_version(uint8_t version) override {
    inner_->set_wire_version(version);
  }

 private:
  std::unique_ptr<mlcask::storage::Transport> inner_;
  std::mutex mu_;
  std::condition_variable idle_;
  size_t waiters_ = 0;  ///< Waiter threads still running.
};

/// Wraps a server-side request handler in storage/service server spans.
mlcask::storage::TransportHandler TraceHandler(
    mlcask::storage::TransportHandler handler);

/// A registry whose every entry calls through to `base`'s LibraryFn inside
/// a span. Sources (no input table) count as data generation, functions
/// that report a score as model training, everything else as
/// preprocessing. `base` must outlive the returned registry.
std::unique_ptr<mlcask::pipeline::LibraryRegistry> WrapRegistry(
    const mlcask::pipeline::LibraryRegistry& base);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
