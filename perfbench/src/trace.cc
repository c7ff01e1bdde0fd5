#include "trace.h"

#include <chrono>
#include <deque>
#include <future>
#include <thread>

#include "service/service_codec.h"

namespace perfbench {

namespace {

using mlcask::StatusOr;
using mlcask::storage::PutResult;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Spans of every thread go to one deque; indexing it races with a
// concurrent push_back, so every access holds `g_mu`.
std::mutex g_mu;
std::deque<SpanRecord> g_spans;
thread_local std::vector<int64_t> t_stack;

int64_t Open(SpanKind kind, uint64_t op, bool push) {
  const int64_t parent = t_stack.empty() ? -1 : t_stack.back();
  int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    index = static_cast<int64_t>(g_spans.size());
    SpanRecord& rec = g_spans.emplace_back();
    rec.kind = kind;
    rec.parent = parent;
    rec.op = op;
    rec.start_ns = NowNs();
  }
  if (push) t_stack.push_back(index);
  return index;
}

void Close(int64_t index, const SpanCounters& n) {
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(g_mu);
  SpanRecord& rec = g_spans[static_cast<size_t>(index)];
  rec.end_ns = end;
  rec.n = n;
}

SpanKind RpcKind(std::string_view request) {
  namespace svc = mlcask::service;
  if (!svc::IsServiceRequest(request)) return SpanKind::kRpcStorage;
  auto op = svc::PeekServiceOp(request);
  if (!op.ok()) return SpanKind::kRpcFetch;
  switch (*op) {
    case svc::ServiceOp::kSubmitMerge:
      return SpanKind::kRpcSubmit;
    case svc::ServiceOp::kPollMerge:
      return SpanKind::kRpcPoll;
    default:
      return SpanKind::kRpcFetch;
  }
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};
std::atomic<uint64_t> Tracer::op_{0};

const char* SpanKindName(SpanKind kind) {
  static const char* const kNames[] = {
      "op",           "lib.generate",     "lib.preprocess",
      "lib.train",    "storage.put",      "storage.get",
      "storage.meta", "storage.backend",  "storage.backend_put",
      "rpc.storage",  "rpc.submit",       "rpc.poll",
      "rpc.fetch",    "server.storage",   "server.service",
      "pipeline.run", "pipeline.library", "version.commit",
      "version.other", "merge.merge",     "service.await",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(SpanKind::kCount));
  return kNames[static_cast<size_t>(kind)];
}

int64_t Tracer::Begin(SpanKind kind) {
  return Open(kind, op_.load(std::memory_order_relaxed), /*push=*/true);
}

int64_t Tracer::BeginDetached(SpanKind kind) {
  return Open(kind, op_.load(std::memory_order_relaxed), /*push=*/false);
}

void Tracer::End(int64_t index, const SpanCounters& n) {
  Close(index, n);
  if (!t_stack.empty() && t_stack.back() == index) t_stack.pop_back();
}

void Tracer::EndDetached(int64_t index, const SpanCounters& n) {
  Close(index, n);
}

void Tracer::Relabel(int64_t index, SpanKind kind) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans[static_cast<size_t>(index)].kind = kind;
}

std::vector<SpanRecord> Tracer::Snapshot() {
  std::lock_guard<std::mutex> lock(g_mu);
  return std::vector<SpanRecord>(g_spans.begin(), g_spans.end());
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.clear();
}

// --------------------------------------------------------------- engine ---

TracingEngine::TracingEngine(
    std::unique_ptr<mlcask::storage::StorageEngine> inner, bool backend)
    : inner_(std::move(inner)), backend_(backend) {}

StatusOr<PutResult> TracingEngine::Put(const std::string& key,
                                       std::string_view data) {
  Span span(Kind(SpanKind::kStoragePut));
  auto result = inner_->Put(key, data);
  if (result.ok()) span.Set(result->logical_bytes, result->new_physical_bytes, 1);
  return result;
}

StatusOr<std::vector<PutResult>> TracingEngine::PutMany(
    const std::vector<mlcask::storage::PutRequest>& batch) {
  Span span(Kind(SpanKind::kStoragePut));
  auto results = inner_->PutMany(batch);
  if (results.ok()) {
    uint64_t logical = 0;
    uint64_t fresh = 0;
    for (const PutResult& r : *results) {
      logical += r.logical_bytes;
      fresh += r.new_physical_bytes;
    }
    span.Set(logical, fresh, results->size());
  }
  return results;
}

StatusOr<std::string> TracingEngine::Get(const std::string& key) {
  Span span(Kind(SpanKind::kStorageGet));
  auto result = inner_->Get(key);
  if (result.ok()) span.Set(result->size(), 0, 1);
  return result;
}

StatusOr<std::string> TracingEngine::GetVersion(const mlcask::Hash256& id) {
  Span span(Kind(SpanKind::kStorageGet));
  auto result = inner_->GetVersion(id);
  if (result.ok()) span.Set(result->size(), 0, 1);
  return result;
}

bool TracingEngine::HasVersion(const mlcask::Hash256& id) const {
  Span span(Kind(SpanKind::kStorageMeta));
  return inner_->HasVersion(id);
}

std::vector<mlcask::Hash256> TracingEngine::Versions(
    const std::string& key) const {
  Span span(Kind(SpanKind::kStorageMeta));
  return inner_->Versions(key);
}

std::vector<std::pair<std::string, mlcask::Hash256>>
TracingEngine::ListAllVersions() const {
  Span span(Kind(SpanKind::kStorageMeta));
  return inner_->ListAllVersions();
}

StatusOr<uint64_t> TracingEngine::DeleteVersion(const mlcask::Hash256& id) {
  Span span(Kind(SpanKind::kStorageMeta));
  return inner_->DeleteVersion(id);
}

StatusOr<mlcask::storage::MigrateBatchResult> TracingEngine::MigrateBatch(
    const std::vector<mlcask::storage::MigrateKeyVersions>& batch) {
  Span span(Kind(SpanKind::kStorageMeta));
  return inner_->MigrateBatch(batch);
}

// ------------------------------------------------------------ transport ---

TracingTransport::~TracingTransport() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return waiters_ == 0; });
}

StatusOr<std::string> TracingTransport::Call(std::string_view request) {
  Span span(RpcKind(request));
  auto response = inner_->Call(request);
  span.Set(request.size(), response.ok() ? response->size() : 0, 1);
  return response;
}

mlcask::storage::TransportFuture TracingTransport::AsyncCall(
    std::string_view request) {
  if (!Tracer::enabled()) return inner_->AsyncCall(request);
  const int64_t span = Tracer::BeginDetached(RpcKind(request));
  const uint64_t request_bytes = request.size();
  mlcask::storage::TransportFuture inner = inner_->AsyncCall(request);
  std::promise<StatusOr<std::string>> outer;
  mlcask::storage::TransportFuture result = outer.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++waiters_;
  }
  std::thread([this, span, request_bytes, inner = std::move(inner),
               outer = std::move(outer)]() mutable {
    // The inner transport guarantees its futures always resolve.
    StatusOr<std::string> response = inner.get();
    Tracer::EndDetached(span, {request_bytes,
                               response.ok() ? response->size() : 0, 1});
    outer.set_value(std::move(response));
    std::lock_guard<std::mutex> lock(mu_);
    if (--waiters_ == 0) idle_.notify_all();
  }).detach();
  return result;
}

// --------------------------------------------------------------- server ---

mlcask::storage::TransportHandler TraceHandler(
    mlcask::storage::TransportHandler handler) {
  return [handler = std::move(handler)](std::string_view request) {
    Span span(mlcask::service::IsServiceRequest(request)
                  ? SpanKind::kServerService
                  : SpanKind::kServerStorage);
    std::string response = handler(request);
    span.Set(request.size(), response.size(), 1);
    return response;
  };
}

// ------------------------------------------------------------- registry ---

std::unique_ptr<mlcask::pipeline::LibraryRegistry> WrapRegistry(
    const mlcask::pipeline::LibraryRegistry& base) {
  using mlcask::pipeline::ExecInput;
  using mlcask::pipeline::ExecOutput;
  auto wrapped = std::make_unique<mlcask::pipeline::LibraryRegistry>();
  for (const std::string& name : base.List()) {
    auto fn = base.Get(name);
    if (!fn.ok()) continue;
    const mlcask::pipeline::LibraryFn* target = *fn;
    (void)wrapped->Register(
        name, [target](const ExecInput& in) -> StatusOr<ExecOutput> {
          if (!Tracer::enabled()) return (*target)(in);
          const int64_t span = Tracer::Begin(in.input == nullptr
                                                 ? SpanKind::kLibGenerate
                                                 : SpanKind::kLibPreprocess);
          StatusOr<ExecOutput> out = (*target)(in);
          if (in.input != nullptr && out.ok() && out->has_score()) {
            Tracer::Relabel(span, SpanKind::kLibTrain);
          }
          Tracer::End(span);
          return out;
        });
  }
  return wrapped;
}

}  // namespace perfbench
