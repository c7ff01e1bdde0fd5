#include "storage/remote_engine.h"

#include <optional>
#include <random>
#include <utility>

#include "common/strings.h"
#include "storage/deadline.h"
#include "storage/wire_codec.h"

namespace mlcask::storage {

bool StorageEngineService::LookupReplayOrClaim(const std::string& token,
                                               std::string* response) {
  std::unique_lock<std::mutex> lock(ledger_mu_);
  for (;;) {
    auto it = ledger_.find(token);
    if (it == ledger_.end()) {
      ledger_.emplace(token, LedgerEntry{});  // claimed: we execute it
      return false;
    }
    if (it->second.ready) {
      *response = it->second.response;
      replay_hits_ += 1;
      return true;
    }
    // The original execution is still in flight on another worker (the
    // client redialed fast enough to race its own request). Wait for the
    // recorded response instead of racing a second execution into the
    // engine. Handle() always resolves every claim after dispatch — by
    // recording the response, or by RELEASING the claim when the request
    // was load-shed (ResourceExhausted) — so this wait always wakes; after
    // a release the find() misses and this caller re-claims.
    ledger_cv_.wait(lock);
  }
}

void StorageEngineService::RecordReplay(const std::string& token,
                                        const std::string& response) {
  {
    std::lock_guard<std::mutex> lock(ledger_mu_);
    LedgerEntry& entry = ledger_[token];
    if (!entry.ready) {
      entry.ready = true;
      entry.response = response;
      // Only RECORDED entries enter the eviction queue, so an in-flight
      // claim can never be evicted out from under its waiters.
      ledger_order_.push_back(token);
      while (ledger_order_.size() > kLedgerCap) {
        ledger_.erase(ledger_order_.front());
        ledger_order_.pop_front();
      }
    }
  }
  ledger_cv_.notify_all();
}

void StorageEngineService::ReleaseClaim(const std::string& token) {
  {
    std::lock_guard<std::mutex> lock(ledger_mu_);
    auto it = ledger_.find(token);
    // Only an UNRESOLVED claim is released; a recorded entry stays — it is
    // a real answer replays may legitimately need.
    if (it != ledger_.end() && !it->second.ready) ledger_.erase(it);
  }
  ledger_cv_.notify_all();
}

std::string StorageEngineService::Handle(std::string_view request) {
  // Anything that is not a binary message (a JSON-era peer's request, say)
  // carries no token and no deadline, and DispatchBinary answers it with a
  // binary error response without touching the engine.
  const std::string token(wire::ExtractReplayToken(request));
  std::string replayed;
  if (!token.empty() && LookupReplayOrClaim(token, &replayed)) {
    return replayed;
  }
  std::string response;
  {
    // Re-anchor the caller's stamped remaining budget as this side's
    // ambient deadline: any fan-out the engine performs while serving
    // this request (a sharded router behind the service) stamps ITS
    // downstream calls from what is left — end-to-end propagation.
    const uint64_t deadline_ms = wire::ExtractDeadline(request);
    std::optional<DeadlineBudget> budget;
    std::optional<DeadlineScope> scope;
    if (deadline_ms > 0) {
      budget.emplace(deadline_ms);
      scope.emplace(&*budget);
    }
    response = wire::DispatchBinary(engine_, request);
  }
  if (!token.empty()) {
    // A load-shed answer must not occupy the token's slot: release the
    // claim so the client's retry re-executes (and any duplicate blocked
    // on the claim re-claims) instead of replaying "overloaded" forever.
    const bool shed =
        response.size() >= 2 &&
        static_cast<uint8_t>(response[1]) ==
            static_cast<uint8_t>(StatusCode::kResourceExhausted);
    if (shed) {
      ReleaseClaim(token);
    } else {
      RecordReplay(token, response);
    }
  }
  return response;
}

// --------------------------------------------------------------- client ---

namespace {

// Raw transport result -> typed value: a transport failure passes through,
// a response decodes with the wire codec. Shared by the blocking methods
// and the Deferred wrappers.

StatusOr<PutResult> DecodePut(StatusOr<std::string> raw) {
  if (!raw.ok()) return raw.status();
  return wire::DecodePutResponse(*raw);
}

StatusOr<std::string> DecodeData(StatusOr<std::string> raw) {
  if (!raw.ok()) return raw.status();
  MLCASK_ASSIGN_OR_RETURN(std::string_view data,
                          wire::DecodeDataResponse(*raw));
  return std::string(data);
}

StatusOr<bool> DecodeHas(StatusOr<std::string> raw) {
  if (!raw.ok()) return raw.status();
  return wire::DecodeHasResponse(*raw);
}

StatusOr<uint64_t> DecodeFreed(StatusOr<std::string> raw) {
  if (!raw.ok()) return raw.status();
  return wire::DecodeFreedResponse(*raw);
}

StatusOr<MigrateBatchResult> DecodeMigrate(StatusOr<std::string> raw) {
  if (!raw.ok()) return raw.status();
  return wire::DecodeMigrateResponse(*raw);
}

/// The non-Status query surface: any transport or decode failure degrades
/// to the empty answer (see the NOTE in remote_engine.h).
template <typename T>
T DecodeOrEmpty(StatusOr<std::string> raw,
                StatusOr<T> (*decode)(std::string_view)) {
  if (!raw.ok()) return T();
  auto decoded = decode(*raw);
  return decoded.ok() ? *std::move(decoded) : T();
}

}  // namespace

RemoteStorageEngine::RemoteStorageEngine(std::unique_ptr<Transport> transport)
    : transport_(std::move(transport)) {
  // Random per-proxy session id: replay tokens from two proxies (e.g. a
  // restarted router) can never collide in a server's dedup ledger.
  std::random_device rd;
  replay_session_ = StrFormat("%08x%08x", rd(), rd());
  auto peer = DecodeData(
      transport_->Call(wire::EncodePlainRequest(wire::Method::kName)));
  name_ = peer.ok() ? "remote(" + *peer + ")" : "remote";
}

std::string RemoteStorageEngine::NextReplayToken() {
  return replay_session_ + "." +
         std::to_string(replay_seq_.fetch_add(1, std::memory_order_relaxed));
}

StatusOr<PutResult> RemoteStorageEngine::Put(const std::string& key,
                                             std::string_view data) {
  return DecodePut(transport_->Call(
      wire::EncodePutRequest(key, data, NextReplayToken())));
}

Deferred<PutResult> RemoteStorageEngine::AsyncPut(const std::string& key,
                                                  std::string_view data) {
  return Deferred<PutResult>(
      transport_->AsyncCall(
          wire::EncodePutRequest(key, data, NextReplayToken())),
      DecodePut, transport_->call_timeout_ms());
}

StatusOr<std::vector<PutResult>> RemoteStorageEngine::PutMany(
    const std::vector<PutRequest>& batch) {
  auto raw =
      transport_->Call(wire::EncodePutManyRequest(batch, NextReplayToken()));
  if (!raw.ok()) return raw.status();
  return wire::DecodePutManyResponse(*raw, batch.size());
}

Deferred<std::vector<PutResult>> RemoteStorageEngine::AsyncPutMany(
    const std::vector<PutRequest>& batch) {
  const size_t expected = batch.size();
  return Deferred<std::vector<PutResult>>(
      transport_->AsyncCall(
          wire::EncodePutManyRequest(batch, NextReplayToken())),
      [expected](StatusOr<std::string> raw)
          -> StatusOr<std::vector<PutResult>> {
        if (!raw.ok()) return raw.status();
        return wire::DecodePutManyResponse(*raw, expected);
      },
      transport_->call_timeout_ms());
}

StatusOr<std::string> RemoteStorageEngine::Get(const std::string& key) {
  return DecodeData(
      transport_->Call(wire::EncodeKeyRequest(wire::Method::kGet, key)));
}

StatusOr<std::string> RemoteStorageEngine::GetVersion(const Hash256& id) {
  return DecodeData(
      transport_->Call(wire::EncodeIdRequest(wire::Method::kGetVersion, id)));
}

Deferred<std::string> RemoteStorageEngine::AsyncGetVersion(const Hash256& id) {
  return Deferred<std::string>(
      transport_->AsyncCall(
          wire::EncodeIdRequest(wire::Method::kGetVersion, id)),
      DecodeData, transport_->call_timeout_ms());
}

bool RemoteStorageEngine::HasVersion(const Hash256& id) const {
  auto has = DecodeHas(
      transport_->Call(wire::EncodeIdRequest(wire::Method::kHasVersion, id)));
  return has.ok() && *has;
}

Deferred<bool> RemoteStorageEngine::AsyncHasVersion(const Hash256& id) const {
  return Deferred<bool>(
      transport_->AsyncCall(
          wire::EncodeIdRequest(wire::Method::kHasVersion, id)),
      DecodeHas, transport_->call_timeout_ms());
}

std::vector<Hash256> RemoteStorageEngine::Versions(
    const std::string& key) const {
  return DecodeOrEmpty(
      transport_->Call(wire::EncodeKeyRequest(wire::Method::kVersions, key)),
      wire::DecodeVersionsResponse);
}

std::vector<std::pair<std::string, Hash256>>
RemoteStorageEngine::ListAllVersions() const {
  return DecodeOrEmpty(
      transport_->Call(
          wire::EncodePlainRequest(wire::Method::kListAllVersions)),
      wire::DecodeEntriesResponse);
}

StatusOr<uint64_t> RemoteStorageEngine::DeleteVersion(const Hash256& id) {
  return DecodeFreed(transport_->Call(wire::EncodeIdRequest(
      wire::Method::kDeleteVersion, id, NextReplayToken())));
}

Deferred<uint64_t> RemoteStorageEngine::AsyncDeleteVersion(const Hash256& id) {
  return Deferred<uint64_t>(
      transport_->AsyncCall(wire::EncodeIdRequest(
          wire::Method::kDeleteVersion, id, NextReplayToken())),
      DecodeFreed, transport_->call_timeout_ms());
}

StatusOr<MigrateBatchResult> RemoteStorageEngine::MigrateBatch(
    const std::vector<MigrateKeyVersions>& batch) {
  return DecodeMigrate(transport_->Call(
      wire::EncodeMigrateBatchRequest(batch, NextReplayToken())));
}

Deferred<MigrateBatchResult> RemoteStorageEngine::AsyncMigrateBatch(
    const std::vector<MigrateKeyVersions>& batch) {
  return Deferred<MigrateBatchResult>(
      transport_->AsyncCall(
          wire::EncodeMigrateBatchRequest(batch, NextReplayToken())),
      DecodeMigrate, transport_->call_timeout_ms());
}

EngineStats RemoteStorageEngine::stats() const {
  return DecodeOrEmpty(
      transport_->Call(wire::EncodePlainRequest(wire::Method::kStats)),
      wire::DecodeStatsResponse);
}

double RemoteStorageEngine::ReadCost(uint64_t bytes) const {
  return DecodeOrEmpty(transport_->Call(wire::EncodeReadCostRequest(bytes)),
                       wire::DecodeCostResponse);
}

}  // namespace mlcask::storage
