#ifndef MLCASK_STORAGE_REMOTE_ENGINE_H_
#define MLCASK_STORAGE_REMOTE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/storage_engine.h"
#include "storage/transport.h"

namespace mlcask::storage {

/// Server half of the remote storage protocol: owns (or borrows) a concrete
/// engine and answers serialized requests against it. Stateless beyond the
/// engine, so one service instance may serve many concurrent callers — the
/// engine's own thread safety contract carries over.
///
/// The wire format is the binary codec of storage/wire_codec.h: artifact
/// bytes ride verbatim after a tagged meta section, and error responses
/// round-trip the exact Status the engine returned.
class StorageEngineService {
 public:
  /// Borrows `engine` (must outlive the service).
  explicit StorageEngineService(StorageEngine* engine) : engine_(engine) {}
  /// Owns `engine`.
  explicit StorageEngineService(std::unique_ptr<StorageEngine> engine)
      : owned_(std::move(engine)), engine_(owned_.get()) {}

  /// Parses one serialized request, dispatches it to the engine, and
  /// serializes the response. Malformed requests, including any not in the
  /// binary codec, get an error response without reaching the engine — a
  /// remote peer cannot take the server down.
  ///
  /// Requests carrying a replay token (mutations from a RemoteStorageEngine)
  /// are idempotent: the first execution records its response in a ledger,
  /// and a replay of the same token — a redialing client resending a call
  /// whose response was lost — returns the recorded response without
  /// touching the engine. The ledger is FIFO-capped; a token can only be
  /// replayed within the client's redial window, which is orders of
  /// magnitude shorter than the time kLedgerCap fresh mutations take.
  std::string Handle(std::string_view request);

  StorageEngine* engine() { return engine_; }

  /// Requests answered from the replay ledger instead of the engine.
  uint64_t replay_hits() const {
    std::lock_guard<std::mutex> lock(ledger_mu_);
    return replay_hits_;
  }

 private:
  static constexpr size_t kLedgerCap = 4096;

  /// One ledger slot: claimed (execution in flight) until `ready`, then a
  /// recorded response any replay can be answered from.
  struct LedgerEntry {
    bool ready = false;
    std::string response;
  };

  /// Returns true and fills `response` when `token` already executed.
  /// Otherwise CLAIMS the token for this caller, who must RecordReplay
  /// after dispatching. A duplicate arriving while the original execution
  /// is still in flight BLOCKS until the response is recorded — two
  /// concurrent executions of one token can never both reach the engine,
  /// which is what makes redial replay exactly-once rather than merely
  /// usually-once.
  bool LookupReplayOrClaim(const std::string& token, std::string* response);
  void RecordReplay(const std::string& token, const std::string& response);
  /// Releases an unresolved claim WITHOUT recording a response: the shed
  /// path. A load-shed answer (ResourceExhausted) must not occupy the
  /// token's ledger slot — the client's retry re-executes instead of being
  /// answered with "overloaded" forever, and any duplicate blocked on the
  /// claim wakes to re-claim rather than waiting on a condvar for a
  /// recording that will never happen.
  void ReleaseClaim(const std::string& token);

  std::unique_ptr<StorageEngine> owned_;
  StorageEngine* engine_;

  mutable std::mutex ledger_mu_;
  std::condition_variable ledger_cv_;
  std::unordered_map<std::string, LedgerEntry> ledger_;
  std::deque<std::string> ledger_order_;  ///< FIFO eviction order.
  uint64_t replay_hits_ = 0;
};

/// Client half: a StorageEngine proxy that serializes every call into a
/// request message, sends it through a Transport, and decodes the response.
/// With a LoopbackTransport this gives an in-process deployment the exact
/// call/serialization profile of a networked one (the "aha" the distributed
/// tests rely on); a SocketTransport makes the peer a real process.
///
/// Beyond the blocking StorageEngine surface, the proxy exposes Async*
/// variants of the write/lookup calls the sharded router fans out: each
/// returns a Deferred<T> whose request is already on the wire, so issuing
/// one per shard before collecting overlaps the round trips.
class RemoteStorageEngine : public StorageEngine {
 public:
  /// Owns the transport. The remote peer's engine name is fetched eagerly so
  /// Name() stays cheap and non-faulting; an unreachable peer leaves the
  /// generic name "remote".
  explicit RemoteStorageEngine(std::unique_ptr<Transport> transport);

  StatusOr<PutResult> Put(const std::string& key,
                          std::string_view data) override;
  /// Ships the whole batch in ONE round trip. Used directly by
  /// single-engine deployments, and by the sharded router's phase-1
  /// staging, which sends each shard its staged intents as one message
  /// (phase-2 applies stay per-write so a failure knows exactly which
  /// version ids to roll back).
  StatusOr<std::vector<PutResult>> PutMany(
      const std::vector<PutRequest>& batch) override;
  StatusOr<std::string> Get(const std::string& key) override;
  StatusOr<std::string> GetVersion(const Hash256& id) override;
  /// NOTE on the non-Status query surface (HasVersion/Versions/
  /// ListAllVersions/stats): the StorageEngine interface gives these no
  /// error channel, so a TRANSPORT failure degrades to the empty/false
  /// answer. Loopback never fails; a socket Transport should retry
  /// transient errors internally before surfacing them, precisely because
  /// callers (e.g. ShardedStorageEngine's broadcast probes) treat these
  /// answers as existence decisions.
  bool HasVersion(const Hash256& id) const override;
  std::vector<Hash256> Versions(const std::string& key) const override;
  std::vector<std::pair<std::string, Hash256>> ListAllVersions() const override;
  StatusOr<uint64_t> DeleteVersion(const Hash256& id) override;
  /// Ships a whole shard-rebalance batch in ONE round trip (opcode 12);
  /// oversized batches ride the transport's chunk streaming like any other
  /// large message.
  StatusOr<MigrateBatchResult> MigrateBatch(
      const std::vector<MigrateKeyVersions>& batch) override;
  EngineStats stats() const override;
  std::string Name() const override { return name_; }
  double ReadCost(uint64_t bytes) const override;

  /// Async overrides: unlike the StorageEngine inline defaults, the
  /// request is ON THE WIRE before the method returns; Get() on the result
  /// waits for and decodes the response. Semantics and wire messages are
  /// identical to the blocking methods.
  Deferred<PutResult> AsyncPut(const std::string& key,
                               std::string_view data) override;
  Deferred<std::vector<PutResult>> AsyncPutMany(
      const std::vector<PutRequest>& batch) override;
  Deferred<std::string> AsyncGetVersion(const Hash256& id) override;
  Deferred<bool> AsyncHasVersion(const Hash256& id) const override;
  Deferred<uint64_t> AsyncDeleteVersion(const Hash256& id) override;
  Deferred<MigrateBatchResult> AsyncMigrateBatch(
      const std::vector<MigrateKeyVersions>& batch) override;

  const Transport* transport() const { return transport_.get(); }

 private:
  /// Fresh idempotency token for one mutating call: a per-proxy random
  /// session id plus a sequence number. Unique across proxies (random
  /// session) and within one (sequence), so the server ledger never
  /// confuses two distinct mutations.
  std::string NextReplayToken();

  std::unique_ptr<Transport> transport_;
  std::string name_;
  std::string replay_session_;
  std::atomic<uint64_t> replay_seq_{0};
};

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_REMOTE_ENGINE_H_
