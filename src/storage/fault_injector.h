#ifndef MLCASK_STORAGE_FAULT_INJECTOR_H_
#define MLCASK_STORAGE_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "storage/storage_engine.h"

namespace mlcask::storage {

/// A parsed fault schedule. Every probability is per-event and every draw
/// flows through one seeded Pcg32, so a spec string fully determines the
/// fault sequence — chaos runs are replayable from the spec alone.
///
/// Spec grammar (comma-separated `key=value` pairs, all optional):
///
///   seed=S              RNG seed (default 1)
///   drop=P              client: kill the connection BEFORE sending a frame
///   dropafter=P         client: send the frame, then kill the connection
///                       (the request reaches the server; the response is
///                       lost — exercises the idempotent-replay ledger)
///   garble=P            client: corrupt the frame header length field so the
///                       peer sees Corruption and closes the connection
///   delay_ms=M:P        delay a send/job by M milliseconds with prob. P
///   drip_ms_per_kib=D   server: slow-drip — stall each job D ms per KiB of
///                       request payload (simulates a saturated reader)
///   diskfull=P          engine wrapper: mutations fail Unavailable("disk full")
///   kill_after=N        server: SIGKILL the process on the Nth DATA job
///                       (0 = never) — a deterministic kill -9 mid-2PC
struct FaultSpec {
  uint64_t seed = 1;
  double drop = 0;
  double drop_after = 0;
  double garble = 0;
  uint64_t delay_ms = 0;
  double delay_prob = 0;
  uint64_t drip_ms_per_kib = 0;
  double disk_full = 0;
  uint64_t kill_after = 0;

  static StatusOr<FaultSpec> Parse(std::string_view spec);
  std::string ToString() const;
  bool any() const {
    return drop > 0 || drop_after > 0 || garble > 0 || delay_prob > 0 ||
           drip_ms_per_kib > 0 || disk_full > 0 || kill_after > 0;
  }
};

/// What to do with one client-side send. At most one connection-killing
/// action fires per frame; delay composes with any of them.
struct SendFault {
  bool drop_before = false;  ///< Kill the connection, never send.
  bool drop_after = false;   ///< Send, then kill the connection.
  bool garble = false;       ///< Corrupt the frame header, then send.
  uint64_t delay_ms = 0;
};

/// What to do with one server-side job before running the handler.
struct JobFault {
  bool kill = false;  ///< SIGKILL this process: a crash mid-request.
  uint64_t delay_ms = 0;
};

/// Deterministic fault policy shared by every hook point of one process
/// (client sends, server jobs, engine mutations). Thread safe: one mutex
/// guards the RNG so concurrent hooks serialize draws — the draw ORDER under
/// concurrency is scheduling-dependent, but each individual decision is an
/// independent Bernoulli so aggregate behaviour tracks the spec regardless.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec)
      : spec_(spec), rng_(spec.seed) {}

  const FaultSpec& spec() const { return spec_; }

  /// Client transport: decide the fate of one outgoing request frame.
  SendFault OnClientSend();

  /// Server: decide the fate of one inbound DATA job of `payload_bytes`.
  /// Counts jobs across all connections for kill_after.
  JobFault OnServerJob(size_t payload_bytes);

  /// Engine wrapper: true when this mutation should fail disk-full.
  bool OnEngineWrite();

  uint64_t jobs_seen() const { return jobs_seen_.load(); }

 private:
  const FaultSpec spec_;
  std::mutex mu_;
  Pcg32 rng_;
  std::atomic<uint64_t> jobs_seen_{0};
};

/// StorageEngine decorator that injects disk-full failures on mutations
/// (per the injector's diskfull probability) and, independently, can be
/// switched to fail EVERY call Unavailable — the knob health-view tests use
/// to simulate a dead shard behind a live transport. Reads pass through.
/// Forwards the Async* surface so fan-out overlap is preserved.
class FaultyEngine : public StorageEngine {
 public:
  FaultyEngine(std::unique_ptr<StorageEngine> inner,
               std::shared_ptr<FaultInjector> injector)
      : inner_(std::move(inner)), injector_(std::move(injector)) {}

  /// When set, every call (reads included) fails Unavailable("shard down").
  void set_unavailable(bool down) { unavailable_.store(down); }

  /// When set, every call fails with a typed ResourceExhausted ("shard
  /// shedding") — the overload twin of set_unavailable. Distinct on
  /// purpose: shedding must NOT trip the router's health tracker (the
  /// shard is alive, just saturated) and must RELEASE any replay-ledger
  /// claim instead of recording the shed answer.
  void set_shed(bool shedding) { shed_.store(shedding); }

  StatusOr<PutResult> Put(const std::string& key,
                          std::string_view data) override;
  StatusOr<std::vector<PutResult>> PutMany(
      const std::vector<PutRequest>& batch) override;
  StatusOr<PutResult> CopyVersion(const std::string& key,
                                  const Hash256& source) override;
  StatusOr<std::string> Get(const std::string& key) override;
  StatusOr<std::string> GetVersion(const Hash256& id) override;
  bool HasVersion(const Hash256& id) const override;
  std::vector<Hash256> Versions(const std::string& key) const override;
  std::vector<std::pair<std::string, Hash256>> ListAllVersions()
      const override;
  StatusOr<uint64_t> DeleteVersion(const Hash256& id) override;
  EngineStats stats() const override;
  std::string Name() const override;
  double ReadCost(uint64_t bytes) const override;

  Deferred<PutResult> AsyncPut(const std::string& key,
                               std::string_view data) override;
  Deferred<std::vector<PutResult>> AsyncPutMany(
      const std::vector<PutRequest>& batch) override;
  Deferred<PutResult> AsyncCopyVersion(const std::string& key,
                                       const Hash256& source) override;
  Deferred<std::string> AsyncGetVersion(const Hash256& id) override;
  Deferred<bool> AsyncHasVersion(const Hash256& id) const override;
  Deferred<uint64_t> AsyncDeleteVersion(const Hash256& id) override;

  StorageEngine* inner() { return inner_.get(); }

 private:
  Status Gate(bool mutation);

  std::unique_ptr<StorageEngine> inner_;
  std::shared_ptr<FaultInjector> injector_;
  std::atomic<bool> unavailable_{false};
  std::atomic<bool> shed_{false};
};

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_FAULT_INJECTOR_H_
