#ifndef MLCASK_SERVICE_SERVICE_CODEC_H_
#define MLCASK_SERVICE_SERVICE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/sha256.h"
#include "common/status.h"
#include "storage/wire_codec.h"

namespace mlcask::service {

// ---------------------------------------------------------------------------
// Merge-service RPC codec (wire version 2, opcodes >= kServiceOpcodeBase).
//
// Service requests ride the exact same frame + binary message shape as the
// storage codec — magic 0xBC, opcode byte, tagged meta section, body — so
// one connection multiplexes storage and merge traffic and the transport's
// chunking/replay/deadline machinery applies unchanged. The opcode space is
// disjoint from storage::wire::Method (1..12): a combined endpoint routes
// any binary request whose opcode is >= storage::wire::kServiceOpcodeBase
// to the merge front end.
//
// Request meta tags (frozen on the wire). Tags 5 and 6 are the generic
// replay-token / deadline tags every binary request reserves (see
// storage/wire_codec.h); the service tags dodge them.
// ---------------------------------------------------------------------------

/// Merge-service opcodes. Values are frozen on the wire and MUST stay
/// >= storage::wire::kServiceOpcodeBase so storage dispatch never sees them.
enum class ServiceOp : uint8_t {
  kSubmitMerge = 32,
  kPollMerge = 33,
  kFetchWinner = 34,
  kCancelMerge = 35,
};

/// True when `message` is a binary service request (vs a storage RPC or
/// anything else). The cheap routing test a combined endpoint applies first.
bool IsServiceRequest(std::string_view message);

/// Session lifecycle, as reported by PollMerge. Values are frozen on the
/// wire. Queued/Running are live; Done/Failed/Cancelled are terminal.
enum class SessionState : uint8_t {
  kQueued = 1,
  kRunning = 2,
  kDone = 3,
  kFailed = 4,
  kCancelled = 5,
};

bool IsTerminal(SessionState state);
const char* SessionStateName(SessionState state);

/// Everything a merge submission pins down. Two submissions with equal
/// CacheKey() (same tenant) are compatible: they would run byte-identical
/// Algorithm 2 searches, so the scheduler coalesces them into one batch.
struct MergeJobSpec {
  std::string tenant;                ///< Fairness + isolation identity.
  std::string workload = "readmission";
  double scale = 0.06;
  int extra_extractor_versions = 0;  ///< Fig. 11 widening (0 = fig9).
  int extra_model_versions = 0;
  uint32_t storage_shards = 1;       ///< Deployment storage topology.
  uint32_t merge_shards = 1;         ///< MergeOptions::shards.
  uint32_t num_workers = 1;          ///< Per-drain parallelism.
  std::string optimize_metric;       ///< Empty = pipeline primary score.
  uint64_t seed = 1;

  /// Scenario identity WITHOUT the tenant: the coalescing key within one
  /// tenant's queue (tenant is prepended separately so two tenants never
  /// share a batch).
  std::string CacheKey() const;
};

/// The result surface of a server-side merge: exactly the fields the
/// equivalence tests fingerprint client-side (winner identity, executions,
/// persisted artifact hashes), plus a single SHA-256 over all of them so a
/// client can compare winners without shipping the full report.
struct MergeWinner {
  uint64_t component_executions = 0;
  int32_t best_index = -1;
  double best_score = 0;
  uint64_t candidates_considered = 0;
  double makespan_s = 0;
  Hash256 merge_commit;
  std::vector<std::string> winner_chain;     ///< ComponentVersionSpec keys.
  std::vector<Hash256> artifact_hashes;      ///< Merge-commit outputs, in order.

  /// SHA-256 over every field above, order-sensitive. Equal fingerprints
  /// mean bit-identical winners.
  Hash256 Fingerprint() const;
};

// --- requests (client encodes, front end decodes) --------------------------

/// SubmitMerge: meta {tenant, spec fields[, replay_token, deadline]},
/// empty body. A non-empty replay token makes the submit idempotent per
/// (tenant, token): a redial replay returns the already-created session.
std::string EncodeSubmitRequest(const MergeJobSpec& spec,
                                std::string_view replay_token = {});

/// PollMerge / FetchWinner / CancelMerge: meta {tenant, session_id[,
/// deadline]}. The tenant is the caller's claimed identity: the service
/// answers NotFound for a session another tenant owns, so session ids never
/// leak results across tenants.
std::string EncodeSessionRequest(ServiceOp op, std::string_view tenant,
                                 std::string_view session_id);

struct SubmitRequest {
  MergeJobSpec spec;
  std::string_view replay_token;
  uint64_t deadline_ms = 0;  ///< Remaining budget stamped by the caller.
};

struct SessionRequest {
  ServiceOp op = ServiceOp::kPollMerge;
  std::string_view tenant;
  std::string_view session_id;
  uint64_t deadline_ms = 0;
};

/// Decodes any service request's opcode (kInvalidArgument when not a
/// service message).
StatusOr<ServiceOp> PeekServiceOp(std::string_view message);

StatusOr<SubmitRequest> DecodeSubmitRequest(std::string_view message);
StatusOr<SessionRequest> DecodeSessionRequest(std::string_view message);

// --- responses (front end encodes, client decodes) -------------------------
//
// Errors use the storage codec's error envelope (status code in the second
// byte, message in meta) so one decoder handles both layers' failures.

/// SubmitMerge ok-response: the session handle. `coalesced` is true when
/// the submission joined an already-queued compatible batch.
std::string EncodeSubmitResponse(std::string_view session_id, bool coalesced);

struct SubmitResult {
  std::string session_id;
  bool coalesced = false;
};
StatusOr<SubmitResult> DecodeSubmitResponse(std::string_view message);

/// PollMerge ok-response: current state + progress. A kFailed session
/// carries its terminal status (code + message) so the poller learns WHY
/// without a FetchWinner round trip.
struct PollResult {
  SessionState state = SessionState::kQueued;
  uint64_t queued_ahead = 0;   ///< Batches ahead in the tenant queue.
  StatusCode error_code = StatusCode::kOk;  ///< kFailed sessions only.
  std::string error_message;
};
std::string EncodePollResponse(const PollResult& result);
StatusOr<PollResult> DecodePollResponse(std::string_view message);

/// FetchWinner ok-response: the winner. Scalar fields + fingerprint ride
/// the meta section; the chain keys and artifact hashes ride the body.
std::string EncodeWinnerResponse(const MergeWinner& winner);
StatusOr<MergeWinner> DecodeWinnerResponse(std::string_view message);

/// CancelMerge ok-response: the session's resulting state.
std::string EncodeCancelResponse(SessionState state);
StatusOr<SessionState> DecodeCancelResponse(std::string_view message);

}  // namespace mlcask::service

#endif  // MLCASK_SERVICE_SERVICE_CODEC_H_
