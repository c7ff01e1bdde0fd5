#include "service/service_codec.h"

#include <cstring>

#include "storage/deadline.h"

namespace mlcask::service {

namespace wire = mlcask::storage::wire;
using storage::DeadlineScope;

namespace {

// Submit-request meta tags. 5/6 are the generic replay-token/deadline tags
// (storage/wire_codec.h) and are deliberately left out of the spec layout.
constexpr uint32_t kTagTenant = 1;          // bytes
constexpr uint32_t kTagWorkload = 2;        // bytes
constexpr uint32_t kTagScale = 3;           // f64
constexpr uint32_t kTagMetric = 4;          // bytes
constexpr uint32_t kTagExtraExtractors = 7; // varint
constexpr uint32_t kTagExtraModels = 8;     // varint
constexpr uint32_t kTagStorageShards = 9;   // varint
constexpr uint32_t kTagMergeShards = 10;    // varint
constexpr uint32_t kTagNumWorkers = 11;     // varint
constexpr uint32_t kTagSeed = 12;           // varint
constexpr uint32_t kTagSessionId = 13;      // bytes (session requests)

// Response tags (per-message tag spaces, like the storage codec). No
// message, request or response, may use tag 14: it is wire::kTagRecipe in
// every message.
constexpr uint32_t kTagRespSession = 1;     // submit: session id (bytes)
constexpr uint32_t kTagRespCoalesced = 2;   // submit: joined a batch (varint)

constexpr uint32_t kTagRespState = 1;       // poll/cancel: state (varint)
constexpr uint32_t kTagRespQueuedAhead = 2; // poll: batches ahead (varint)
constexpr uint32_t kTagRespErrCode = 3;     // poll: failed status (varint)
constexpr uint32_t kTagRespErrMessage = 4;  // poll: failed message (bytes)

constexpr uint32_t kTagRespExecutions = 1;  // winner: executions (varint)
constexpr uint32_t kTagRespBestIndex = 2;   // winner: best index + 1 (varint)
constexpr uint32_t kTagRespBestScore = 3;   // winner: best score (f64)
constexpr uint32_t kTagRespCandidates = 4;  // winner: considered (varint)
constexpr uint32_t kTagRespMakespan = 5;    // winner: makespan_s (f64)
constexpr uint32_t kTagRespCommit = 6;      // winner: merge commit (hash)
constexpr uint32_t kTagRespFingerprint = 7; // winner: fingerprint (hash)

void StampAmbientDeadline(std::string* meta) {
  const uint64_t remaining = DeadlineScope::CurrentRemainingMs();
  if (remaining > 0) {
    wire::PutMetaVarint(meta, wire::kTagRequestDeadline, remaining);
  }
}

}  // namespace

bool IsServiceRequest(std::string_view message) {
  return wire::IsBinaryMessage(message) && message.size() >= 2 &&
         static_cast<uint8_t>(message[1]) >= wire::kServiceOpcodeBase;
}

bool IsTerminal(SessionState state) {
  return state == SessionState::kDone || state == SessionState::kFailed ||
         state == SessionState::kCancelled;
}

const char* SessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kQueued: return "queued";
    case SessionState::kRunning: return "running";
    case SessionState::kDone: return "done";
    case SessionState::kFailed: return "failed";
    case SessionState::kCancelled: return "cancelled";
  }
  return "unknown";
}

std::string MergeJobSpec::CacheKey() const {
  // '\x1f' separators keep adjacent fields from gluing into collisions.
  std::string key;
  key.append(workload);
  key.push_back('\x1f');
  uint64_t scale_bits = 0;
  std::memcpy(&scale_bits, &scale, sizeof(scale_bits));
  key.append(std::to_string(scale_bits));
  key.push_back('\x1f');
  key.append(std::to_string(extra_extractor_versions));
  key.push_back('\x1f');
  key.append(std::to_string(extra_model_versions));
  key.push_back('\x1f');
  key.append(std::to_string(storage_shards));
  key.push_back('\x1f');
  key.append(std::to_string(merge_shards));
  key.push_back('\x1f');
  key.append(std::to_string(num_workers));
  key.push_back('\x1f');
  key.append(optimize_metric);
  key.push_back('\x1f');
  key.append(std::to_string(seed));
  return key;
}

Hash256 MergeWinner::Fingerprint() const {
  Sha256 hasher;
  auto mix_u64 = [&hasher](uint64_t v) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
    hasher.Update(std::string_view(bytes, sizeof(bytes)));
  };
  mix_u64(component_executions);
  mix_u64(static_cast<uint64_t>(static_cast<int64_t>(best_index)));
  uint64_t score_bits = 0;
  std::memcpy(&score_bits, &best_score, sizeof(score_bits));
  mix_u64(score_bits);
  mix_u64(candidates_considered);
  hasher.Update(std::string_view(
      reinterpret_cast<const char*>(merge_commit.bytes.data()),
      merge_commit.bytes.size()));
  mix_u64(winner_chain.size());
  for (const std::string& key : winner_chain) {
    mix_u64(key.size());
    hasher.Update(key);
  }
  mix_u64(artifact_hashes.size());
  for (const Hash256& hash : artifact_hashes) {
    hasher.Update(std::string_view(
        reinterpret_cast<const char*>(hash.bytes.data()), hash.bytes.size()));
  }
  return hasher.Finish();
}

// --- requests --------------------------------------------------------------

std::string EncodeSubmitRequest(const MergeJobSpec& spec,
                                std::string_view replay_token) {
  std::string meta;
  wire::PutMetaBytes(&meta, kTagTenant, spec.tenant);
  wire::PutMetaBytes(&meta, kTagWorkload, spec.workload);
  wire::PutMetaF64(&meta, kTagScale, spec.scale);
  if (!spec.optimize_metric.empty()) {
    wire::PutMetaBytes(&meta, kTagMetric, spec.optimize_metric);
  }
  if (!replay_token.empty()) {
    wire::PutMetaBytes(&meta, wire::kTagRequestReplayToken, replay_token);
  }
  StampAmbientDeadline(&meta);
  wire::PutMetaVarint(&meta, kTagExtraExtractors,
                      static_cast<uint64_t>(spec.extra_extractor_versions));
  wire::PutMetaVarint(&meta, kTagExtraModels,
                      static_cast<uint64_t>(spec.extra_model_versions));
  wire::PutMetaVarint(&meta, kTagStorageShards, spec.storage_shards);
  wire::PutMetaVarint(&meta, kTagMergeShards, spec.merge_shards);
  wire::PutMetaVarint(&meta, kTagNumWorkers, spec.num_workers);
  wire::PutMetaVarint(&meta, kTagSeed, spec.seed);
  return wire::AssembleMessage(
      static_cast<uint8_t>(ServiceOp::kSubmitMerge), meta, {});
}

std::string EncodeSessionRequest(ServiceOp op, std::string_view tenant,
                                 std::string_view session_id) {
  std::string meta;
  wire::PutMetaBytes(&meta, kTagTenant, tenant);
  wire::PutMetaBytes(&meta, kTagSessionId, session_id);
  StampAmbientDeadline(&meta);
  return wire::AssembleMessage(static_cast<uint8_t>(op), meta, {});
}

StatusOr<ServiceOp> PeekServiceOp(std::string_view message) {
  if (!IsServiceRequest(message)) {
    return Status::InvalidArgument("not a merge-service request");
  }
  const uint8_t opcode = static_cast<uint8_t>(message[1]);
  if (opcode < static_cast<uint8_t>(ServiceOp::kSubmitMerge) ||
      opcode > static_cast<uint8_t>(ServiceOp::kCancelMerge)) {
    return Status::Unimplemented("unknown merge-service opcode " +
                                 std::to_string(opcode));
  }
  return static_cast<ServiceOp>(opcode);
}

StatusOr<SubmitRequest> DecodeSubmitRequest(std::string_view message) {
  auto op = PeekServiceOp(message);
  MLCASK_RETURN_IF_ERROR(op.status());
  if (*op != ServiceOp::kSubmitMerge) {
    return Status::InvalidArgument("not a submit_merge request");
  }
  uint8_t opcode = 0;
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(
      wire::DisassembleMessage(message, &opcode, &meta, &body));
  SubmitRequest request;
  wire::MetaReader reader(meta);
  while (reader.Next()) {
    switch (reader.tag()) {
      case kTagTenant:
        request.spec.tenant = std::string(reader.bytes());
        break;
      case kTagWorkload:
        request.spec.workload = std::string(reader.bytes());
        break;
      case kTagScale:
        request.spec.scale = reader.f64();
        break;
      case kTagMetric:
        request.spec.optimize_metric = std::string(reader.bytes());
        break;
      case wire::kTagRequestReplayToken:
        request.replay_token = reader.bytes();
        break;
      case wire::kTagRequestDeadline:
        request.deadline_ms = reader.varint();
        break;
      case kTagExtraExtractors:
        request.spec.extra_extractor_versions =
            static_cast<int>(reader.varint());
        break;
      case kTagExtraModels:
        request.spec.extra_model_versions = static_cast<int>(reader.varint());
        break;
      case kTagStorageShards:
        request.spec.storage_shards = static_cast<uint32_t>(reader.varint());
        break;
      case kTagMergeShards:
        request.spec.merge_shards = static_cast<uint32_t>(reader.varint());
        break;
      case kTagNumWorkers:
        request.spec.num_workers = static_cast<uint32_t>(reader.varint());
        break;
      case kTagSeed:
        request.spec.seed = reader.varint();
        break;
      default:
        break;
    }
  }
  if (reader.malformed()) {
    return Status::InvalidArgument("malformed submit_merge meta");
  }
  if (request.spec.tenant.empty()) {
    return Status::InvalidArgument("submit_merge requires a tenant id");
  }
  return request;
}

StatusOr<SessionRequest> DecodeSessionRequest(std::string_view message) {
  auto op = PeekServiceOp(message);
  MLCASK_RETURN_IF_ERROR(op.status());
  if (*op == ServiceOp::kSubmitMerge) {
    return Status::InvalidArgument("submit_merge is not a session request");
  }
  uint8_t opcode = 0;
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(
      wire::DisassembleMessage(message, &opcode, &meta, &body));
  SessionRequest request;
  request.op = *op;
  wire::MetaReader reader(meta);
  while (reader.Next()) {
    switch (reader.tag()) {
      case kTagTenant:
        request.tenant = reader.bytes();
        break;
      case kTagSessionId:
        request.session_id = reader.bytes();
        break;
      case wire::kTagRequestDeadline:
        request.deadline_ms = reader.varint();
        break;
      default:
        break;
    }
  }
  if (reader.malformed()) {
    return Status::InvalidArgument("malformed session request meta");
  }
  if (request.session_id.empty()) {
    return Status::InvalidArgument("session request requires a session id");
  }
  return request;
}

// --- responses -------------------------------------------------------------

namespace {

/// Disassembles an ok-response; a non-ok second byte decodes into the typed
/// status the server sent (the storage codec's error envelope).
Status OpenOkResponse(std::string_view message, std::string_view* meta,
                      std::string_view* body) {
  uint8_t code = 0;
  MLCASK_RETURN_IF_ERROR(
      wire::DisassembleMessage(message, &code, meta, body));
  if (code != 0) {
    std::string_view rest;
    return wire::DecodeResponseStatus(message, &rest);
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeSubmitResponse(std::string_view session_id, bool coalesced) {
  std::string meta;
  wire::PutMetaBytes(&meta, kTagRespSession, session_id);
  wire::PutMetaVarint(&meta, kTagRespCoalesced, coalesced ? 1 : 0);
  return wire::AssembleMessage(0, meta, {});
}

StatusOr<SubmitResult> DecodeSubmitResponse(std::string_view message) {
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(OpenOkResponse(message, &meta, &body));
  SubmitResult result;
  wire::MetaReader reader(meta);
  while (reader.Next()) {
    switch (reader.tag()) {
      case kTagRespSession:
        result.session_id = std::string(reader.bytes());
        break;
      case kTagRespCoalesced:
        result.coalesced = reader.varint() != 0;
        break;
      default:
        break;
    }
  }
  if (reader.malformed() || result.session_id.empty()) {
    return Status::Corruption("malformed submit_merge response");
  }
  return result;
}

std::string EncodePollResponse(const PollResult& result) {
  std::string meta;
  wire::PutMetaVarint(&meta, kTagRespState,
                      static_cast<uint64_t>(result.state));
  wire::PutMetaVarint(&meta, kTagRespQueuedAhead, result.queued_ahead);
  if (result.state == SessionState::kFailed) {
    wire::PutMetaVarint(&meta, kTagRespErrCode,
                        static_cast<uint64_t>(result.error_code));
    wire::PutMetaBytes(&meta, kTagRespErrMessage, result.error_message);
  }
  return wire::AssembleMessage(0, meta, {});
}

StatusOr<PollResult> DecodePollResponse(std::string_view message) {
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(OpenOkResponse(message, &meta, &body));
  PollResult result;
  bool saw_state = false;
  wire::MetaReader reader(meta);
  while (reader.Next()) {
    switch (reader.tag()) {
      case kTagRespState:
        result.state = static_cast<SessionState>(reader.varint());
        saw_state = true;
        break;
      case kTagRespQueuedAhead:
        result.queued_ahead = reader.varint();
        break;
      case kTagRespErrCode:
        result.error_code = static_cast<StatusCode>(reader.varint());
        break;
      case kTagRespErrMessage:
        result.error_message = std::string(reader.bytes());
        break;
      default:
        break;
    }
  }
  if (reader.malformed() || !saw_state) {
    return Status::Corruption("malformed poll_merge response");
  }
  return result;
}

std::string EncodeWinnerResponse(const MergeWinner& winner) {
  std::string meta;
  wire::PutMetaVarint(&meta, kTagRespExecutions, winner.component_executions);
  // best_index is shifted by one so -1 (no winner) rides a varint cleanly.
  wire::PutMetaVarint(&meta, kTagRespBestIndex,
                      static_cast<uint64_t>(winner.best_index + 1));
  wire::PutMetaF64(&meta, kTagRespBestScore, winner.best_score);
  wire::PutMetaVarint(&meta, kTagRespCandidates, winner.candidates_considered);
  wire::PutMetaF64(&meta, kTagRespMakespan, winner.makespan_s);
  wire::PutMetaHash(&meta, kTagRespCommit, winner.merge_commit);
  wire::PutMetaHash(&meta, kTagRespFingerprint, winner.Fingerprint());
  std::string body;
  wire::PutVarint(&body, winner.winner_chain.size());
  for (const std::string& key : winner.winner_chain) {
    wire::PutVarint(&body, key.size());
    body.append(key);
  }
  wire::PutVarint(&body, winner.artifact_hashes.size());
  for (const Hash256& hash : winner.artifact_hashes) {
    body.append(reinterpret_cast<const char*>(hash.bytes.data()),
                hash.bytes.size());
  }
  return wire::AssembleMessage(0, meta, body);
}

StatusOr<MergeWinner> DecodeWinnerResponse(std::string_view message) {
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(OpenOkResponse(message, &meta, &body));
  MergeWinner winner;
  Hash256 sent_fingerprint;
  bool saw_fingerprint = false;
  wire::MetaReader reader(meta);
  while (reader.Next()) {
    switch (reader.tag()) {
      case kTagRespExecutions:
        winner.component_executions = reader.varint();
        break;
      case kTagRespBestIndex:
        winner.best_index = static_cast<int32_t>(reader.varint()) - 1;
        break;
      case kTagRespBestScore:
        winner.best_score = reader.f64();
        break;
      case kTagRespCandidates:
        winner.candidates_considered = reader.varint();
        break;
      case kTagRespMakespan:
        winner.makespan_s = reader.f64();
        break;
      case kTagRespCommit:
        winner.merge_commit = reader.hash();
        break;
      case kTagRespFingerprint:
        sent_fingerprint = reader.hash();
        saw_fingerprint = true;
        break;
      default:
        break;
    }
  }
  if (reader.malformed()) {
    return Status::Corruption("malformed fetch_winner response");
  }
  std::string_view rest = body;
  uint64_t chain_count = 0;
  if (!wire::GetVarint(&rest, &chain_count) ||
      chain_count > rest.size()) {
    return Status::Corruption("malformed winner chain");
  }
  winner.winner_chain.reserve(chain_count);
  for (uint64_t i = 0; i < chain_count; ++i) {
    uint64_t len = 0;
    if (!wire::GetVarint(&rest, &len) || rest.size() < len) {
      return Status::Corruption("malformed winner chain entry");
    }
    winner.winner_chain.emplace_back(rest.substr(0, len));
    rest.remove_prefix(len);
  }
  uint64_t hash_count = 0;
  if (!wire::GetVarint(&rest, &hash_count) ||
      hash_count > rest.size() / 32) {
    return Status::Corruption("malformed winner artifact hashes");
  }
  winner.artifact_hashes.reserve(hash_count);
  for (uint64_t i = 0; i < hash_count; ++i) {
    Hash256 hash;
    std::memcpy(hash.bytes.data(), rest.data(), hash.bytes.size());
    rest.remove_prefix(hash.bytes.size());
    winner.artifact_hashes.push_back(hash);
  }
  if (!rest.empty()) {
    return Status::Corruption("winner response has trailing bytes");
  }
  // The fingerprint doubles as an end-to-end integrity check: recompute it
  // over the decoded fields and insist it matches what the server hashed.
  if (saw_fingerprint && !(winner.Fingerprint() == sent_fingerprint)) {
    return Status::Corruption("winner fingerprint mismatch after decode");
  }
  return winner;
}

std::string EncodeCancelResponse(SessionState state) {
  std::string meta;
  wire::PutMetaVarint(&meta, kTagRespState, static_cast<uint64_t>(state));
  return wire::AssembleMessage(0, meta, {});
}

StatusOr<SessionState> DecodeCancelResponse(std::string_view message) {
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(OpenOkResponse(message, &meta, &body));
  wire::MetaReader reader(meta);
  while (reader.Next()) {
    if (reader.tag() == kTagRespState) {
      return static_cast<SessionState>(reader.varint());
    }
  }
  return Status::Corruption("malformed cancel_merge response");
}

}  // namespace mlcask::service
