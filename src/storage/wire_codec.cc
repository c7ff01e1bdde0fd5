#include "storage/wire_codec.h"

#include <algorithm>
#include <cstring>

#include "storage/chunk.h"
#include "storage/deadline.h"

namespace mlcask::storage::wire {

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint(std::string_view* in, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (in->empty()) return false;
    const uint8_t byte = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;  // more than 10 continuation bytes: malformed
}

void PutMetaVarint(std::string* meta, uint32_t tag, uint64_t v) {
  PutVarint(meta, (static_cast<uint64_t>(tag) << 2) |
                      static_cast<uint64_t>(MetaKind::kVarint));
  PutVarint(meta, v);
}

void PutMetaBytes(std::string* meta, uint32_t tag, std::string_view bytes) {
  PutVarint(meta, (static_cast<uint64_t>(tag) << 2) |
                      static_cast<uint64_t>(MetaKind::kBytes));
  PutVarint(meta, bytes.size());
  meta->append(bytes);
}

void PutMetaHash(std::string* meta, uint32_t tag, const Hash256& hash) {
  PutVarint(meta, (static_cast<uint64_t>(tag) << 2) |
                      static_cast<uint64_t>(MetaKind::kHash));
  meta->append(reinterpret_cast<const char*>(hash.bytes.data()),
               hash.bytes.size());
}

void PutMetaF64(std::string* meta, uint32_t tag, double v) {
  PutVarint(meta, (static_cast<uint64_t>(tag) << 2) |
                      static_cast<uint64_t>(MetaKind::kF64));
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    meta->push_back(static_cast<char>(bits >> (8 * i)));
  }
}

bool MetaReader::Next() {
  if (rest_.empty() || malformed_) return false;
  uint64_t key = 0;
  if (!GetVarint(&rest_, &key)) return Malformed();
  tag_ = static_cast<uint32_t>(key >> 2);
  kind_ = static_cast<MetaKind>(key & 0x3);
  switch (kind_) {
    case MetaKind::kVarint:
      return GetVarint(&rest_, &varint_) || Malformed();
    case MetaKind::kBytes: {
      uint64_t len = 0;
      if (!GetVarint(&rest_, &len) || rest_.size() < len) {
        return Malformed();
      }
      bytes_ = rest_.substr(0, len);
      rest_.remove_prefix(len);
      return true;
    }
    case MetaKind::kHash:
      if (rest_.size() < hash_.bytes.size()) return Malformed();
      std::memcpy(hash_.bytes.data(), rest_.data(), hash_.bytes.size());
      rest_.remove_prefix(hash_.bytes.size());
      return true;
    case MetaKind::kF64: {
      if (rest_.size() < 8) return Malformed();
      uint64_t bits = 0;
      for (int i = 7; i >= 0; --i) {
        bits = (bits << 8) | static_cast<uint8_t>(rest_[i]);
      }
      std::memcpy(&f64_, &bits, sizeof(f64_));
      rest_.remove_prefix(8);
      return true;
    }
  }
  return Malformed();
}

std::string AssembleMessage(uint8_t second, std::string_view meta,
                            std::string_view body) {
  std::string out;
  out.reserve(2 + 10 + meta.size() + body.size());
  out.push_back(static_cast<char>(kBinaryMagic));
  out.push_back(static_cast<char>(second));
  PutVarint(&out, meta.size());
  out.append(meta);
  out.append(body);  // the single memcpy that moves artifact bytes
  return out;
}

Status DisassembleMessage(std::string_view message, uint8_t* second,
                          std::string_view* meta, std::string_view* body) {
  if (message.size() < 2 ||
      static_cast<uint8_t>(message[0]) != kBinaryMagic) {
    return Status::Corruption("not a binary wire message");
  }
  *second = static_cast<uint8_t>(message[1]);
  std::string_view rest = message.substr(2);
  uint64_t meta_len = 0;
  if (!GetVarint(&rest, &meta_len) || rest.size() < meta_len) {
    return Status::Corruption("binary message meta section truncated");
  }
  *meta = rest.substr(0, meta_len);
  *body = rest.substr(meta_len);
  return Status::Ok();
}

namespace {

// The storage codec's historical names for the shared primitives above.
using FieldReader = MetaReader;

inline void PutFieldVarint(std::string* meta, uint32_t tag, uint64_t v) {
  PutMetaVarint(meta, tag, v);
}
inline void PutFieldBytes(std::string* meta, uint32_t tag,
                          std::string_view bytes) {
  PutMetaBytes(meta, tag, bytes);
}
inline void PutFieldHash(std::string* meta, uint32_t tag,
                         const Hash256& hash) {
  PutMetaHash(meta, tag, hash);
}
inline void PutFieldF64(std::string* meta, uint32_t tag, double v) {
  PutMetaF64(meta, tag, v);
}

// Frozen field tags. Requests and responses use disjoint-purpose tag spaces
// per message type, so tags only need to be stable within one message kind.
constexpr uint32_t kTagKey = 1;        // request: key (bytes)
constexpr uint32_t kTagId = 2;         // request: content id (hash)
constexpr uint32_t kTagBytesArg = 3;   // request: read_cost operand (varint)
constexpr uint32_t kTagCount = 4;      // put_many batch size (varint)
constexpr uint32_t kTagReplayToken = 5;  // request: idempotency token (bytes)
constexpr uint32_t kTagDeadline = 6;     // request: remaining budget ms (varint)

constexpr uint32_t kTagErrMessage = 1;   // error response message (bytes)
constexpr uint32_t kTagResultId = 1;     // PutResult.id (hash)
constexpr uint32_t kTagLogical = 2;      // PutResult/stats logical (varint)
constexpr uint32_t kTagPhysical = 3;     // PutResult/stats physical (varint)
constexpr uint32_t kTagStorageTime = 4;  // storage_time_s (f64)
constexpr uint32_t kTagDedup = 5;        // PutResult.deduplicated (varint)
constexpr uint32_t kTagHas = 1;          // has_version answer (varint)
constexpr uint32_t kTagFreed = 1;        // delete_version freed (varint)
constexpr uint32_t kTagCost = 1;         // read_cost answer (f64)
constexpr uint32_t kTagPuts = 5;         // stats.puts (varint)
constexpr uint32_t kTagGets = 6;         // stats.gets (varint)
constexpr uint32_t kTagApplied = 1;      // migrate applied_versions (varint)
constexpr uint32_t kTagSkipped = 2;      // migrate skipped_versions (varint)

/// The storage codec's historical names for the exported assembly helpers.
inline std::string Assemble(uint8_t second, std::string_view meta,
                            std::string_view body) {
  return AssembleMessage(second, meta, body);
}

inline Status Disassemble(std::string_view message, uint8_t* second,
                          std::string_view* meta, std::string_view* body) {
  return DisassembleMessage(message, second, meta, body);
}

std::string EncodeRequestMessage(Method method, std::string_view meta,
                                 std::string_view body) {
  return Assemble(static_cast<uint8_t>(method), meta, body);
}

StatusOr<PutResult> DecodePutResultMeta(std::string_view meta) {
  PutResult result;
  bool saw_id = false;
  FieldReader reader(meta);
  while (reader.Next()) {
    switch (reader.tag()) {
      case kTagResultId:
        result.id = reader.hash();
        saw_id = true;
        break;
      case kTagLogical:
        result.logical_bytes = reader.varint();
        break;
      case kTagPhysical:
        result.new_physical_bytes = reader.varint();
        break;
      case kTagStorageTime:
        result.storage_time_s = reader.f64();
        break;
      case kTagDedup:
        result.deduplicated = reader.varint() != 0;
        break;
      default:
        break;
    }
  }
  if (reader.malformed() || !saw_id) {
    return Status::Corruption("put response carries a malformed result");
  }
  return result;
}

/// Stamps the caller's remaining deadline budget (ambient DeadlineScope) into
/// a request meta section. No ambient budget (or a spent one) writes nothing,
/// so such requests stay bit-identical to the pre-deadline wire revision and
/// old peers skip the tag when it is present.
void StampAmbientDeadline(std::string* meta) {
  const uint64_t remaining = DeadlineScope::CurrentRemainingMs();
  if (remaining > 0) PutFieldVarint(meta, kTagDeadline, remaining);
}

void AppendPutResultMeta(std::string* meta, const PutResult& result) {
  PutFieldHash(meta, kTagResultId, result.id);
  PutFieldVarint(meta, kTagLogical, result.logical_bytes);
  PutFieldVarint(meta, kTagPhysical, result.new_physical_bytes);
  PutFieldF64(meta, kTagStorageTime, result.storage_time_s);
  PutFieldVarint(meta, kTagDedup, result.deduplicated ? 1 : 0);
}

}  // namespace

// --- requests ---------------------------------------------------------------

std::string EncodePutRequest(std::string_view key, std::string_view data,
                             std::string_view replay_token) {
  std::string meta;
  PutFieldBytes(&meta, kTagKey, key);
  if (!replay_token.empty()) {
    PutFieldBytes(&meta, kTagReplayToken, replay_token);
  }
  StampAmbientDeadline(&meta);
  return EncodeRequestMessage(Method::kPut, meta, data);
}

std::string EncodePutManyRequest(const std::vector<PutRequest>& batch,
                                 std::string_view replay_token) {
  std::string meta;
  PutFieldVarint(&meta, kTagCount, batch.size());
  if (!replay_token.empty()) {
    PutFieldBytes(&meta, kTagReplayToken, replay_token);
  }
  StampAmbientDeadline(&meta);
  std::string body;
  size_t total = 0;
  for (const PutRequest& put : batch) {
    total += put.key.size() + put.data.size() + 20;
  }
  body.reserve(total);
  for (const PutRequest& put : batch) {
    PutVarint(&body, put.key.size());
    body.append(put.key);
    PutVarint(&body, put.data.size());
    body.append(put.data);
  }
  return EncodeRequestMessage(Method::kPutMany, meta, body);
}

std::string EncodeKeyRequest(Method method, std::string_view key) {
  std::string meta;
  PutFieldBytes(&meta, kTagKey, key);
  StampAmbientDeadline(&meta);
  return EncodeRequestMessage(method, meta, {});
}

std::string EncodeIdRequest(Method method, const Hash256& id,
                            std::string_view replay_token) {
  std::string meta;
  PutFieldHash(&meta, kTagId, id);
  if (!replay_token.empty()) {
    PutFieldBytes(&meta, kTagReplayToken, replay_token);
  }
  StampAmbientDeadline(&meta);
  return EncodeRequestMessage(method, meta, {});
}

std::string EncodeCopyVersionRequest(std::string_view key,
                                     const Hash256& source,
                                     std::string_view replay_token) {
  std::string meta;
  PutFieldBytes(&meta, kTagKey, key);
  PutFieldHash(&meta, kTagId, source);
  if (!replay_token.empty()) {
    PutFieldBytes(&meta, kTagReplayToken, replay_token);
  }
  StampAmbientDeadline(&meta);
  return EncodeRequestMessage(Method::kCopyVersion, meta, {});
}

std::string EncodePlainRequest(Method method) {
  return EncodeRequestMessage(method, {}, {});
}

std::string EncodeReadCostRequest(uint64_t bytes) {
  std::string meta;
  PutFieldVarint(&meta, kTagBytesArg, bytes);
  StampAmbientDeadline(&meta);
  return EncodeRequestMessage(Method::kReadCost, meta, {});
}

std::string EncodeMigrateBatchRequest(
    const std::vector<MigrateKeyVersions>& batch,
    std::string_view replay_token) {
  std::string meta;
  PutFieldVarint(&meta, kTagCount, batch.size());
  if (!replay_token.empty()) {
    PutFieldBytes(&meta, kTagReplayToken, replay_token);
  }
  StampAmbientDeadline(&meta);
  std::string body;
  size_t total = 0;
  for (const MigrateKeyVersions& entry : batch) {
    total += entry.key.size() + 20;
    for (const auto& [id, data] : entry.versions) {
      total += id.bytes.size() + data.size() + 10;
    }
  }
  body.reserve(total);
  for (const MigrateKeyVersions& entry : batch) {
    PutVarint(&body, entry.key.size());
    body.append(entry.key);
    PutVarint(&body, entry.versions.size());
    for (const auto& [id, data] : entry.versions) {
      body.append(reinterpret_cast<const char*>(id.bytes.data()),
                  id.bytes.size());
      PutVarint(&body, data.size());
      body.append(data);
    }
  }
  return EncodeRequestMessage(Method::kMigrateBatch, meta, body);
}

StatusOr<Request> DecodeRequest(std::string_view message) {
  uint8_t opcode = 0;
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(Disassemble(message, &opcode, &meta, &body));
  if (opcode < static_cast<uint8_t>(Method::kPut) ||
      opcode > static_cast<uint8_t>(Method::kCopyVersion)) {
    return Status::Unimplemented("unknown binary storage opcode " +
                                 std::to_string(opcode));
  }
  Request request;
  request.method = static_cast<Method>(opcode);
  uint64_t batch_count = 0;
  FieldReader reader(meta);
  while (reader.Next()) {
    switch (reader.tag()) {
      case kTagKey:
        request.key = reader.bytes();
        break;
      case kTagId:
        request.id = reader.hash();
        break;
      case kTagBytesArg:
        request.bytes = reader.varint();
        break;
      case kTagCount:
        batch_count = reader.varint();
        break;
      case kTagReplayToken:
        request.replay_token = reader.bytes();
        break;
      case kTagDeadline:
        request.deadline_ms = reader.varint();
        break;
      default:
        break;
    }
  }
  if (reader.malformed()) {
    return Status::InvalidArgument("malformed binary request meta");
  }
  request.body = body;
  if (request.method == Method::kPutMany) {
    // The count varint is peer-controlled; each entry costs at least two
    // length bytes, so anything beyond body.size()/2 cannot parse. Reject it
    // here rather than handing a 2^60 count to reserve(), which would throw
    // past the handler instead of producing an error response.
    if (batch_count > body.size() / 2) {
      return Status::InvalidArgument("put_many count exceeds batch body");
    }
    request.batch.reserve(batch_count);
    std::string_view rest = body;
    for (uint64_t i = 0; i < batch_count; ++i) {
      uint64_t key_len = 0;
      if (!GetVarint(&rest, &key_len) || rest.size() < key_len) {
        return Status::InvalidArgument("malformed put_many batch entry");
      }
      std::string_view key = rest.substr(0, key_len);
      rest.remove_prefix(key_len);
      uint64_t data_len = 0;
      if (!GetVarint(&rest, &data_len) || rest.size() < data_len) {
        return Status::InvalidArgument("malformed put_many batch entry");
      }
      request.batch.emplace_back(key, rest.substr(0, data_len));
      rest.remove_prefix(data_len);
    }
    if (!rest.empty()) {
      return Status::InvalidArgument("put_many batch has trailing bytes");
    }
  }
  if (request.method == Method::kMigrateBatch) {
    // Same hostile-varint posture as put_many: every count is peer
    // controlled, so each is bounded by what the remaining bytes could
    // possibly parse into before any reserve().
    if (batch_count > body.size() / 2) {
      return Status::InvalidArgument("migrate_batch count exceeds body");
    }
    request.migrate.reserve(batch_count);
    std::string_view rest = body;
    for (uint64_t i = 0; i < batch_count; ++i) {
      uint64_t key_len = 0;
      if (!GetVarint(&rest, &key_len) || rest.size() < key_len) {
        return Status::InvalidArgument("malformed migrate_batch key");
      }
      Request::MigrateEntry entry;
      entry.key = rest.substr(0, key_len);
      rest.remove_prefix(key_len);
      uint64_t version_count = 0;
      // Each version costs at least 32 id bytes + 1 length byte.
      if (!GetVarint(&rest, &version_count) ||
          version_count > rest.size() / 33) {
        return Status::InvalidArgument("malformed migrate_batch entry");
      }
      entry.versions.reserve(version_count);
      for (uint64_t v = 0; v < version_count; ++v) {
        Hash256 id;
        if (rest.size() < id.bytes.size()) {
          return Status::InvalidArgument("malformed migrate_batch version");
        }
        std::memcpy(id.bytes.data(), rest.data(), id.bytes.size());
        rest.remove_prefix(id.bytes.size());
        uint64_t data_len = 0;
        if (!GetVarint(&rest, &data_len) || rest.size() < data_len) {
          return Status::InvalidArgument("malformed migrate_batch version");
        }
        entry.versions.emplace_back(id, rest.substr(0, data_len));
        rest.remove_prefix(data_len);
      }
      request.migrate.push_back(std::move(entry));
    }
    if (!rest.empty()) {
      return Status::InvalidArgument("migrate_batch has trailing bytes");
    }
  }
  return request;
}

std::string_view ExtractReplayToken(std::string_view message) {
  uint8_t opcode = 0;
  std::string_view meta;
  std::string_view body;
  if (!Disassemble(message, &opcode, &meta, &body).ok()) return {};
  FieldReader reader(meta);
  while (reader.Next()) {
    if (reader.tag() == kTagReplayToken) return reader.bytes();
  }
  return {};
}

uint64_t ExtractDeadline(std::string_view message) {
  uint8_t opcode = 0;
  std::string_view meta;
  std::string_view body;
  if (!Disassemble(message, &opcode, &meta, &body).ok()) return 0;
  FieldReader reader(meta);
  while (reader.Next()) {
    if (reader.tag() == kTagDeadline) return reader.varint();
  }
  return 0;
}

// --- responses --------------------------------------------------------------

std::string EncodeErrorResponse(const Status& status) {
  std::string meta;
  PutFieldBytes(&meta, kTagErrMessage, status.message());
  return Assemble(static_cast<uint8_t>(status.code()), meta, {});
}

std::string EncodeDataResponse(std::string_view data) {
  return Assemble(0, {}, data);
}

std::string EncodePutResponse(const PutResult& result) {
  std::string meta;
  AppendPutResultMeta(&meta, result);
  return Assemble(0, meta, {});
}

std::string EncodePutManyResponse(const std::vector<PutResult>& results) {
  std::string body;
  for (const PutResult& result : results) {
    std::string meta;
    AppendPutResultMeta(&meta, result);
    PutVarint(&body, meta.size());
    body.append(meta);
  }
  return Assemble(0, {}, body);
}

std::string EncodeHasResponse(bool has) {
  std::string meta;
  PutFieldVarint(&meta, kTagHas, has ? 1 : 0);
  return Assemble(0, meta, {});
}

std::string EncodeFreedResponse(uint64_t freed_bytes) {
  std::string meta;
  PutFieldVarint(&meta, kTagFreed, freed_bytes);
  return Assemble(0, meta, {});
}

std::string EncodeVersionsResponse(const std::vector<Hash256>& ids) {
  std::string body;
  body.reserve(ids.size() * 32);
  for (const Hash256& id : ids) {
    body.append(reinterpret_cast<const char*>(id.bytes.data()),
                id.bytes.size());
  }
  return Assemble(0, {}, body);
}

std::string EncodeEntriesResponse(
    const std::vector<std::pair<std::string, Hash256>>& entries) {
  std::string body;
  for (const auto& [key, id] : entries) {
    PutVarint(&body, key.size());
    body.append(key);
    body.append(reinterpret_cast<const char*>(id.bytes.data()),
                id.bytes.size());
  }
  return Assemble(0, {}, body);
}

std::string EncodeStatsResponse(const EngineStats& stats) {
  std::string meta;
  PutFieldVarint(&meta, kTagLogical, stats.logical_bytes);
  PutFieldVarint(&meta, kTagPhysical, stats.physical_bytes);
  PutFieldF64(&meta, kTagStorageTime, stats.storage_time_s);
  PutFieldVarint(&meta, kTagPuts, stats.puts);
  PutFieldVarint(&meta, kTagGets, stats.gets);
  return Assemble(0, meta, {});
}

std::string EncodeCostResponse(double cost_s) {
  std::string meta;
  PutFieldF64(&meta, kTagCost, cost_s);
  return Assemble(0, meta, {});
}

std::string EncodeMigrateResponse(const MigrateBatchResult& result) {
  std::string meta;
  PutFieldVarint(&meta, kTagApplied, result.applied_versions);
  PutFieldVarint(&meta, kTagSkipped, result.skipped_versions);
  return Assemble(0, meta, {});
}

Status DecodeResponseStatus(std::string_view message, std::string_view* rest) {
  uint8_t code = 0;
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(Disassemble(message, &code, &meta, &body));
  if (code == 0) {
    // meta and body are contiguous views into `message`.
    *rest = std::string_view(meta.data(), meta.size() + body.size());
    return Status::Ok();
  }
  std::string error_message = "remote error";
  FieldReader reader(meta);
  while (reader.Next()) {
    if (reader.tag() == kTagErrMessage) {
      error_message.assign(reader.bytes());
    }
  }
  return Status(static_cast<StatusCode>(code), std::move(error_message));
}

namespace {

/// Shared ok-path split: status check, then meta/body views.
Status SplitOkResponse(std::string_view message, std::string_view* meta,
                       std::string_view* body) {
  uint8_t code = 0;
  MLCASK_RETURN_IF_ERROR(Disassemble(message, &code, meta, body));
  if (code != 0) {
    std::string_view unused;
    return DecodeResponseStatus(message, &unused);
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::string_view> DecodeDataResponse(std::string_view message) {
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(SplitOkResponse(message, &meta, &body));
  return body;  // zero copy: a view into the receive buffer
}

StatusOr<PutResult> DecodePutResponse(std::string_view message) {
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(SplitOkResponse(message, &meta, &body));
  return DecodePutResultMeta(meta);
}

StatusOr<std::vector<PutResult>> DecodePutManyResponse(
    std::string_view message, size_t expected) {
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(SplitOkResponse(message, &meta, &body));
  std::vector<PutResult> results;
  results.reserve(expected);
  while (!body.empty()) {
    uint64_t len = 0;
    if (!GetVarint(&body, &len) || body.size() < len) {
      return Status::Corruption("put_many response result truncated");
    }
    MLCASK_ASSIGN_OR_RETURN(PutResult result,
                            DecodePutResultMeta(body.substr(0, len)));
    results.push_back(result);
    body.remove_prefix(len);
  }
  if (results.size() != expected) {
    return Status::Corruption("put_many response result count mismatch");
  }
  return results;
}

StatusOr<bool> DecodeHasResponse(std::string_view message) {
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(SplitOkResponse(message, &meta, &body));
  FieldReader reader(meta);
  while (reader.Next()) {
    if (reader.tag() == kTagHas) return reader.varint() != 0;
  }
  return Status::Corruption("has_version response lacks an answer");
}

StatusOr<uint64_t> DecodeFreedResponse(std::string_view message) {
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(SplitOkResponse(message, &meta, &body));
  FieldReader reader(meta);
  while (reader.Next()) {
    if (reader.tag() == kTagFreed) return reader.varint();
  }
  return Status::Corruption("delete_version response lacks freed bytes");
}

StatusOr<std::vector<Hash256>> DecodeVersionsResponse(
    std::string_view message) {
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(SplitOkResponse(message, &meta, &body));
  if (body.size() % 32 != 0) {
    return Status::Corruption("versions response is not a multiple of 32");
  }
  std::vector<Hash256> ids(body.size() / 32);
  for (size_t i = 0; i < ids.size(); ++i) {
    std::memcpy(ids[i].bytes.data(), body.data() + i * 32, 32);
  }
  return ids;
}

StatusOr<std::vector<std::pair<std::string, Hash256>>> DecodeEntriesResponse(
    std::string_view message) {
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(SplitOkResponse(message, &meta, &body));
  std::vector<std::pair<std::string, Hash256>> entries;
  while (!body.empty()) {
    uint64_t key_len = 0;
    // Checked without addition: key_len + 32 could wrap for a hostile varint.
    if (!GetVarint(&body, &key_len) || body.size() < 32 ||
        body.size() - 32 < key_len) {
      return Status::Corruption("list_all_versions entry truncated");
    }
    Hash256 id;
    std::memcpy(id.bytes.data(), body.data() + key_len, 32);
    entries.emplace_back(std::string(body.substr(0, key_len)), id);
    body.remove_prefix(key_len + 32);
  }
  return entries;
}

StatusOr<EngineStats> DecodeStatsResponse(std::string_view message) {
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(SplitOkResponse(message, &meta, &body));
  EngineStats stats;
  FieldReader reader(meta);
  while (reader.Next()) {
    switch (reader.tag()) {
      case kTagLogical:
        stats.logical_bytes = reader.varint();
        break;
      case kTagPhysical:
        stats.physical_bytes = reader.varint();
        break;
      case kTagStorageTime:
        stats.storage_time_s = reader.f64();
        break;
      case kTagPuts:
        stats.puts = reader.varint();
        break;
      case kTagGets:
        stats.gets = reader.varint();
        break;
      default:
        break;
    }
  }
  if (reader.malformed()) {
    return Status::Corruption("stats response meta malformed");
  }
  return stats;
}

StatusOr<double> DecodeCostResponse(std::string_view message) {
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(SplitOkResponse(message, &meta, &body));
  FieldReader reader(meta);
  while (reader.Next()) {
    if (reader.tag() == kTagCost) return reader.f64();
  }
  return Status::Corruption("read_cost response lacks a cost");
}

StatusOr<MigrateBatchResult> DecodeMigrateResponse(std::string_view message) {
  std::string_view meta;
  std::string_view body;
  MLCASK_RETURN_IF_ERROR(SplitOkResponse(message, &meta, &body));
  MigrateBatchResult result;
  bool saw_applied = false;
  FieldReader reader(meta);
  while (reader.Next()) {
    switch (reader.tag()) {
      case kTagApplied:
        result.applied_versions = reader.varint();
        saw_applied = true;
        break;
      case kTagSkipped:
        result.skipped_versions = reader.varint();
        break;
      default:
        break;
    }
  }
  if (reader.malformed() || !saw_applied) {
    return Status::Corruption("migrate_batch response lacks counters");
  }
  return result;
}

// --- server dispatch --------------------------------------------------------

std::string DispatchBinary(StorageEngine* engine, std::string_view message) {
  auto request = DecodeRequest(message);
  if (!request.ok()) return EncodeErrorResponse(request.status());

  switch (request->method) {
    case Method::kPut: {
      // request->body is a view into the receive buffer: the artifact bytes
      // reach the engine without ever being copied or re-encoded.
      auto result = engine->Put(std::string(request->key), request->body);
      if (!result.ok()) return EncodeErrorResponse(result.status());
      return EncodePutResponse(*result);
    }
    case Method::kPutMany: {
      std::vector<PutRequest> batch;
      batch.reserve(request->batch.size());
      for (const auto& [key, data] : request->batch) {
        batch.push_back({std::string(key), std::string(data)});
      }
      auto results = engine->PutMany(batch);
      if (!results.ok()) return EncodeErrorResponse(results.status());
      return EncodePutManyResponse(*results);
    }
    case Method::kGet: {
      auto data = engine->Get(std::string(request->key));
      if (!data.ok()) return EncodeErrorResponse(data.status());
      return EncodeDataResponse(*data);
    }
    case Method::kGetVersion: {
      auto data = engine->GetVersion(request->id);
      if (!data.ok()) return EncodeErrorResponse(data.status());
      return EncodeDataResponse(*data);
    }
    case Method::kHasVersion:
      return EncodeHasResponse(engine->HasVersion(request->id));
    case Method::kVersions:
      return EncodeVersionsResponse(
          engine->Versions(std::string(request->key)));
    case Method::kListAllVersions:
      return EncodeEntriesResponse(engine->ListAllVersions());
    case Method::kDeleteVersion: {
      auto freed = engine->DeleteVersion(request->id);
      if (!freed.ok()) return EncodeErrorResponse(freed.status());
      return EncodeFreedResponse(*freed);
    }
    case Method::kStats:
      return EncodeStatsResponse(engine->stats());
    case Method::kName:
      return EncodeDataResponse(engine->Name());
    case Method::kReadCost:
      return EncodeCostResponse(engine->ReadCost(request->bytes));
    case Method::kMigrateBatch: {
      std::vector<MigrateKeyVersions> batch;
      batch.reserve(request->migrate.size());
      for (const Request::MigrateEntry& entry : request->migrate) {
        MigrateKeyVersions kv;
        kv.key.assign(entry.key);
        kv.versions.reserve(entry.versions.size());
        for (const auto& [id, data] : entry.versions) {
          kv.versions.emplace_back(id, std::string(data));
        }
        batch.push_back(std::move(kv));
      }
      auto result = engine->MigrateBatch(batch);
      if (!result.ok()) return EncodeErrorResponse(result.status());
      return EncodeMigrateResponse(*result);
    }
    case Method::kCopyVersion: {
      auto result = engine->CopyVersion(std::string(request->key), request->id);
      if (!result.ok()) return EncodeErrorResponse(result.status());
      return EncodePutResponse(*result);
    }
  }
  return EncodeErrorResponse(
      Status::Unimplemented("unknown binary storage opcode"));
}

// --- chunk streaming --------------------------------------------------------

const Chunker& WireChunker() {
  // Larger than the storage engine's chunking: the wire moves whole
  // artifacts, so the sweet spot trades per-frame overhead against dedup
  // granularity at transfer sizes (64 KiB average).
  static const GearChunker chunker(16u << 10, 64u << 10, 256u << 10);
  return chunker;
}

std::string EncodeChunkEnd(uint64_t total_bytes, uint64_t chunk_count,
                           const Hash256& manifest) {
  std::string out;
  PutVarint(&out, total_bytes);
  PutVarint(&out, chunk_count);
  out.append(reinterpret_cast<const char*>(manifest.bytes.data()),
             manifest.bytes.size());
  return out;
}

Status DecodeChunkEnd(std::string_view payload, uint64_t* total_bytes,
                      uint64_t* chunk_count, Hash256* manifest) {
  if (!GetVarint(&payload, total_bytes) ||
      !GetVarint(&payload, chunk_count) ||
      payload.size() != manifest->bytes.size()) {
    return Status::Corruption("malformed chunk-end frame");
  }
  std::memcpy(manifest->bytes.data(), payload.data(),
              manifest->bytes.size());
  return Status::Ok();
}

Hash256 WireChunkAddress(std::string_view chunk) {
  return Chunk::ComputeHash(ChunkType::kData, chunk);
}

Hash256 WireChunkCache::Add(std::string_view chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  Hash256 address = store_.Put(ChunkType::kData, chunk);
  retained_.push_back(address);
  // Evict oldest references once over capacity — by physical bytes, and also
  // by reference count: under heavy dedup every Add is a refcount bump with
  // no physical growth, so a bytes-only cap would let retained_ grow without
  // bound. Deduped entries hold extra refs on the same chunk, so physical
  // bytes only drop when the last retained reference goes.
  const size_t max_entries =
      std::max<size_t>(1, max_bytes_ / kMinRetainedChunkBytes);
  while ((store_.stats().physical_bytes > max_bytes_ ||
          retained_.size() - evict_at_ > max_entries) &&
         evict_at_ < retained_.size()) {
    (void)store_.Release(retained_[evict_at_++]);
  }
  if (evict_at_ > 0 &&
      (evict_at_ == retained_.size() || evict_at_ >= max_entries)) {
    retained_.erase(retained_.begin(),
                    retained_.begin() + static_cast<ptrdiff_t>(evict_at_));
    evict_at_ = 0;
  }
  return address;
}

ChunkStoreStats WireChunkCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_.stats();
}

Status StreamAssembler::OnChunk(uint64_t id, std::string_view chunk) {
  Stream& stream = streams_[id];
  if (stream.data.size() + chunk.size() > max_total_) {
    streams_.erase(id);
    return Status::Corruption("chunk stream exceeds the frame payload limit");
  }
  const Hash256 address =
      cache_ != nullptr ? cache_->Add(chunk) : WireChunkAddress(chunk);
  stream.manifest.Update(address.bytes.data(), address.bytes.size());
  stream.data.append(chunk);
  stream.chunks += 1;
  return Status::Ok();
}

StatusOr<std::string> StreamAssembler::OnEnd(uint64_t id,
                                             std::string_view end_payload) {
  uint64_t total_bytes = 0;
  uint64_t chunk_count = 0;
  Hash256 manifest;
  MLCASK_RETURN_IF_ERROR(
      DecodeChunkEnd(end_payload, &total_bytes, &chunk_count, &manifest));
  auto it = streams_.find(id);
  if (it == streams_.end()) {
    return Status::Corruption("chunk-end frame without a chunk stream");
  }
  Stream stream = std::move(it->second);
  streams_.erase(it);
  if (stream.chunks != chunk_count ||
      stream.data.size() != total_bytes ||
      stream.manifest.Finish() != manifest) {
    return Status::Corruption(
        "chunk stream failed integrity check (manifest mismatch)");
  }
  return std::move(stream.data);
}

}  // namespace mlcask::storage::wire
