#ifndef MLCASK_STORAGE_WIRE_CODEC_H_
#define MLCASK_STORAGE_WIRE_CODEC_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sha256.h"
#include "common/status.h"
#include "storage/chunk_store.h"
#include "storage/chunker.h"
#include "storage/storage_engine.h"

namespace mlcask::storage::wire {

// ---------------------------------------------------------------------------
// Binary wire codec (wire version 2).
//
// Every message is:
//
//   byte 0        magic 0xBC — one byte tells a binary message from any
//                 other input, which the service rejects typed
//   byte 1        request: opcode (Method); response: status code (0 = ok)
//   varint        meta section length
//   meta section  tagged fields, each: key varint ((tag << 2) | kind), then
//                   kind 0 varint   value varint
//                   kind 1 bytes    varint length + bytes
//                   kind 2 hash     32 raw bytes
//                   kind 3 f64      8 bytes little-endian IEEE double
//                 unknown tags are skipped (forward compatibility)
//   body          the REST of the message, verbatim — artifact bytes live
//                 here, so encoding a put is one memcpy and decoding returns
//                 a string_view into the receive buffer: no hex doubling, no
//                 re-parse, no copy on proxy hops
// ---------------------------------------------------------------------------

inline constexpr uint8_t kBinaryMagic = 0xBC;

/// True when `message` starts with the binary-codec magic. The empty string
/// is not a binary message.
inline bool IsBinaryMessage(std::string_view message) {
  return !message.empty() &&
         static_cast<uint8_t>(message[0]) == kBinaryMagic;
}

/// RPC opcodes, one per StorageEngine method. Values are frozen on the wire.
enum class Method : uint8_t {
  kPut = 1,
  kPutMany = 2,
  kGet = 3,
  kGetVersion = 4,
  kHasVersion = 5,
  kVersions = 6,
  kListAllVersions = 7,
  kDeleteVersion = 8,
  kStats = 9,
  kName = 10,
  kReadCost = 11,
  kMigrateBatch = 12,
};

// Varint / field primitives (exposed for tests and the chunk-end codec).
void PutVarint(std::string* out, uint64_t v);
bool GetVarint(std::string_view* in, uint64_t* v);

// --- meta-section primitives (shared with the service layer) ---------------
//
// Exported so higher-layer codecs (the merge service in src/service/) speak
// the exact same tagged-field format as the storage codec: same message
// shape, same field kinds, same skip-unknown-tags forward compatibility.

/// Field kinds inside a meta section; the low 2 bits of each field key.
enum class MetaKind : uint8_t {
  kVarint = 0,
  kBytes = 1,
  kHash = 2,
  kF64 = 3,
};

void PutMetaVarint(std::string* meta, uint32_t tag, uint64_t v);
void PutMetaBytes(std::string* meta, uint32_t tag, std::string_view bytes);
void PutMetaHash(std::string* meta, uint32_t tag, const Hash256& hash);
void PutMetaF64(std::string* meta, uint32_t tag, double v);

/// Assembles [magic, second byte, varint meta_len, meta, body]. The second
/// byte is the opcode on requests and the status code on responses.
std::string AssembleMessage(uint8_t second, std::string_view meta,
                            std::string_view body);

/// Splits a binary message after magic + second byte into meta and body
/// views. Views point INTO `message`.
Status DisassembleMessage(std::string_view message, uint8_t* second,
                          std::string_view* meta, std::string_view* body);

/// Pull-parser over one meta section. Unknown tags are skipped, so old
/// decoders tolerate fields a newer encoder added.
class MetaReader {
 public:
  explicit MetaReader(std::string_view meta) : rest_(meta) {}

  /// Advances to the next field. False at clean end; malformed() afterwards
  /// distinguishes truncation from exhaustion.
  bool Next();

  bool malformed() const { return malformed_; }
  uint32_t tag() const { return tag_; }
  MetaKind kind() const { return kind_; }
  uint64_t varint() const { return varint_; }
  std::string_view bytes() const { return bytes_; }
  const Hash256& hash() const { return hash_; }
  double f64() const { return f64_; }

 private:
  bool Malformed() {
    malformed_ = true;
    return false;
  }

  std::string_view rest_;
  bool malformed_ = false;
  uint32_t tag_ = 0;
  MetaKind kind_ = MetaKind::kVarint;
  uint64_t varint_ = 0;
  std::string_view bytes_;
  Hash256 hash_;
  double f64_ = 0;
};

/// Binary opcode space reserved for the service layer (src/service/):
/// requests whose second byte is >= kServiceOpcodeBase are NOT storage RPCs.
/// A combined endpoint routes them to the merge front end before
/// DispatchBinary ever sees them; DecodeRequest rejects them typed. Storage
/// Method values stay frozen at 1..12 below this line.
inline constexpr uint8_t kServiceOpcodeBase = 32;

/// Generic request meta tags honored across ALL binary request opcodes,
/// storage and service alike: ExtractReplayToken / ExtractDeadline scan any
/// binary request's meta for these, so every request codec must reserve
/// tag 5 for the idempotency token and tag 6 for the remaining deadline
/// budget (ms) — and use them for nothing else.
inline constexpr uint32_t kTagRequestReplayToken = 5;
inline constexpr uint32_t kTagRequestDeadline = 6;

// --- request encoding (client side) ---------------------------------------

/// Put: meta {key[, replay_token]}, body = artifact bytes verbatim (single
/// memcpy). A non-empty replay token marks the request idempotently
/// replayable: a server that has already answered this token returns the
/// recorded response instead of applying the mutation again (redial replay
/// after a lost response must apply once). Old servers skip the unknown tag.
std::string EncodePutRequest(std::string_view key, std::string_view data,
                             std::string_view replay_token = {});
/// PutMany: meta {count[, replay_token]}, body = count x [varint key_len,
/// key, varint data_len, data].
std::string EncodePutManyRequest(const std::vector<PutRequest>& batch,
                                 std::string_view replay_token = {});
/// Get / Versions: meta {key}.
std::string EncodeKeyRequest(Method method, std::string_view key);
/// GetVersion / HasVersion / DeleteVersion: meta {id[, replay_token]}.
std::string EncodeIdRequest(Method method, const Hash256& id,
                            std::string_view replay_token = {});
/// Stats / Name / ListAllVersions: empty meta.
std::string EncodePlainRequest(Method method);
/// ReadCost: meta {bytes}.
std::string EncodeReadCostRequest(uint64_t bytes);
/// MigrateBatch (shard rebalance): meta {count[, replay_token]}, body =
/// count x [varint key_len, key, varint version_count, version_count x
/// (32-byte id, varint data_len, data)]. Payload bytes ride the body
/// verbatim, so large batches stream as chunk frames like any other
/// oversized message. Replayable: MigrateBatch is idempotent, so a redial
/// replay answers from the ledger without re-applying.
std::string EncodeMigrateBatchRequest(
    const std::vector<MigrateKeyVersions>& batch,
    std::string_view replay_token = {});

/// A decoded request. Views point INTO the request message — zero copy; the
/// message must outlive the views.
struct Request {
  Method method = Method::kName;
  std::string_view key;
  Hash256 id;
  uint64_t bytes = 0;         ///< kReadCost operand.
  std::string_view body;      ///< kPut: artifact bytes, verbatim.
  std::string_view replay_token;  ///< Empty unless idempotently replayable.
  uint64_t deadline_ms = 0;   ///< Remaining budget stamped by the caller; 0 = none.
  std::vector<std::pair<std::string_view, std::string_view>> batch;
  /// kMigrateBatch: decoded entries; payload views point into the message.
  struct MigrateEntry {
    std::string_view key;
    std::vector<std::pair<Hash256, std::string_view>> versions;
  };
  std::vector<MigrateEntry> migrate;
};
StatusOr<Request> DecodeRequest(std::string_view message);

/// Cheap meta-only scan for the replay token of a binary request: empty when
/// absent or the message is not a well-formed binary request. The service's
/// dedup ledger consults this before the full dispatch.
std::string_view ExtractReplayToken(std::string_view message);

/// Cheap meta-only scan for the deadline stamp of a binary request: the
/// caller's remaining budget in ms, 0 when absent. Request encoders stamp it
/// from the ambient DeadlineScope; old peers skip the unknown tag, so a call
/// with no ambient budget encodes bit-identically to the previous wire rev.
uint64_t ExtractDeadline(std::string_view message);

// --- response encoding (server side) ---------------------------------------

std::string EncodeErrorResponse(const Status& status);
/// Get / GetVersion: body = data verbatim. Name: body = name bytes.
std::string EncodeDataResponse(std::string_view data);
std::string EncodePutResponse(const PutResult& result);
std::string EncodePutManyResponse(const std::vector<PutResult>& results);
std::string EncodeHasResponse(bool has);
std::string EncodeFreedResponse(uint64_t freed_bytes);
/// Versions: body = concatenated 32-byte ids.
std::string EncodeVersionsResponse(const std::vector<Hash256>& ids);
/// ListAllVersions: body = entries x [varint key_len, key, 32-byte id].
std::string EncodeEntriesResponse(
    const std::vector<std::pair<std::string, Hash256>>& entries);
std::string EncodeStatsResponse(const EngineStats& stats);
std::string EncodeCostResponse(double cost_s);
std::string EncodeMigrateResponse(const MigrateBatchResult& result);

// --- response decoding (client side) ---------------------------------------

/// Strips magic + status byte. Ok: *rest = the remainder (meta + body).
/// Error responses decode back into the exact remote Status.
Status DecodeResponseStatus(std::string_view message, std::string_view* rest);
/// Zero copy: the returned view points into `message`.
StatusOr<std::string_view> DecodeDataResponse(std::string_view message);
StatusOr<PutResult> DecodePutResponse(std::string_view message);
StatusOr<std::vector<PutResult>> DecodePutManyResponse(
    std::string_view message, size_t expected);
StatusOr<bool> DecodeHasResponse(std::string_view message);
StatusOr<uint64_t> DecodeFreedResponse(std::string_view message);
StatusOr<std::vector<Hash256>> DecodeVersionsResponse(
    std::string_view message);
StatusOr<std::vector<std::pair<std::string, Hash256>>> DecodeEntriesResponse(
    std::string_view message);
StatusOr<EngineStats> DecodeStatsResponse(std::string_view message);
StatusOr<double> DecodeCostResponse(std::string_view message);
StatusOr<MigrateBatchResult> DecodeMigrateResponse(std::string_view message);

/// Server-side dispatch of one binary request against an engine. Malformed
/// requests, and input that is not a binary message at all, produce a
/// binary error response, never a crash.
std::string DispatchBinary(StorageEngine* engine, std::string_view request);

// ---------------------------------------------------------------------------
// Chunk streaming (wire version 2): payloads at or above the threshold are
// cut by the content-defined wire chunker and sent as CHUNK frames sharing
// the correlation id, terminated by a CHUNK_END frame carrying the manifest.
// ---------------------------------------------------------------------------

/// Default payload size from which transports stream instead of sending one
/// monolithic frame.
inline constexpr size_t kDefaultChunkThreshold = 256u << 10;  // 256 KiB

/// The shared content-defined cutter for wire streaming: Gear CDC with
/// 16 KiB / 64 KiB / 256 KiB min/avg/max. Deterministic (fixed gear table),
/// so both sides of a connection — and different versions of the same
/// artifact — cut identical content into identical chunks, which is what
/// makes the receiving shard's chunk cache dedupe across versions.
const Chunker& WireChunker();

/// CHUNK_END payload: varint total_bytes, varint chunk_count, 32-byte
/// manifest (SHA-256 over the concatenated chunk addresses).
std::string EncodeChunkEnd(uint64_t total_bytes, uint64_t chunk_count,
                           const Hash256& manifest);
Status DecodeChunkEnd(std::string_view payload, uint64_t* total_bytes,
                      uint64_t* chunk_count, Hash256* manifest);

/// The address of one wire chunk (the unit the stream manifest hashes and
/// the receive-side cache dedupes on).
Hash256 WireChunkAddress(std::string_view chunk);

/// Receive-side content-addressable chunk cache: identical chunks arriving
/// on any connection — across values, versions, and clients — are hashed
/// once and counted as dedup hits. Capacity-capped FIFO so a long-lived
/// server retains recent chunks (cross-version dedup) without growing
/// without bound. Thread safe (the underlying ChunkStore's mutations are
/// externally serialized here, per its contract).
class WireChunkCache {
 public:
  explicit WireChunkCache(size_t max_bytes) : max_bytes_(max_bytes) {}

  /// Adds one chunk, returning its address. A repeat of a retained chunk is
  /// a dedup hit (refcounted, no second copy stored).
  Hash256 Add(std::string_view chunk);

  ChunkStoreStats stats() const;

 private:
  /// Accounting floor for the retained-reference cap: matches WireChunker's
  /// minimum cut size, so the FIFO holds at most max_bytes_/16KiB references
  /// even when dedup keeps physical bytes flat.
  static constexpr size_t kMinRetainedChunkBytes = 16u << 10;

  const size_t max_bytes_;
  mutable std::mutex mu_;
  ChunkStore store_;
  /// Retention order; every Add pushes one entry holding one reference.
  std::vector<Hash256> retained_;
  size_t evict_at_ = 0;  ///< Front of the FIFO within retained_.
};

/// Reassembles chunk streams, one per correlation id. OnChunk accumulates;
/// OnEnd verifies count/size/manifest and returns the whole value. Single
/// threaded per instance (each connection owns one). With a cache attached
/// every received chunk is also deposited there for cross-stream dedup.
class StreamAssembler {
 public:
  explicit StreamAssembler(size_t max_total_bytes,
                           WireChunkCache* cache = nullptr)
      : max_total_(max_total_bytes), cache_(cache) {}

  Status OnChunk(uint64_t id, std::string_view chunk);
  StatusOr<std::string> OnEnd(uint64_t id, std::string_view end_payload);

  size_t active_streams() const { return streams_.size(); }

 private:
  struct Stream {
    std::string data;
    Sha256 manifest;
    uint64_t chunks = 0;
  };

  const size_t max_total_;
  WireChunkCache* cache_;
  std::unordered_map<uint64_t, Stream> streams_;
};

}  // namespace mlcask::storage::wire

#endif  // MLCASK_STORAGE_WIRE_CODEC_H_
