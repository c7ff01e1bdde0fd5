#ifndef MLCASK_STORAGE_FRAME_H_
#define MLCASK_STORAGE_FRAME_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace mlcask::storage {

/// Wire frame carrying one multiplexed RPC message. Layout (little-endian),
/// 14 header bytes followed by the payload:
///
///   byte  0      wire-format version
///   byte  1      frame type: 0 = data, 1 = transport error, 2 = chunk,
///                3 = chunk end
///   bytes 2..9   correlation id (uint64) — pairs a response to its request
///   bytes 10..13 payload length (uint32)
///
/// The HEADER layout is frozen forever; the version byte governs only the
/// payload semantics. That way a peer speaking any other version still
/// parses our headers, and we can answer its (to us unreadable) requests
/// with a correctly-correlated Unimplemented error frame instead of
/// mis-parsing the stream — the failure is a clear status, never silent
/// corruption.
///
/// Version history:
///   1  JSON payloads with hex-encoded binary. Retired: no build speaks it.
///   2  Binary zero-copy codec (storage/wire_codec.h) plus CHUNK/CHUNK_END
///      streaming frames for large values.
///
/// This build speaks exactly one version; a frame in any other one is
/// answered Unimplemented.
inline constexpr uint8_t kWireVersion = 2;

/// Frames above this payload size are rejected as corrupt before any
/// allocation: a garbled length field must not make the reader try to buffer
/// gigabytes. Generous for real traffic (merge winners are a few MiB).
inline constexpr uint32_t kMaxFramePayload = 256u << 20;  // 256 MiB

enum class FrameType : uint8_t {
  kData = 0,
  /// Payload is "<code>:<message>" describing a transport-level Status the
  /// peer could not express as an application response (e.g. version skew).
  kError = 1,
  /// One fixed-size slice of a large message, sharing the correlation id
  /// with its siblings; the first also declares the message's size.
  kChunk = 2,
  /// Terminates a chunk stream: payload is wire::EncodeChunkEnd() — the
  /// SHA-256 of the message, or of the head of a message whose body its
  /// chunk recipe checks, so every byte is integrity-checked end to end.
  kChunkEnd = 3,
};

struct Frame {
  FrameType type = FrameType::kData;
  uint64_t id = 0;
  std::string payload;
};

/// A frame whose payload is a view into the decoder's buffer, valid until
/// the decoder's next ReadSpace() or Feed().
struct FrameView {
  FrameType type = FrameType::kData;
  uint64_t id = 0;
  std::string_view payload;
};

/// Appends one 14-byte frame header (no payload) to `out` — the scatter-
/// gather send paths pair it with the payload in an iovec instead of
/// coalescing them into one buffer.
void AppendFrameHeader(std::string* out, FrameType type, uint64_t id,
                       uint32_t payload_size);

/// Appends one fully encoded frame to `out`. `version` is overridable so
/// tests can forge mismatched peers; production callers never pass it.
void AppendFrame(std::string* out, FrameType type, uint64_t id,
                 std::string_view payload, uint8_t version = kWireVersion);

/// Encodes a transport-level error as an error frame payload / decodes it
/// back. A payload that does not parse decodes as Corruption.
std::string EncodeErrorPayload(const Status& status);
Status DecodeErrorPayload(std::string_view payload);

/// Incremental frame parser for one byte stream. A reader recv()s straight
/// into the decoder's buffer (ReadSpace, then CommitRead); Next() extracts
/// complete frames. All failure modes surface as statuses — the decoder
/// never throws, never over-reads, and never buffers an oversized frame:
///
///   truncated   Next() returns false (need more bytes); Finish() at stream
///               end reports Corruption if a partial frame is buffered
///   oversized   length field beyond max_payload -> Corruption
///   bad type    unknown frame type -> Corruption
///   version     any version other than kWireVersion -> Unimplemented,
///               with out->id still filled from the (frozen-layout) header
///               so a server can answer the right request with an error
///               frame
///
/// Corruption errors are STICKY — the stream is unrecoverable and further
/// Next() calls return the same error. The version-mismatch Unimplemented
/// is NOT: the offending frame is consumed whole (its length field is
/// trustworthy, the header layout being frozen) and the stream stays
/// decodable, so one message in another version never takes down a session.
///
/// Buffering: received bytes land where they are parsed, and consumed
/// frames only advance a read cursor. The unconsumed tail (a partial frame)
/// is moved to the front only when the next read would not fit behind it,
/// and a growing buffer keeps room for four reads past the live bytes, so a
/// partial frame moves at most once per several reads. peak_buffer_bytes()
/// reports the high-water mark of live buffered bytes — the number the
/// chunk-streaming acceptance bound (receive buffer is O(chunk), not
/// O(value)) is asserted against.
class FrameDecoder {
 public:
  /// The least free space a reader asks for before each read.
  static constexpr size_t kReadBytes = 64u << 10;

  explicit FrameDecoder(uint32_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Free space at the end of the buffer, at least `min_bytes` long, for
  /// the next read. Views from earlier Next() calls stay valid until this
  /// is called.
  struct Span {
    char* data;
    size_t size;
  };
  Span ReadSpace(size_t min_bytes = kReadBytes);
  /// Marks the first `bytes` of the last ReadSpace() as received.
  void CommitRead(size_t bytes);

  /// Copies `bytes` in: ReadSpace, memcpy, CommitRead.
  void Feed(std::string_view bytes);

  /// True: one frame extracted into *out. False: need more bytes.
  /// Error: stream corrupt/unsupported (see above). The view form copies
  /// nothing: a receiver moves each payload byte once, where it belongs.
  StatusOr<bool> Next(FrameView* out);
  StatusOr<bool> Next(Frame* out);

  /// Call at orderly stream end: Ok if no partial frame was buffered.
  Status Finish() const;

  /// High-water mark of live (unconsumed) buffered bytes.
  uint64_t peak_buffer_bytes() const { return peak_buffer_bytes_; }
  /// Bytes moved inside the decoder to make room for reads: partial frames
  /// moved to the front, and live bytes carried into a grown buffer.
  uint64_t moved_bytes() const { return moved_bytes_; }

 private:
  uint32_t max_payload_;
  std::unique_ptr<char[]> buffer_;  ///< Uninitialized: reads fill it.
  size_t capacity_ = 0;
  size_t pos_ = 0;  ///< Read cursor: bytes before it are consumed.
  size_t end_ = 0;  ///< Bytes before it are received.
  uint64_t peak_buffer_bytes_ = 0;
  uint64_t moved_bytes_ = 0;
  Status fatal_;  ///< Sticky decode failure.
};

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_FRAME_H_
