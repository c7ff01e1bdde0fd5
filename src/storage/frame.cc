#include "storage/frame.h"

#include <cstring>

namespace mlcask::storage {

namespace {

constexpr size_t kHeaderSize = 14;

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

/// Writes the header with an explicit version byte; only AppendFrame's
/// test-facing override ever passes anything but kWireVersion.
void AppendHeader(std::string* out, FrameType type, uint64_t id,
                  uint32_t payload_size, uint8_t version) {
  out->reserve(out->size() + kHeaderSize);
  out->push_back(static_cast<char>(version));
  out->push_back(static_cast<char>(type));
  PutU64(out, id);
  PutU32(out, payload_size);
}

}  // namespace

void AppendFrameHeader(std::string* out, FrameType type, uint64_t id,
                       uint32_t payload_size) {
  AppendHeader(out, type, id, payload_size, kWireVersion);
}

void AppendFrame(std::string* out, FrameType type, uint64_t id,
                 std::string_view payload, uint8_t version) {
  out->reserve(out->size() + kHeaderSize + payload.size());
  AppendHeader(out, type, id, static_cast<uint32_t>(payload.size()), version);
  out->append(payload);
}

std::string EncodeErrorPayload(const Status& status) {
  return std::to_string(static_cast<int>(status.code())) + ":" +
         status.message();
}

Status DecodeErrorPayload(std::string_view payload) {
  size_t colon = payload.find(':');
  if (colon == std::string_view::npos) {
    return Status::Corruption("malformed transport error frame");
  }
  int code = 0;
  for (char c : payload.substr(0, colon)) {
    if (c < '0' || c > '9') {
      return Status::Corruption("malformed transport error frame code");
    }
    code = code * 10 + (c - '0');
    if (code > 255) {
      return Status::Corruption("transport error frame code out of range");
    }
  }
  if (code == 0) {
    // An error frame must carry an error; a peer claiming "ok" is confused.
    return Status::Corruption("transport error frame with ok code");
  }
  return Status(static_cast<StatusCode>(code),
                std::string(payload.substr(colon + 1)));
}

void FrameDecoder::Compact() {
  if (pos_ == 0) return;
  if (pos_ >= buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
    return;
  }
  // Amortized O(1): only move the remainder once the dead prefix outweighs
  // it, so N small frames cost one move, not N.
  if (pos_ >= buffer_.size() - pos_) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
}

StatusOr<bool> FrameDecoder::Next(Frame* out) {
  if (!fatal_.ok()) return fatal_;
  if (buffer_.size() - pos_ < kHeaderSize) return false;
  const char* h = buffer_.data() + pos_;
  const uint8_t version = static_cast<uint8_t>(h[0]);
  const uint8_t type = static_cast<uint8_t>(h[1]);
  const uint64_t id = GetU64(h + 2);
  const uint32_t length = GetU32(h + 10);
  if (length > max_payload_) {
    fatal_ = Status::Corruption(
        "oversized frame: " + std::to_string(length) + " bytes (max " +
        std::to_string(max_payload_) + ")");
    return fatal_;
  }
  if (version != kWireVersion) {
    // Header layout is frozen, so the id is trustworthy even across
    // versions — the caller can answer the right request. Consume the frame
    // so one mismatched message doesn't wedge the whole stream, then report.
    if (buffer_.size() - pos_ < kHeaderSize + length) return false;
    out->type = FrameType::kError;
    out->id = id;
    out->payload.clear();
    pos_ += kHeaderSize + length;
    Compact();
    return Status::Unimplemented(
        "peer speaks wire-format version " + std::to_string(version) +
        ", this build speaks " + std::to_string(kWireVersion));
  }
  if (type > static_cast<uint8_t>(FrameType::kChunkEnd)) {
    fatal_ = Status::Corruption("unknown frame type " + std::to_string(type));
    return fatal_;
  }
  if (buffer_.size() - pos_ < kHeaderSize + length) return false;
  out->type = static_cast<FrameType>(type);
  out->id = id;
  out->payload.assign(buffer_, pos_ + kHeaderSize, length);
  pos_ += kHeaderSize + length;
  Compact();
  return true;
}

Status FrameDecoder::Finish() const {
  if (!fatal_.ok()) return fatal_;
  if (buffer_.size() > pos_) {
    return Status::Corruption("stream ended inside a frame (" +
                              std::to_string(buffer_.size() - pos_) +
                              " trailing bytes)");
  }
  return Status::Ok();
}

}  // namespace mlcask::storage
