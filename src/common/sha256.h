#ifndef MLCASK_COMMON_SHA256_H_
#define MLCASK_COMMON_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mlcask {

/// A 256-bit content hash. Value type: comparable, hashable, hex-printable.
/// Used for chunk addressing in the storage engine, schema hashing (Sec. IV-B
/// of the paper), and commit ids.
struct Hash256 {
  std::array<uint8_t, 32> bytes{};

  /// Lower-case hex, 64 characters.
  std::string ToHex() const;
  /// Short prefix (first `n` hex chars) for human-readable display.
  std::string ShortHex(size_t n = 12) const;

  /// Parses 64 hex characters; returns false on malformed input.
  static bool FromHex(std::string_view hex, Hash256* out);

  bool operator==(const Hash256& other) const { return bytes == other.bytes; }
  bool operator!=(const Hash256& other) const { return bytes != other.bytes; }
  bool operator<(const Hash256& other) const { return bytes < other.bytes; }

  bool IsZero() const;
};

/// Incremental SHA-256 (FIPS 180-4). Self-contained so the library has no
/// external crypto dependency. Whole blocks go through the x86 SHA
/// extensions when CPUID reports them and through portable rounds otherwise;
/// both give the same digests.
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(const void* data, size_t len);
  void Update(std::string_view s) { Update(s.data(), s.size()); }

  /// Finalizes and returns the digest. The object must be Reset() before
  /// further use.
  Hash256 Finish();

  /// One-shot convenience.
  static Hash256 Digest(std::string_view data);
  static Hash256 Digest(const void* data, size_t len);

 private:
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

/// std::hash support so Hash256 can key unordered containers.
struct Hash256Hasher {
  size_t operator()(const Hash256& h) const {
    size_t v;
    static_assert(sizeof(v) <= sizeof(h.bytes));
    __builtin_memcpy(&v, h.bytes.data(), sizeof(v));
    return v;
  }
};

}  // namespace mlcask

#endif  // MLCASK_COMMON_SHA256_H_
