#ifndef MLCASK_STORAGE_CHUNK_H_
#define MLCASK_STORAGE_CHUNK_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/sha256.h"

namespace mlcask::storage {

/// Kind tag baked into each chunk's hash so a data chunk and an index chunk
/// with identical payloads get distinct addresses (same trick as Git object
/// types / ForkBase chunk types).
enum class ChunkType : uint8_t {
  kData = 0,   ///< Raw bytes of a blob segment.
  kIndex = 1,  ///< Concatenated child entries of a blob (Merkle list).
  kMeta = 2,   ///< Metafiles, commit objects, and other structured records.
};

const char* ChunkTypeName(ChunkType t);

/// An immutable content-addressed unit of storage.
class Chunk {
 public:
  /// `hash` is the chunk's address, `ComputeHash(type, data)`; the store
  /// computes it once, before it looks the chunk up.
  Chunk(ChunkType type, std::string data, const Hash256& hash)
      : type_(type), data_(std::move(data)), hash_(hash) {}

  ChunkType type() const { return type_; }
  const std::string& data() const { return data_; }
  const Hash256& hash() const { return hash_; }
  size_t size() const { return data_.size(); }

  /// The address of a chunk is SHA-256 over a one-byte type tag followed by
  /// the payload.
  static Hash256 ComputeHash(ChunkType type, std::string_view data);

 private:
  ChunkType type_;
  std::string data_;
  Hash256 hash_;
};

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_CHUNK_H_
