#ifndef MLCASK_STORAGE_BLOB_H_
#define MLCASK_STORAGE_BLOB_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/sha256.h"
#include "common/status.h"
#include "storage/chunk_store.h"
#include "storage/chunker.h"

namespace mlcask::storage {

/// Handle to a stored blob: the address of its index chunk plus sizes.
struct BlobRef {
  Hash256 root;            ///< Address of the index chunk.
  uint64_t size = 0;       ///< Total payload bytes.
  uint32_t num_chunks = 0; ///< Number of data chunks.

  bool operator==(const BlobRef& other) const {
    return root == other.root && size == other.size &&
           num_chunks == other.num_chunks;
  }
};

/// Result of a blob write, including how many bytes were new to the store
/// (used by the storage-time model: de-duplicated bytes cost no transfer).
struct BlobWriteInfo {
  BlobRef ref;
  uint64_t new_physical_bytes = 0;  ///< Bytes not already present.
  uint64_t dedup_bytes = 0;         ///< Bytes de-duplicated against the store.
};

/// The CPU-heavy half of a blob write — chunk boundaries, per-chunk hashes,
/// and the serialized index chunk with its hash. A pure function of `data`,
/// so a storage engine can compute it OUTSIDE its write lock and only
/// serialize the cheap map insertions (CommitBlob).
struct BlobPlan {
  std::vector<std::pair<size_t, size_t>> pieces;  ///< (offset, length).
  std::vector<Hash256> piece_hashes;
  std::string index;
  Hash256 index_hash;
};
BlobPlan PlanBlob(const Chunker& chunker, std::string_view data);

/// The insertion half: stores the planned chunks and index. The caller must
/// hold whatever lock guards `store`. `data` must be the same bytes the
/// plan was computed from.
BlobWriteInfo CommitBlob(ChunkStore* store, const BlobPlan& plan,
                         std::string_view data);

/// Writes `data` through `chunker` into `store` as data chunks plus one index
/// chunk (a single-level Merkle list: 32-byte child hash + 8-byte length per
/// entry). Identical regions of different blobs share data chunks; identical
/// blobs share everything including the index. Equivalent to
/// CommitBlob(store, PlanBlob(chunker, data), data).
BlobWriteInfo WriteBlob(ChunkStore* store, const Chunker& chunker,
                        std::string_view data);

/// Reassembles a blob. Returns Corruption if the index is malformed and
/// NotFound if any chunk is missing.
StatusOr<std::string> ReadBlob(const ChunkStore& store, const BlobRef& ref);

/// Lists the data-chunk addresses of a blob in order.
StatusOr<std::vector<Hash256>> ListBlobChunks(const ChunkStore& store,
                                              const BlobRef& ref);

/// Adds one reference to every chunk of the blob (index last) without
/// touching its bytes: the store-level half of a copy that shares the
/// source's chunks. Every chunk is checked to exist before any reference is
/// taken, so a corrupt blob fails with Corruption and leaks nothing.
Status RetainBlob(ChunkStore* store, const BlobRef& ref);

/// Releases one reference on every chunk of the blob (index last).
Status ReleaseBlob(ChunkStore* store, const BlobRef& ref);

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_BLOB_H_
