#include "storage/blob.h"

#include <cstring>

namespace mlcask::storage {

namespace {

constexpr size_t kIndexEntrySize = 32 + 8;  // child hash + payload length

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}

uint64_t ReadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

}  // namespace

BlobPlan PlanBlob(const Chunker& chunker, std::string_view data) {
  BlobPlan plan;
  plan.pieces = chunker.Split(data);
  plan.piece_hashes.reserve(plan.pieces.size());
  plan.index.reserve(plan.pieces.size() * kIndexEntrySize);
  for (const auto& [off, len] : plan.pieces) {
    Hash256 h = Chunk::ComputeHash(ChunkType::kData, data.substr(off, len));
    plan.index.append(reinterpret_cast<const char*>(h.bytes.data()), 32);
    AppendU64(&plan.index, len);
    plan.piece_hashes.push_back(h);
  }
  plan.index_hash = Chunk::ComputeHash(ChunkType::kIndex, plan.index);
  return plan;
}

StatusOr<BlobPlan> PlanFromRecipe(std::string_view index,
                                  std::string_view data) {
  if (index.size() % kIndexEntrySize != 0) {
    return Status::InvalidArgument(
        "recipe index of " + std::to_string(index.size()) +
        " bytes is not a whole number of entries");
  }
  const size_t n = index.size() / kIndexEntrySize;
  BlobPlan plan;
  plan.pieces.reserve(n);
  size_t offset = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t len = ReadU64(index.data() + i * kIndexEntrySize + 32);
    if (len == 0 || len > kStoreChunkMaxBytes ||
        (i + 1 < n && len < kStoreChunkMinBytes)) {
      return Status::InvalidArgument("recipe piece " + std::to_string(i) +
                                     " has an illegal length " +
                                     std::to_string(len));
    }
    if (len > data.size() - offset) {
      return Status::InvalidArgument("recipe pieces overrun the " +
                                     std::to_string(data.size()) +
                                     "-byte value");
    }
    plan.pieces.emplace_back(offset, static_cast<size_t>(len));
    offset += len;
  }
  if (offset != data.size()) {
    return Status::InvalidArgument(
        "recipe pieces cover " + std::to_string(offset) + " of " +
        std::to_string(data.size()) + " bytes");
  }
  plan.piece_hashes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& [off, len] = plan.pieces[i];
    const Hash256 h =
        Chunk::ComputeHash(ChunkType::kData, data.substr(off, len));
    if (std::memcmp(h.bytes.data(), index.data() + i * kIndexEntrySize, 32) !=
        0) {
      return Status::Corruption("recipe piece " + std::to_string(i) +
                                " does not match its address");
    }
    plan.piece_hashes[i] = h;
  }
  plan.index.assign(index);
  plan.index_hash = Chunk::ComputeHash(ChunkType::kIndex, plan.index);
  return plan;
}

BlobWriteInfo CommitBlob(ChunkStore* store, const BlobPlan& plan,
                         std::string_view data) {
  BlobWriteInfo info;
  for (size_t i = 0; i < plan.pieces.size(); ++i) {
    const auto& [off, len] = plan.pieces[i];
    if (store->PutPrehashed(plan.piece_hashes[i], ChunkType::kData,
                            data.substr(off, len))) {
      info.new_physical_bytes += len;
    } else {
      info.dedup_bytes += len;
    }
  }
  if (store->PutPrehashed(plan.index_hash, ChunkType::kIndex, plan.index)) {
    info.new_physical_bytes += plan.index.size();
  } else {
    info.dedup_bytes += plan.index.size();
  }
  info.ref.root = plan.index_hash;
  info.ref.size = data.size();
  info.ref.num_chunks = static_cast<uint32_t>(plan.pieces.size());
  return info;
}

BlobWriteInfo WriteBlob(ChunkStore* store, const Chunker& chunker,
                        std::string_view data) {
  return CommitBlob(store, PlanBlob(chunker, data), data);
}

namespace {

Status ParseIndex(const Chunk& index_chunk,
                  std::vector<std::pair<Hash256, uint64_t>>* entries) {
  const std::string& index = index_chunk.data();
  if (index_chunk.type() != ChunkType::kIndex) {
    return Status::Corruption("blob root is not an index chunk");
  }
  if (index.size() % kIndexEntrySize != 0) {
    return Status::Corruption("blob index has truncated entry");
  }
  size_t n = index.size() / kIndexEntrySize;
  entries->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const char* p = index.data() + i * kIndexEntrySize;
    Hash256 h;
    std::memcpy(h.bytes.data(), p, 32);
    uint64_t len = ReadU64(p + 32);
    entries->emplace_back(h, len);
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::string> ReadBlob(const ChunkStore& store, const BlobRef& ref,
                               std::string* index) {
  MLCASK_ASSIGN_OR_RETURN(const Chunk* index_chunk, store.Get(ref.root));
  std::vector<std::pair<Hash256, uint64_t>> entries;
  MLCASK_RETURN_IF_ERROR(ParseIndex(*index_chunk, &entries));
  std::string out;
  if (index != nullptr) {
    *index = index_chunk->data();
    out.reserve(ref.size + index->size() + kReadHeadSlack);
  } else {
    out.reserve(ref.size);
  }
  for (const auto& [hash, len] : entries) {
    MLCASK_ASSIGN_OR_RETURN(const Chunk* c, store.Get(hash));
    if (c->size() != len) {
      return Status::Corruption("blob chunk length mismatch for " +
                                hash.ShortHex());
    }
    out += c->data();
  }
  if (out.size() != ref.size) {
    return Status::Corruption("blob size mismatch: expected " +
                              std::to_string(ref.size) + " got " +
                              std::to_string(out.size()));
  }
  return out;
}

StatusOr<std::vector<Hash256>> ListBlobChunks(const ChunkStore& store,
                                              const BlobRef& ref) {
  MLCASK_ASSIGN_OR_RETURN(const Chunk* index_chunk, store.Get(ref.root));
  std::vector<std::pair<Hash256, uint64_t>> entries;
  MLCASK_RETURN_IF_ERROR(ParseIndex(*index_chunk, &entries));
  std::vector<Hash256> out;
  out.reserve(entries.size());
  for (const auto& [hash, len] : entries) {
    (void)len;
    out.push_back(hash);
  }
  return out;
}

Status RetainBlob(ChunkStore* store, const BlobRef& ref) {
  MLCASK_ASSIGN_OR_RETURN(std::vector<Hash256> chunks,
                          ListBlobChunks(*store, ref));
  for (const Hash256& h : chunks) {
    if (!store->Contains(h)) {
      return Status::Corruption("blob " + ref.root.ShortHex() +
                                " references missing chunk " + h.ShortHex());
    }
  }
  for (const Hash256& h : chunks) {
    MLCASK_RETURN_IF_ERROR(store->Retain(h));
  }
  return store->Retain(ref.root);
}

Status ReleaseBlob(ChunkStore* store, const BlobRef& ref) {
  MLCASK_ASSIGN_OR_RETURN(std::vector<Hash256> chunks,
                          ListBlobChunks(*store, ref));
  for (const Hash256& h : chunks) {
    MLCASK_RETURN_IF_ERROR(store->Release(h));
  }
  return store->Release(ref.root);
}

}  // namespace mlcask::storage
