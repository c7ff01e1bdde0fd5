#include "storage/chunk_store.h"

namespace mlcask::storage {

Hash256 ChunkStore::Put(ChunkType type, std::string_view data) {
  return PutPrehashed(Chunk::ComputeHash(type, data), type, data);
}

Hash256 ChunkStore::PutPrehashed(const Hash256& hash, ChunkType type,
                                 std::string_view data) {
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  stats_.puts += 1;
  stats_.logical_bytes += data.size();
  auto it = chunks_.find(hash);
  if (it != chunks_.end()) {
    it->second.refs += 1;
    stats_.dedup_hits += 1;
    return hash;
  }
  Entry entry;
  entry.chunk = std::make_unique<Chunk>(type, std::string(data));
  entry.refs = 1;
  stats_.physical_bytes += data.size();
  stats_.distinct_chunks += 1;
  chunks_.emplace(hash, std::move(entry));
  return hash;
}

StatusOr<const Chunk*> ChunkStore::Get(const Hash256& hash) const {
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    stats_.gets += 1;
  }
  auto it = chunks_.find(hash);
  if (it == chunks_.end()) {
    return Status::NotFound("chunk " + hash.ShortHex() + " not in store");
  }
  return it->second.chunk.get();
}

bool ChunkStore::Contains(const Hash256& hash) const {
  return chunks_.find(hash) != chunks_.end();
}

Status ChunkStore::Retain(const Hash256& hash) {
  auto it = chunks_.find(hash);
  if (it == chunks_.end()) {
    return Status::NotFound("chunk " + hash.ShortHex() + " not in store");
  }
  it->second.refs += 1;
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  stats_.puts += 1;
  stats_.logical_bytes += it->second.chunk->size();
  stats_.dedup_hits += 1;
  return Status::Ok();
}

Status ChunkStore::Release(const Hash256& hash) {
  auto it = chunks_.find(hash);
  if (it == chunks_.end()) {
    return Status::NotFound("chunk " + hash.ShortHex() + " not in store");
  }
  if (--it->second.refs == 0) {
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      stats_.physical_bytes -= it->second.chunk->size();
      stats_.distinct_chunks -= 1;
    }
    chunks_.erase(it);
  }
  return Status::Ok();
}

uint64_t ChunkStore::RefCount(const Hash256& hash) const {
  auto it = chunks_.find(hash);
  return it == chunks_.end() ? 0 : it->second.refs;
}

void ChunkStore::ForEachChunk(
    const std::function<void(const Chunk&, uint64_t refs)>& fn) const {
  for (const auto& [hash, entry] : chunks_) {
    (void)hash;
    fn(*entry.chunk, entry.refs);
  }
}

Status ChunkStore::RestoreChunk(ChunkType type, std::string_view data,
                                uint64_t refs) {
  if (refs == 0) {
    return Status::InvalidArgument("restored chunk needs refs > 0");
  }
  Hash256 hash = Chunk::ComputeHash(type, data);
  if (chunks_.count(hash) != 0) {
    return Status::AlreadyExists("chunk " + hash.ShortHex() +
                                 " already present");
  }
  Entry entry;
  entry.chunk = std::make_unique<Chunk>(type, std::string(data));
  entry.refs = refs;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    stats_.physical_bytes += data.size();
    stats_.distinct_chunks += 1;
  }
  chunks_.emplace(hash, std::move(entry));
  return Status::Ok();
}

}  // namespace mlcask::storage
