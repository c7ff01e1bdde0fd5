#include "pipeline/artifact_cache.h"

#include <algorithm>

namespace mlcask::pipeline {

ArtifactCache::Lease::~Lease() {
  if (cache_ != nullptr) cache_->Abandon(key_);
}

uint64_t ArtifactCache::EntryBytes(const ArtifactEntry& entry) {
  uint64_t bytes = entry.table.ByteSize() + sizeof(ArtifactEntry);
  bytes += entry.metric.size();
  for (const auto& [name, value] : entry.metrics) {
    (void)value;
    bytes += name.size() + sizeof(double) + 16;  // node overhead estimate
  }
  return bytes;
}

ArtifactCache::EntryPtr ArtifactCache::Find(const Hash256& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it == slots_.end() || it->second.entry == nullptr) return nullptr;
  lru_.splice(lru_.end(), lru_, it->second.lru);
  return it->second.entry;
}

ArtifactCache::Acquired ArtifactCache::Acquire(const Hash256& key) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = slots_.find(key);
    Acquired acquired;
    if (it == slots_.end()) {
      slots_.emplace(key, Slot());  // pending under the new lease
      acquired.lease.reset(new Lease(this, key));
      return acquired;
    }
    if (it->second.entry != nullptr) {
      lru_.splice(lru_.end(), lru_, it->second.lru);
      acquired.entry = it->second.entry;
      return acquired;
    }
    // Pending under another worker's lease: wait for Fulfill (entry set) or
    // Abandon (slot erased, in which case this worker may claim it).
    ready_cv_.wait(lock);
  }
}

ArtifactCache::EntryPtr ArtifactCache::Publish(const Hash256& key,
                                               ArtifactEntry entry) {
  EntryPtr stored = std::make_shared<const ArtifactEntry>(std::move(entry));
  const uint64_t nbytes = EntryBytes(*stored);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Make room first so the resident total stays under the cap after the
    // publish. The cache hands out copies only under this lock, so a
    // use_count of 1 means no reader pins the entry and none can start to.
    // If everything left is pinned, the cap yields.
    auto it = lru_.begin();
    while (options_.max_bytes > 0 && it != lru_.end() &&
           stats_.bytes + nbytes > options_.max_bytes) {
      auto victim = slots_.find(*it++);
      if (victim->second.entry.use_count() > 1) continue;  // pinned
      stats_.bytes -= victim->second.bytes;
      stats_.evictions += 1;
      lru_.erase(victim->second.lru);
      slots_.erase(victim);
    }
    Slot& slot = slots_[key];
    if (slot.entry != nullptr) {  // overwrite: retire the old entry
      stats_.bytes -= slot.bytes;
      lru_.erase(slot.lru);
    }
    slot.entry = stored;
    slot.bytes = nbytes;
    slot.lru = lru_.insert(lru_.end(), key);
    stats_.bytes += nbytes;
    stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes);
    stats_.insertions += 1;
    stats_.largest_entry_bytes = std::max(stats_.largest_entry_bytes, nbytes);
  }
  ready_cv_.notify_all();
  return stored;
}

ArtifactCache::EntryPtr ArtifactCache::Fulfill(Lease* lease,
                                               ArtifactEntry entry) {
  EntryPtr stored = Publish(lease->key_, std::move(entry));
  lease->cache_ = nullptr;  // disarm the destructor
  return stored;
}

ArtifactCache::EntryPtr ArtifactCache::Insert(const Hash256& key,
                                              ArtifactEntry entry) {
  return Publish(key, std::move(entry));
}

void ArtifactCache::Abandon(const Hash256& key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(key);
    if (it != slots_.end() && it->second.entry == nullptr) slots_.erase(it);
  }
  ready_cv_.notify_all();
}

size_t ArtifactCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ArtifactCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Hash256& key : lru_) {
    auto it = slots_.find(key);
    stats_.bytes -= it->second.bytes;
    slots_.erase(it);
  }
  lru_.clear();
}

}  // namespace mlcask::pipeline
