#include "storage/forkbase_engine.h"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <shared_mutex>

namespace mlcask::storage {

namespace {

/// The version id is derived from the blob root plus the key so two keys
/// holding identical bytes still have distinct version ids (their chunks
/// are shared regardless); the ordinal distinguishes repeated identical
/// writes to the same key.
Hash256 VersionId(const std::string& key, const Hash256& root,
                  uint64_t ordinal) {
  Sha256 h;
  h.Update(key);
  h.Update(root.bytes.data(), root.bytes.size());
  h.Update(&ordinal, sizeof(ordinal));
  return h.Finish();
}

}  // namespace

ForkBaseEngine::ForkBaseEngine(StorageTimeModel time_model,
                               std::unique_ptr<Chunker> chunker)
    : time_model_(time_model), chunker_(std::move(chunker)) {
  if (chunker_ == nullptr) {
    chunker_ = std::make_unique<GearChunker>();
  }
}

StatusOr<PutResult> ForkBaseEngine::Put(const std::string& key,
                                        std::string_view data) {
  // Content-defined chunking and per-chunk hashing are pure functions of
  // the data — do the CPU-heavy work before taking the writer lock so
  // parallel workers only serialize on the map insertions.
  BlobPlan plan = PlanBlob(*chunker_, data);

  PutResult result;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    BlobWriteInfo info = CommitBlob(&chunks_, plan, data);

    std::vector<Hash256>& versions = keys_[key];
    const Hash256 version_id = VersionId(key, info.ref.root, versions.size());
    blobs_[version_id] = info.ref;
    versions.push_back(version_id);

    result.id = version_id;
    result.logical_bytes = data.size();
    result.new_physical_bytes = info.new_physical_bytes;
    result.deduplicated = info.new_physical_bytes == 0 && !data.empty();
    result.storage_time_s =
        time_model_.WriteSeconds(info.new_physical_bytes, data.size());
  }

  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  stats_.puts += 1;
  stats_.logical_bytes += result.logical_bytes;
  stats_.physical_bytes += result.new_physical_bytes;
  stats_.storage_time_s += result.storage_time_s;
  return result;
}

StatusOr<PutResult> ForkBaseEngine::CopyVersion(const std::string& key,
                                                const Hash256& source) {
  // A fork in ForkBase's sense: the new version shares every chunk of the
  // source, so no byte is read, chunked or hashed. A Put of the same bytes
  // would find every chunk present, so the result is its full dedup hit.
  PutResult result;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = blobs_.find(source);
    if (it == blobs_.end()) {
      return Status::NotFound("no object version " + source.ShortHex());
    }
    const BlobRef ref = it->second;
    MLCASK_RETURN_IF_ERROR(RetainBlob(&chunks_, ref));

    std::vector<Hash256>& versions = keys_[key];
    const Hash256 version_id = VersionId(key, ref.root, versions.size());
    blobs_[version_id] = ref;
    versions.push_back(version_id);

    result.id = version_id;
    result.logical_bytes = ref.size;
    result.deduplicated = ref.size != 0;
    result.storage_time_s = time_model_.WriteSeconds(0, ref.size);
  }

  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  stats_.puts += 1;
  stats_.logical_bytes += result.logical_bytes;
  stats_.storage_time_s += result.storage_time_s;
  return result;
}

StatusOr<std::string> ForkBaseEngine::Get(const std::string& key) {
  Hash256 latest;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = keys_.find(key);
    if (it == keys_.end() || it->second.empty()) {
      return Status::NotFound("no object under key '" + key + "'");
    }
    latest = it->second.back();
  }
  return GetVersion(latest);
}

StatusOr<std::string> ForkBaseEngine::GetVersion(const Hash256& id) {
  std::string data;
  {
    // Shared is enough: chunk-map mutations happen only under the writer
    // lock, and the chunk store's read counters are internally guarded.
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = blobs_.find(id);
    if (it == blobs_.end()) {
      return Status::NotFound("no object version " + id.ShortHex());
    }
    MLCASK_ASSIGN_OR_RETURN(data, ReadBlob(chunks_, it->second));
  }
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  stats_.gets += 1;
  stats_.storage_time_s += time_model_.ReadSeconds(data.size());
  return data;
}

bool ForkBaseEngine::HasVersion(const Hash256& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return blobs_.find(id) != blobs_.end();
}

std::vector<Hash256> ForkBaseEngine::Versions(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = keys_.find(key);
  return it == keys_.end() ? std::vector<Hash256>{} : it->second;
}

std::vector<std::pair<std::string, Hash256>> ForkBaseEngine::ListAllVersions()
    const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::pair<std::string, Hash256>> out;
  for (const auto& [key, versions] : keys_) {
    for (const Hash256& id : versions) out.emplace_back(key, id);
  }
  return out;
}

Status ForkBaseEngine::RestoreVersion(const std::string& key, const Hash256& id,
                                      const BlobRef& ref) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (blobs_.count(id) != 0) {
    return Status::AlreadyExists("version " + id.ShortHex() +
                                 " already present");
  }
  blobs_[id] = ref;
  keys_[key].push_back(id);
  return Status::Ok();
}

StatusOr<uint64_t> ForkBaseEngine::DeleteVersion(const Hash256& id) {
  uint64_t freed = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = blobs_.find(id);
    if (it == blobs_.end()) {
      return Status::NotFound("no object version " + id.ShortHex());
    }
    uint64_t physical_before = chunks_.stats().physical_bytes;
    MLCASK_RETURN_IF_ERROR(ReleaseBlob(&chunks_, it->second));
    freed = physical_before - chunks_.stats().physical_bytes;
    blobs_.erase(it);
    // A key whose last version goes leaves the index: an absent key and an
    // empty one both give the next Put ordinal 0, so no id changes, and
    // one-shot keys (2PC staging records) do not pile up forever.
    for (auto k = keys_.begin(); k != keys_.end();) {
      std::vector<Hash256>& versions = k->second;
      versions.erase(std::remove(versions.begin(), versions.end(), id),
                     versions.end());
      k = versions.empty() ? keys_.erase(k) : std::next(k);
    }
  }
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  stats_.physical_bytes -= freed;
  return freed;
}

}  // namespace mlcask::storage
