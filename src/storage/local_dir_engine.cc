#include "storage/local_dir_engine.h"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <shared_mutex>

#include "common/sha256.h"

namespace mlcask::storage {

LocalDirEngine::LocalDirEngine(StorageTimeModel time_model)
    : time_model_(time_model) {}

StatusOr<PutResult> LocalDirEngine::Put(const std::string& key,
                                        std::string_view data) {
  PutResult result;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    // Folder semantics: a full copy per version. The "folder name" is a
    // version id derived from key + ordinal, mirroring run-1/, run-2/, ...
    // directories.
    Sha256 h;
    h.Update(key);
    uint64_t ordinal = keys_[key].size();
    h.Update(&ordinal, sizeof(ordinal));
    Hash256 version_id = h.Finish();

    objects_[version_id] = std::string(data);
    keys_[key].push_back(version_id);

    result.id = version_id;
  }
  result.logical_bytes = data.size();
  result.new_physical_bytes = data.size();  // no de-duplication, ever
  result.deduplicated = false;
  result.storage_time_s = time_model_.WriteSeconds(data.size(), data.size());

  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  stats_.puts += 1;
  stats_.logical_bytes += data.size();
  stats_.physical_bytes += data.size();
  stats_.storage_time_s += result.storage_time_s;
  return result;
}

StatusOr<std::string> LocalDirEngine::Get(const std::string& key) {
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

StatusOr<std::string> LocalDirEngine::GetVersion(const Hash256& id) {
  std::string data;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = objects_.find(id);
    if (it == objects_.end()) {
      return Status::NotFound("no object version " + id.ShortHex());
    }
    data = it->second;
  }
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  stats_.gets += 1;
  stats_.storage_time_s += time_model_.ReadSeconds(data.size());
  return data;
}

bool LocalDirEngine::HasVersion(const Hash256& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return objects_.find(id) != objects_.end();
}

std::vector<Hash256> LocalDirEngine::Versions(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = keys_.find(key);
  return it == keys_.end() ? std::vector<Hash256>{} : it->second;
}

std::vector<std::pair<std::string, Hash256>> LocalDirEngine::ListAllVersions()
    const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::pair<std::string, Hash256>> out;
  for (const auto& [key, versions] : keys_) {
    for (const Hash256& id : versions) out.emplace_back(key, id);
  }
  return out;
}

StatusOr<uint64_t> LocalDirEngine::DeleteVersion(const Hash256& id) {
  uint64_t freed = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = objects_.find(id);
    if (it == objects_.end()) {
      return Status::NotFound("no object version " + id.ShortHex());
    }
    freed = it->second.size();
    objects_.erase(it);
    // Drop a key with its last version (see ForkBaseEngine::DeleteVersion).
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
