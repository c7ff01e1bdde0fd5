#ifndef MLCASK_STORAGE_LOCAL_DIR_ENGINE_H_
#define MLCASK_STORAGE_LOCAL_DIR_ENGINE_H_

#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/storage_engine.h"

namespace mlcask::storage {

/// Folder-archival storage as used by the baselines (ModelDB/MLflow in the
/// paper "archive different versions of libraries and intermediate results
/// into separate folders"): every version of every object is retained as a
/// full copy, so physical bytes always equal logical bytes. Writes are
/// near-instant (local directory), which matches Fig. 6's storage-time
/// observation.
class LocalDirEngine : public StorageEngine {
 public:
  explicit LocalDirEngine(
      StorageTimeModel time_model = {.per_put_latency_s = 0.01,
                                     .write_mb_per_s = 1000.0,
                                     .read_mb_per_s = 2000.0,
                                     .chunking_s_per_mb = 0.0});

  StatusOr<PutResult> Put(const std::string& key,
                          std::string_view data) override;
  StatusOr<std::string> Get(const std::string& key) override;
  StatusOr<std::string> GetVersion(const Hash256& id) override;
  bool HasVersion(const Hash256& id) const override;
  std::vector<Hash256> Versions(const std::string& key) const override;
  std::vector<std::pair<std::string, Hash256>> ListAllVersions() const override;
  StatusOr<uint64_t> DeleteVersion(const Hash256& id) override;

  EngineStats stats() const override {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }
  std::string Name() const override { return "local-dir"; }

  /// Keys holding at least one version (a key leaves with its last one).
  size_t num_keys() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return keys_.size();
  }
  double ReadCost(uint64_t bytes) const override {
    return time_model_.ReadSeconds(bytes);
  }

 private:
  StorageTimeModel time_model_;
  // `mu_` guards the object/version maps; `stats_mu_` guards the counters
  // (see StorageEngine's thread-safety contract).
  mutable std::shared_mutex mu_;
  mutable std::mutex stats_mu_;
  std::unordered_map<Hash256, std::string, Hash256Hasher> objects_;
  std::unordered_map<std::string, std::vector<Hash256>> keys_;
  EngineStats stats_;
};

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_LOCAL_DIR_ENGINE_H_
