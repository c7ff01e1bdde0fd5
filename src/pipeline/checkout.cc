#include "pipeline/checkout.h"

#include <cmath>
#include <unordered_map>

namespace mlcask::pipeline {

StatusOr<Pipeline> MaterializePipeline(const version::Commit& commit,
                                       const LibraryRepo& libraries,
                                       const std::string& pipeline_name) {
  std::vector<ComponentVersionSpec> specs;
  specs.reserve(commit.snapshot.components.size());
  for (const version::ComponentRecord& rec : commit.snapshot.components) {
    MLCASK_ASSIGN_OR_RETURN(const ComponentVersionSpec* spec,
                            libraries.Get(rec.name, rec.version));
    specs.push_back(*spec);
  }
  return Pipeline::Chain(pipeline_name, std::move(specs));
}

Status SeedExecutorFromHistory(
    const std::vector<const version::Commit*>& history,
    const LibraryRepo& libraries, storage::StorageEngine* engine,
    Executor* executor, std::set<Hash256>* seeded_keys) {
  // One pass over every record folds its chain key (ChainKey, one NodeKey
  // per record) and keeps, per key, the last record whose output the engine
  // holds; an earlier record of the same key is marked superseded.
  struct Seed {
    Hash256 key;
    const version::Commit* commit;
    size_t index;  // of the prefix's last record in the commit
    bool superseded;
  };
  std::vector<Seed> seeds;
  std::unordered_map<Hash256, size_t, Hash256Hasher> latest;
  std::vector<Hash256> parents;
  for (const version::Commit* commit : history) {
    const auto& records = commit->snapshot.components;
    parents.clear();
    for (size_t i = 0; i < records.size(); ++i) {
      MLCASK_ASSIGN_OR_RETURN(
          const ComponentVersionSpec* spec,
          libraries.Get(records[i].name, records[i].version));
      const Hash256 key = Executor::NodeKey(*spec, parents);
      parents.assign(1, key);
      if (!records[i].has_output() ||
          !engine->HasVersion(records[i].output_id)) {
        continue;
      }
      auto [it, inserted] = latest.try_emplace(key, seeds.size());
      if (!inserted) {
        seeds[it->second].superseded = true;
        it->second = seeds.size();
      }
      seeds.push_back({key, commit, i, false});
    }
  }
  for (const Seed& seed : seeds) {
    if (seed.superseded) continue;
    const version::PipelineSnapshot& snapshot = seed.commit->snapshot;
    const version::ComponentRecord& record = snapshot.components[seed.index];
    MLCASK_ASSIGN_OR_RETURN(std::string bytes,
                            engine->GetVersion(record.output_id));
    MLCASK_ASSIGN_OR_RETURN(data::Table table, data::Table::Deserialize(bytes));
    // Only the full pipeline carries the committed score/metrics.
    const bool is_full = seed.index + 1 == snapshot.components.size();
    executor->SeedCache(
        seed.key, std::move(table), is_full ? snapshot.score : std::nan(""),
        is_full ? snapshot.metric : "", record.output_id,
        is_full ? snapshot.metrics : std::map<std::string, double>{});
    if (seeded_keys != nullptr) seeded_keys->insert(seed.key);
  }
  return Status::Ok();
}

}  // namespace mlcask::pipeline
