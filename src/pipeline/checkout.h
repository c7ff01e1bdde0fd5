#ifndef MLCASK_PIPELINE_CHECKOUT_H_
#define MLCASK_PIPELINE_CHECKOUT_H_

#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "pipeline/executor.h"
#include "pipeline/library_repo.h"
#include "pipeline/pipeline.h"
#include "storage/storage_engine.h"
#include "version/commit.h"

namespace mlcask::pipeline {

/// Rebuilds a runnable chain pipeline from a commit snapshot by resolving
/// every component record through the library repository — the "checkout"
/// half of retrospective research: any historical pipeline version can be
/// re-instantiated and re-run.
StatusOr<Pipeline> MaterializePipeline(const version::Commit& commit,
                                       const LibraryRepo& libraries,
                                       const std::string& pipeline_name);

/// Seeds `executor`'s artifact cache with the materialized outputs the
/// commits of `history` reference, reading the artifacts back from
/// `engine`. Prefixes without outputs, or whose output `engine` no longer
/// holds, are skipped. A chain prefix several records share is read and
/// seeded once, from its last such record in history order (commit by
/// commit, then component by component), with that commit's score and
/// metrics when the prefix is the whole pipeline; prefixes are seeded in
/// the order of those last records. So the cache ends as seeding each
/// commit in turn would leave it, in the same recency order. When
/// `seeded_keys` is non-null, the chain key of each seeded prefix is
/// recorded — the merge operation uses this to mark the green
/// (checkpointed) nodes of the search tree.
Status SeedExecutorFromHistory(
    const std::vector<const version::Commit*>& history,
    const LibraryRepo& libraries, storage::StorageEngine* engine,
    Executor* executor, std::set<Hash256>* seeded_keys = nullptr);

}  // namespace mlcask::pipeline

#endif  // MLCASK_PIPELINE_CHECKOUT_H_
