#ifndef MLCASK_MERGE_SEARCH_SPACE_H_
#define MLCASK_MERGE_SEARCH_SPACE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "pipeline/component.h"
#include "pipeline/library_repo.h"
#include "version/pipeline_repo.h"

namespace mlcask::merge {

/// S(f_i): every version of component f_i developed since the common
/// ancestor on either branch, plus the ancestor's own version (paper Sec. V:
/// "the search space involves all the available component versions developed
/// starting from the common ancestors towards the HEAD and MERGE_HEAD";
/// versions *before* the ancestor are excluded).
struct ComponentSearchSpace {
  std::string component;
  std::vector<pipeline::ComponentVersionSpec> versions;
};

/// The full search space for merging `merge_branch` into `head_branch`:
/// one entry per pipeline component, in chain order. Component order is
/// taken from the common ancestor's snapshot. Specs are resolved through the
/// library repository.
struct SearchSpace {
  Hash256 common_ancestor;
  std::vector<ComponentSearchSpace> components;

  /// Upper bound on pre-merge pipeline candidates: prod |S(f_i)|.
  size_t NumCandidates() const;
};

/// The commits a merge draws on: the common `ancestor` first, then the
/// commits since it on `head_branch`, then those on `merge_branch`. The
/// order is part of the contract: checkpoints are seeded in it (which sets
/// the artifact cache's recency order), and a later commit's score wins
/// when two commits trained the same pipeline.
StatusOr<std::vector<const version::Commit*>> MergeHistory(
    const version::PipelineRepo& repo, const std::string& head_branch,
    const std::string& merge_branch, const Hash256& ancestor);

StatusOr<SearchSpace> BuildSearchSpace(const version::PipelineRepo& repo,
                                       const pipeline::LibraryRepo& libraries,
                                       const std::string& head_branch,
                                       const std::string& merge_branch);

}  // namespace mlcask::merge

#endif  // MLCASK_MERGE_SEARCH_SPACE_H_
