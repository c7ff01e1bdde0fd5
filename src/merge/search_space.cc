#include "merge/search_space.h"

#include <algorithm>

namespace mlcask::merge {

size_t SearchSpace::NumCandidates() const {
  size_t n = 1;
  for (const ComponentSearchSpace& c : components) {
    n *= c.versions.size();
  }
  return n;
}

StatusOr<std::vector<const version::Commit*>> MergeHistory(
    const version::PipelineRepo& repo, const std::string& head_branch,
    const std::string& merge_branch, const Hash256& ancestor) {
  MLCASK_ASSIGN_OR_RETURN(const version::Commit* ancestor_commit,
                          repo.Get(ancestor));
  std::vector<const version::Commit*> commits{ancestor_commit};
  for (const std::string& branch : {head_branch, merge_branch}) {
    MLCASK_ASSIGN_OR_RETURN(const version::Commit* head, repo.Head(branch));
    for (const version::Commit* c :
         repo.graph().CommitsSince(head->id, ancestor)) {
      commits.push_back(c);
    }
  }
  return commits;
}

StatusOr<SearchSpace> BuildSearchSpace(const version::PipelineRepo& repo,
                                       const pipeline::LibraryRepo& libraries,
                                       const std::string& head_branch,
                                       const std::string& merge_branch) {
  MLCASK_ASSIGN_OR_RETURN(Hash256 ancestor,
                          repo.CommonAncestor(head_branch, merge_branch));
  // The ancestor itself plus everything developed on both branches since
  // (S = S_HEAD ∪ S_MERGE_HEAD).
  MLCASK_ASSIGN_OR_RETURN(
      std::vector<const version::Commit*> commits,
      MergeHistory(repo, head_branch, merge_branch, ancestor));
  const version::Commit* ancestor_commit = commits.front();

  SearchSpace space;
  space.common_ancestor = ancestor;

  // Component order comes from the ancestor's snapshot (the pipeline shape
  // is stable across the merge; only component versions vary).
  for (const version::ComponentRecord& rec :
       ancestor_commit->snapshot.components) {
    ComponentSearchSpace c;
    c.component = rec.name;
    space.components.push_back(std::move(c));
  }

  for (const version::Commit* commit : commits) {
    for (const version::ComponentRecord& rec : commit->snapshot.components) {
      auto it = std::find_if(space.components.begin(), space.components.end(),
                             [&](const ComponentSearchSpace& c) {
                               return c.component == rec.name;
                             });
      if (it == space.components.end()) {
        return Status::FailedPrecondition(
            "component '" + rec.name + "' appears in commit " +
            commit->Label() + " but not in the common ancestor pipeline");
      }
      bool seen = std::any_of(it->versions.begin(), it->versions.end(),
                              [&](const pipeline::ComponentVersionSpec& v) {
                                return v.version == rec.version;
                              });
      if (seen) continue;
      MLCASK_ASSIGN_OR_RETURN(const pipeline::ComponentVersionSpec* spec,
                              libraries.Get(rec.name, rec.version));
      it->versions.push_back(*spec);
    }
  }

  for (const ComponentSearchSpace& c : space.components) {
    if (c.versions.empty()) {
      return Status::Internal("component '" + c.component +
                              "' has empty search space");
    }
  }
  return space;
}

}  // namespace mlcask::merge
