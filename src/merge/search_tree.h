#ifndef MLCASK_MERGE_SEARCH_TREE_H_
#define MLCASK_MERGE_SEARCH_TREE_H_

#include <cmath>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "merge/compat_lut.h"
#include "merge/search_space.h"
#include "pipeline/component.h"

namespace mlcask::merge {

/// A node of the pipeline search tree (paper Fig. 4). Mirrors the paper's
/// TreeNode: children, the node's component version, an execution-status
/// flag, and (for prioritized search) a score.
struct TreeNode {
  /// Component version at this node; nullptr for the virtual root.
  const pipeline::ComponentVersionSpec* spec = nullptr;
  int level = -1;  ///< Depth: -1 for root, 0 for f_0, etc.
  std::vector<std::unique_ptr<TreeNode>> children;
  bool executed = false;      ///< Checkpoint exists (green node).
  double score = std::nan(""); ///< Prioritized-search node score.

  bool has_score() const { return !std::isnan(score); }
  bool is_leaf() const { return children.empty(); }
};

/// A root-to-leaf path — one pre-merge pipeline candidate.
using CandidateChain = std::vector<const pipeline::ComponentVersionSpec*>;

/// The pipeline search tree built over a merge search space (Algorithm 1),
/// plus the pruning and traversal operations of Sec. VI.
class PipelineSearchTree {
 public:
  /// Algorithm 1: level i holds every version in S(f_i) under every node of
  /// level i-1.
  static PipelineSearchTree Build(const SearchSpace& space);

  TreeNode* root() { return root_.get(); }
  const TreeNode* root() const { return root_.get(); }

  size_t NumNodes() const;   ///< Excluding the virtual root.
  size_t NumLeaves() const;

  /// PC pruning (Sec. VI-A): removes children whose (parent, child) pair is
  /// absent from the LUT, then removes subtrees that can no longer reach the
  /// final level (their candidates would be truncated pipelines). Returns
  /// the number of nodes removed.
  size_t PruneIncompatible(const CompatLut& lut);

  /// PR step 1 (Sec. VI-B): marks nodes whose chain prefix has a checkpoint
  /// in history. `has_checkpoint(chain)` is queried for every node's
  /// root-to-node chain. Returns the number of nodes marked.
  size_t MarkCheckpoints(
      const std::function<bool(const CandidateChain&)>& has_checkpoint);

  /// All pre-merge pipeline candidates in depth-first order — the order
  /// Algorithm 2 executes them in.
  std::vector<CandidateChain> Candidates() const;

  /// The leaves in the same depth-first order Candidates() uses, so
  /// Leaves()[i] is the node whose root-to-leaf path is Candidates()[i].
  std::vector<const TreeNode*> Leaves() const;

  /// Child -> parent pointers for every node (the root maps to nullptr) —
  /// what score propagation walks upward during prioritized search.
  std::unordered_map<const TreeNode*, const TreeNode*> ParentIndex() const;

 private:
  std::unique_ptr<TreeNode> root_;
  size_t num_levels_ = 0;
};

}  // namespace mlcask::merge

#endif  // MLCASK_MERGE_SEARCH_TREE_H_
