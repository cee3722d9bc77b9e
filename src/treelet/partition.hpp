#pragma once
// Template partitioning via single edge cuts (§III-A, §III-D).
//
// The template is recursively split into an *active* child (the side
// containing the parent's root) and a *passive* child (the other side,
// rooted at the cut endpoint), down to single vertices.  The counter
// then walks the resulting DAG bottom-up.
//
// Only edges *adjacent to the current root* are legal cuts: the DP
// joins the passive child's root to the image of the active root
// through a graph edge, so the cut edge must be incident to the root
// ("a single edge adjacent to the root is cut", §III-A).  Within that
// constraint, two strategies:
//   * kOneAtATime — peel the smallest root branch per cut; whenever
//     the root is a leaf of the current subtemplate the *active* child
//     becomes the single partitioned vertex, enabling the fast path
//     that reduces per-vertex work by a factor (k-1)/k (§III-D).
//     FASCIA's default.
//   * kBalanced — cut the root edge that splits the subtemplate most
//     evenly, approximating the classical cost-minimizing split
//     Σ C(k,Sn)·C(Sn,an).
// Counting options may leave the strategy unset (std::nullopt): the
// planner (sched/plan.hpp) then picks the strategy and root per
// template from both strategies' shapes.
//
// Independently, `share_tables` merges subtemplates with identical
// rooted canonical form (the paper's rooted-automorphism memory
// optimization, §III-C): the partition becomes a DAG and shared nodes
// are computed once.  Lifetime analysis marks when each node's DP
// table can be freed; the paper observes at most ~4 live tables, which
// `max_live_tables()` lets benches verify.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "treelet/tree_template.hpp"

namespace fascia {

enum class PartitionStrategy {
  kOneAtATime,
  kBalanced,
};

/// "one_at_a_time" or "balanced"; an unset strategy is "planned".
const char* partition_strategy_name(PartitionStrategy strategy);
const char* partition_strategy_name(std::optional<PartitionStrategy> strategy);

struct Subtemplate {
  std::vector<int> vertices;  ///< sorted template vertex ids
  int root = -1;              ///< template vertex id of the root
  int root_label = -1;        ///< label of the root vertex; -1 = unlabeled
  int active = -1;            ///< node index of active child; -1 for leaves
  int passive = -1;           ///< node index of passive child; -1 for leaves
  /// Triangle joins only (treelet/mixed_partition.hpp): node index of
  /// the second passive child, whose root is adjacent to both the
  /// node's root and `passive`'s root; -1 for edge joins and leaves.
  int passive2 = -1;
  std::string canon;          ///< rooted canonical key (labels included)
  int free_after = -1;        ///< last node index needing this table; -1 = root

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(vertices.size());
  }
  [[nodiscard]] bool is_leaf() const noexcept { return active < 0; }
  [[nodiscard]] bool is_triangle_join() const noexcept {
    return passive2 >= 0;
  }
};

class PartitionTree {
 public:
  /// Builds a partition DAG from an explicit node list — the batch
  /// scheduler merges several templates' partitions into one DAG this
  /// way (src/sched/).  Nodes must be topologically ordered (children
  /// before parents); free_after lifetimes are recomputed from the
  /// consumer structure.  Nodes listed in `pinned` (e.g. per-template
  /// roots whose tables are read after the pass) are never freed.
  /// Throws std::invalid_argument on malformed child indices.
  static PartitionTree from_nodes(std::vector<Subtemplate> nodes,
                                  const std::vector<int>& pinned = {});

  /// Nodes in bottom-up (topological) order; back() is the full template.
  [[nodiscard]] const std::vector<Subtemplate>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] const Subtemplate& node(int index) const noexcept {
    return nodes_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] int num_nodes() const noexcept {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] int root_node() const noexcept { return num_nodes() - 1; }

  /// Template vertex the whole count is rooted at.
  [[nodiscard]] int template_root() const noexcept {
    return nodes_.back().root;
  }

  /// Classical DP cost model: Σ over non-leaf nodes of
  /// C(k, h)·C(h, a), counting shared nodes once (§III-D).
  [[nodiscard]] double dp_cost(int num_colors) const;

  /// Peak number of simultaneously live DP tables under the
  /// free_after schedule (paper: ≤ 4 with its ordering).
  [[nodiscard]] int max_live_tables() const;

  /// Multi-line human-readable dump (debugging, docs).
  [[nodiscard]] std::string describe() const;

 private:
  friend PartitionTree partition_template(const TreeTemplate&,
                                          PartitionStrategy, bool, int);
  std::vector<Subtemplate> nodes_;
};

/// Rooted canonical forms as integers: a rooted tree's id is the id of
/// (root label, sorted child-subtree ids), so two ids are equal exactly
/// when the AHU strings of treelet/canonical are.  One table serves
/// any number of templates.
class CanonIds {
 public:
  /// Id of the tree whose root has `label` (-1 = unlabeled) and whose
  /// root subtrees have ids `children` (sorted in place).
  int intern(int label, std::vector<int>& children);
  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }

 private:
  std::string key_;
  std::unordered_map<std::string, int> ids_;
};

/// One node of a partition shape: a subtemplate as a vertex bitmask,
/// its root, and its rooted canonical form as a CanonIds id.
struct ShapeNode {
  std::uint32_t vertices = 0;  ///< bit v set = template vertex v
  int root = -1;
  int canon = 0;
  int size = 1;
  int active = -1;   ///< node index of the active child; -1 for leaves
  int passive = -1;  ///< node index of the passive child; -1 for leaves
  [[nodiscard]] bool is_leaf() const noexcept { return active < 0; }
};

/// The nodes of a partition in bottom-up order; back() is the template.
using PartitionShape = std::vector<ShapeNode>;

/// The partitioner itself: cuts one template at any root and returns
/// the shape partition_template materializes into Subtemplates.  Each
/// (vertex set, root) canonical form is computed once across all the
/// roots one shaper is asked for, which is what lets the batch planner
/// (sched/plan) try every root of every template cheaply.
class PartitionShaper {
 public:
  using Mask = std::uint32_t;  ///< kMaxTemplateSize <= 32

  PartitionShaper(const TreeTemplate& t, PartitionStrategy strategy,
                  bool share_tables, CanonIds& ids);

  /// The partition rooted at template vertex `root` (no -1 default).
  PartitionShape build(int root);

 private:
  /// Vertices of `mask` reachable from `start` without entering `cut`.
  [[nodiscard]] Mask branch(Mask mask, int start, int cut) const;
  int canon(Mask mask, int root);
  int place(Mask mask, int root, PartitionShape& shape);

  const TreeTemplate& t_;
  PartitionStrategy strategy_;
  bool share_;
  CanonIds& ids_;
  std::unordered_map<std::uint64_t, int> canon_;  ///< (mask, root) -> id
  std::unordered_map<int, int> memo_;  ///< canon -> node, within a build
};

/// The root partition_template picks for root == -1: the smallest-id
/// leaf for kOneAtATime, the first centroid for kBalanced.
int default_root(const TreeTemplate& t, PartitionStrategy strategy);

/// A partition-tree source: must return exactly what
/// partition_template(tmpl, strategy, share_tables, root) would, so a
/// host can serve memoized trees (sched::BatchOptions).
using PartitionProvider = std::function<std::shared_ptr<const PartitionTree>(
    const TreeTemplate& tmpl, PartitionStrategy strategy, bool share_tables,
    int root)>;

/// Partitions `t`.  `root` fixes the template root (needed for
/// graphlet-degree runs, where the root must be the orbit vertex);
/// -1 lets the strategy choose (a leaf for kOneAtATime, a centroid
/// for kBalanced).
PartitionTree partition_template(const TreeTemplate& t,
                                 PartitionStrategy strategy,
                                 bool share_tables = true, int root = -1);

}  // namespace fascia
