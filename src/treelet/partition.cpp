#include "treelet/partition.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <sstream>

#include "comb/binomial.hpp"
#include "treelet/canonical.hpp"

#include "util/error.hpp"

namespace fascia {

namespace {

using Mask = PartitionShaper::Mask;

[[nodiscard]] bool has(Mask mask, int v) noexcept {
  return ((mask >> v) & 1U) != 0;
}

/// Lifetime analysis: a node's table can be freed after the last node
/// that consumes it has been computed; nodes without consumers (the
/// root; every per-template root in a merged DAG) are never freed.
void compute_lifetimes(std::vector<Subtemplate>& nodes) {
  for (auto& node : nodes) node.free_after = -1;
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    if (nodes[j].is_leaf()) continue;
    nodes[static_cast<std::size_t>(nodes[j].active)].free_after =
        static_cast<int>(j);
    nodes[static_cast<std::size_t>(nodes[j].passive)].free_after =
        static_cast<int>(j);
    if (nodes[j].is_triangle_join()) {
      nodes[static_cast<std::size_t>(nodes[j].passive2)].free_after =
          static_cast<int>(j);
    }
  }
}

}  // namespace

const char* partition_strategy_name(PartitionStrategy strategy) {
  return strategy == PartitionStrategy::kBalanced ? "balanced"
                                                  : "one_at_a_time";
}

const char* partition_strategy_name(
    std::optional<PartitionStrategy> strategy) {
  return strategy ? partition_strategy_name(*strategy) : "planned";
}

int default_root(const TreeTemplate& t, PartitionStrategy strategy) {
  if (strategy == PartitionStrategy::kBalanced) return centroids(t)[0];
  // One-at-a-time: any leaf enables the single-active fast path at the
  // top level; pick the smallest.
  for (int v = 0; v < t.size(); ++v) {
    if (t.degree(v) <= 1) return v;
  }
  return 0;  // unreachable for valid trees
}

PartitionTree PartitionTree::from_nodes(std::vector<Subtemplate> nodes,
                                        const std::vector<int>& pinned) {
  const int count = static_cast<int>(nodes.size());
  if (count == 0) {
    throw usage_error("PartitionTree::from_nodes: empty node list");
  }
  for (int i = 0; i < count; ++i) {
    const Subtemplate& node = nodes[static_cast<std::size_t>(i)];
    const bool children_ok =
        node.is_leaf()
            ? node.active < 0 && node.passive < 0 && node.passive2 < 0
            : node.active >= 0 && node.active < i && node.passive >= 0 &&
                  node.passive < i && node.passive2 >= -1 &&
                  node.passive2 < i;
    if (!children_ok) {
      throw usage_error(
          "PartitionTree::from_nodes: children must precede parents");
    }
  }
  compute_lifetimes(nodes);
  for (int index : pinned) {
    if (index < 0 || index >= count) {
      throw usage_error(
          "PartitionTree::from_nodes: pinned node out of range");
    }
    nodes[static_cast<std::size_t>(index)].free_after = -1;
  }
  PartitionTree tree;
  tree.nodes_ = std::move(nodes);
  return tree;
}

PartitionTree partition_template(const TreeTemplate& t,
                                 PartitionStrategy strategy,
                                 bool share_tables, int root) {
  if (root < -1 || root >= t.size()) {
    throw usage_error("partition_template: root out of range");
  }
  if (root == -1) root = default_root(t, strategy);

  CanonIds ids;
  PartitionShaper shaper(t, strategy, share_tables, ids);
  PartitionTree tree;
  for (const ShapeNode& shape : shaper.build(root)) {
    Subtemplate node;
    for (int v = 0; v < t.size(); ++v) {
      if (has(shape.vertices, v)) node.vertices.push_back(v);
    }
    node.root = shape.root;
    node.root_label = t.has_labels() ? t.label(shape.root) : -1;
    node.active = shape.active;
    node.passive = shape.passive;
    node.canon = ahu_rooted_subtree(t, node.vertices, shape.root);
    tree.nodes_.push_back(std::move(node));
  }
  compute_lifetimes(tree.nodes_);
  return tree;
}

int CanonIds::intern(int label, std::vector<int>& children) {
  std::sort(children.begin(), children.end());
  key_.assign(reinterpret_cast<const char*>(&label), sizeof(label));
  for (const int child : children) {
    key_.append(reinterpret_cast<const char*>(&child), sizeof(child));
  }
  return ids_.try_emplace(key_, static_cast<int>(ids_.size())).first->second;
}

PartitionShaper::PartitionShaper(const TreeTemplate& t,
                                 PartitionStrategy strategy, bool share_tables,
                                 CanonIds& ids)
    : t_(t), strategy_(strategy), share_(share_tables), ids_(ids) {}

PartitionShape PartitionShaper::build(int root) {
  if (root < 0 || root >= t_.size()) {
    throw usage_error("PartitionShaper: root out of range");
  }
  PartitionShape shape;
  memo_.clear();
  place((Mask{1} << t_.size()) - 1, root, shape);
  return shape;
}

PartitionShaper::Mask PartitionShaper::branch(Mask mask, int start,
                                              int cut) const {
  Mask seen = Mask{1} << start;
  int stack[kMaxTemplateSize];
  int top = 0;
  stack[top++] = start;
  while (top > 0) {
    const int v = stack[--top];
    for (const int u : t_.neighbors(v)) {
      if (u == cut || !has(mask, u) || has(seen, u)) continue;
      seen |= Mask{1} << u;
      stack[top++] = u;
    }
  }
  return seen;
}

int PartitionShaper::canon(Mask mask, int root) {
  const std::uint64_t key =
      (std::uint64_t{mask} << 5) | static_cast<std::uint64_t>(root);
  if (const auto it = canon_.find(key); it != canon_.end()) return it->second;
  std::vector<int> children;
  for (const int u : t_.neighbors(root)) {
    if (has(mask, u)) children.push_back(canon(branch(mask, u, root), u));
  }
  const int id = ids_.intern(t_.has_labels() ? t_.label(root) : -1, children);
  canon_.emplace(key, id);
  return id;
}

int PartitionShaper::place(Mask mask, int root, PartitionShape& shape) {
  ShapeNode node;
  node.vertices = mask;
  node.root = root;
  node.canon = canon(mask, root);
  if (share_) {
    if (const auto it = memo_.find(node.canon); it != memo_.end()) {
      return it->second;
    }
  }
  node.size = std::popcount(mask);
  if (node.size > 1) {
    // Only edges adjacent to the root are legal cuts: the DP joins the
    // passive child's root to the image of the active root through a
    // graph edge ("a single edge adjacent to the root is cut", §III-A).
    int best_w = -1;
    Mask best_branch = 0;
    int best_score = 0;
    for (const int w : t_.neighbors(root)) {
      if (!has(mask, w)) continue;
      const Mask side = branch(mask, w, root);
      const int size = std::popcount(side);
      // kOneAtATime peels the smallest branch: when the root is a leaf
      // the active child becomes the single partitioned vertex
      // (§III-D).  kBalanced takes the most even split.
      const int score = strategy_ == PartitionStrategy::kOneAtATime
                            ? size
                            : std::abs(2 * size - node.size);
      // Ties keep the first candidate, the smallest w (neighbor lists
      // are sorted): deterministic partitions.
      if (best_w < 0 || score < best_score) {
        best_w = w;
        best_branch = side;
        best_score = score;
      }
    }
    if (best_w < 0) {
      throw internal_error(
          "PartitionShaper: root has no neighbor in subtemplate");
    }
    // Children first: indices stay topologically ordered.
    node.active = place(mask & ~best_branch, root, shape);
    node.passive = place(best_branch, best_w, shape);
  }
  shape.push_back(node);
  const int index = static_cast<int>(shape.size()) - 1;
  if (share_) memo_.emplace(node.canon, index);
  return index;
}

double PartitionTree::dp_cost(int num_colors) const {
  double cost = 0.0;
  for (const auto& node : nodes_) {
    if (node.is_leaf()) continue;
    const int h = node.size();
    const int a = nodes_[static_cast<std::size_t>(node.active)].size();
    cost += static_cast<double>(choose(num_colors, h)) *
            static_cast<double>(choose(h, a));
  }
  return cost;
}

int PartitionTree::max_live_tables() const {
  int live = 0, peak = 0;
  std::vector<char> alive(nodes_.size(), 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!alive[i]) {
      alive[i] = 1;
      ++live;
    }
    peak = std::max(peak, live);
    // Free children whose last use was this node.
    for (std::size_t j = 0; j < i; ++j) {
      if (alive[j] && nodes_[j].free_after == static_cast<int>(i)) {
        alive[j] = 0;
        --live;
      }
    }
  }
  return peak;
}

std::string PartitionTree::describe() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& node = nodes_[i];
    out << '[' << i << "] size=" << node.size() << " root=" << node.root
        << " verts={";
    for (std::size_t v = 0; v < node.vertices.size(); ++v) {
      out << (v ? "," : "") << node.vertices[v];
    }
    out << '}';
    if (!node.is_leaf()) {
      out << " active=" << node.active << " passive=" << node.passive;
      if (node.is_triangle_join()) out << "," << node.passive2;
    }
    out << " free_after=" << node.free_after << '\n';
  }
  return out.str();
}

}  // namespace fascia
