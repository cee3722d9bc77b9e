#include "treelet/mixed_partition.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/error.hpp"

namespace fascia {

namespace {

bool contains(const std::vector<int>& sorted, int v) {
  return std::binary_search(sorted.begin(), sorted.end(), v);
}

/// Vertices reachable from `start` within `vertices` without using any
/// edge in `cut_edges` (pairs in both orientations are checked).
std::vector<int> side_without_edges(
    const MixedTemplate& t, const std::vector<int>& vertices, int start,
    const std::vector<std::pair<int, int>>& cut_edges) {
  auto is_cut = [&cut_edges](int a, int b) {
    for (auto [x, y] : cut_edges) {
      if ((a == x && b == y) || (a == y && b == x)) return true;
    }
    return false;
  };
  std::vector<int> side;
  std::vector<int> stack = {start};
  std::vector<char> seen(static_cast<std::size_t>(t.size()), 0);
  seen[static_cast<std::size_t>(start)] = 1;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    side.push_back(v);
    for (int u : t.neighbors(v)) {
      if (!contains(vertices, u) || is_cut(v, u)) continue;
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = 1;
        stack.push_back(u);
      }
    }
  }
  std::sort(side.begin(), side.end());
  return side;
}

class Builder {
 public:
  explicit Builder(const MixedTemplate& t) : t_(t) {}

  int build(std::vector<int> vertices, int root) {
    Subtemplate node;
    node.vertices = std::move(vertices);
    node.root = root;
    node.root_label = t_.has_labels() ? t_.label(root) : -1;

    if (node.size() > 1) {
      // A triangle block incident to the root inside this subtemplate?
      int tri_x = -1, tri_y = -1;
      for (const auto& triangle : t_.triangles()) {
        const bool rooted = triangle[0] == root || triangle[1] == root ||
                            triangle[2] == root;
        if (!rooted) continue;
        bool inside = true;
        for (int corner : triangle) {
          if (!contains(node.vertices, corner)) inside = false;
        }
        if (!inside) continue;
        for (int corner : triangle) {
          if (corner == root) continue;
          (tri_x < 0 ? tri_x : tri_y) = corner;
        }
        break;
      }

      if (tri_x >= 0) {
        // Triangle join: remove the block's three edges; x's and y's
        // branches become the two passive children.
        const std::vector<std::pair<int, int>> cut = {
            {root, tri_x}, {root, tri_y}, {tri_x, tri_y}};
        auto branch_x = side_without_edges(t_, node.vertices, tri_x, cut);
        auto branch_y = side_without_edges(t_, node.vertices, tri_y, cut);
        auto active_side = side_without_edges(t_, node.vertices, root, cut);
        node.passive = build(std::move(branch_x), tri_x);
        node.passive2 = build(std::move(branch_y), tri_y);
        node.active = build(std::move(active_side), root);
      } else {
        // Edge join: peel the smallest bridge branch at the root
        // (one-at-a-time heuristic, as for trees).
        int best_w = -1;
        std::vector<int> best_branch;
        for (int w : t_.neighbors(root)) {
          if (!contains(node.vertices, w)) continue;
          if (t_.edge_in_triangle(root, w)) continue;  // not a bridge
          auto branch =
              side_without_edges(t_, node.vertices, w, {{root, w}});
          if (best_w < 0 || branch.size() < best_branch.size()) {
            best_w = w;
            best_branch = std::move(branch);
          }
        }
        if (best_w < 0) {
          throw internal_error(
              "partition_mixed_template: no cuttable block at root");
        }
        std::vector<int> active_side;
        std::set_difference(node.vertices.begin(), node.vertices.end(),
                            best_branch.begin(), best_branch.end(),
                            std::back_inserter(active_side));
        node.passive = build(std::move(best_branch), best_w);
        node.active = build(std::move(active_side), root);
      }
    }

    nodes_.push_back(std::move(node));
    return static_cast<int>(nodes_.size()) - 1;
  }

  std::vector<Subtemplate> take() { return std::move(nodes_); }

 private:
  const MixedTemplate& t_;
  std::vector<Subtemplate> nodes_;
};

int pick_root(const MixedTemplate& t) {
  // Prefer a low-degree vertex outside every triangle so the top-level
  // joins are cheap edge joins; fall back to any vertex.
  int best = 0;
  int best_score = 1 << 20;
  for (int v = 0; v < t.size(); ++v) {
    bool in_triangle = false;
    for (const auto& triangle : t.triangles()) {
      if (triangle[0] == v || triangle[1] == v || triangle[2] == v) {
        in_triangle = true;
      }
    }
    const int score = t.degree(v) + (in_triangle ? 100 : 0);
    if (score < best_score) {
      best_score = score;
      best = v;
    }
  }
  return best;
}

}  // namespace

PartitionTree partition_mixed_template(const MixedTemplate& t, int root) {
  if (root < -1 || root >= t.size()) {
    throw usage_error("partition_mixed_template: root out of range");
  }
  if (root == -1) root = pick_root(t);

  Builder builder(t);
  std::vector<int> all(static_cast<std::size_t>(t.size()));
  for (int v = 0; v < t.size(); ++v) all[static_cast<std::size_t>(v)] = v;
  builder.build(std::move(all), root);
  return PartitionTree::from_nodes(builder.take());
}

}  // namespace fascia
