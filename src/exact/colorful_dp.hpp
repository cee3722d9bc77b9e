#pragma once
// The colorful DP (Alg. 2) written literally over GLOBAL colorsets —
// the oracle the engine's kernels (core/engine.hpp) are tested and
// benchmarked against, as backtrack.hpp is the oracle for the counts.
//
// Every node's table is dense: n rows of C(k, h) doubles indexed by
// the combinadic colorset index (comb/colorset.hpp).  A leaf's row
// holds 1 at {c(v)} when v matches the leaf's label.  Every edge join
// runs the one recurrence
//
//   T_S[v][P] = Σ_{u ∈ N(v)} Σ_{(A, B) split of P} T_a[v][A] · T_p[u][B]
//
// with v's nonzero (P, B, T_a[v][A]) terms hoisted out of the
// neighbor loop in SplitTable order, then neighbors outermost and the
// hoisted terms inner.  Only exact zero terms are skipped.  While
// every entry stays below 2^53 all sums are exact, so the engine's
// tables must equal these bit for bit; past it, the pair and
// single-active kernels still add in this order and match too.  There
// are no frontiers, rooted rows, size-specialized paths or threads:
// it is slow on purpose.

#include <cstdint>
#include <span>
#include <vector>

#include "comb/colorset.hpp"
#include "graph/graph.hpp"
#include "treelet/partition.hpp"

namespace fascia::exact {

class ColorfulDp {
 public:
  /// Runs the DP bottom-up over `partition` for one coloring (one
  /// color in [0, num_colors) per vertex).  Throws
  /// std::invalid_argument on a triangle join (an edge-join
  /// partition only), a coloring of the wrong length or with a color
  /// out of range, or a template larger than num_colors.
  ColorfulDp(const Graph& graph, const PartitionTree& partition,
             int num_colors, std::span<const std::uint8_t> colors);

  /// Row width of a node's table: C(k, h).
  [[nodiscard]] std::uint32_t width(int node) const noexcept {
    return widths_[static_cast<std::size_t>(node)];
  }

  /// Colorful maps of the node's subtemplate whose root maps to `v`
  /// and whose image uses exactly the colorset with global index `set`.
  [[nodiscard]] double get(int node, VertexId v,
                           ColorsetIndex set) const noexcept {
    return tables_[static_cast<std::size_t>(node)]
                  [static_cast<std::size_t>(v) * width(node) + set];
  }

  /// Every entry of a node's table summed as a 128-bit integer and
  /// rounded once, as the engine's root reduction does.
  [[nodiscard]] double total(int node) const noexcept;
  [[nodiscard]] double root_total() const noexcept { return total(root_); }

  /// Wall seconds the node's join took (0 for leaves).
  [[nodiscard]] double seconds(int node) const noexcept {
    return seconds_[static_cast<std::size_t>(node)];
  }

 private:
  int root_;
  std::vector<std::uint32_t> widths_;
  std::vector<std::vector<double>> tables_;
  std::vector<double> seconds_;
};

}  // namespace fascia::exact
