#pragma once
// Precomputed colorset *split* tables (§III-B).
//
// The innermost loops of the dynamic program distribute a parent
// colorset C (size h) onto an active child (size a) and a passive child
// (size h-a) in every possible way.  Doing this with explicit color
// arrays costs sorting/merging per step; FASCIA instead precomputes,
// for every parent index I, the full list of (I_active, I_passive)
// index pairs, turning the split enumeration into a linear scan of two
// flat arrays.  Total storage across all subtemplates is O(2^k) —
// a few megabytes even at k = 12.
//
// When the active child is a single vertex (the one-at-a-time
// partitioning fast path, §III-D), only parent sets containing the
// vertex's own color contribute, and the active index is fully
// determined.  SingleActiveSplit stores, per color c, the list of
// (I_passive, I_parent) pairs over all parents containing c — exactly
// the (k-1)/k work reduction the paper describes.
//
// DP rows are color-rooted (comb/colorset.hpp): the row of vertex v
// stores only the C(k-1, h-1) colorsets containing v's color, so the
// kernels' index lists are keyed by the colors of the rows they join
// and address rooted slots directly — no kernel reads or writes a
// structural zero.  SingleActiveSplit carries the lists for stages with
// a single-vertex child, keyed by the (v, neighbor) color pair;
// RootedSplit carries the general (a > 1, p > 1) lists, and both
// splits of a triangle join (whose children may be single vertices).
// ComplementSplit carries the lists of a general join whose size is the
// number of colors: every row there is the one full colorset, so an
// entry is a sum of per-edge dot products over complementary halves.
// The global per-parent views (SplitTable, SingleActiveSplit::entries)
// address rows by global colorset index: the oracle
// (exact/colorful_dp.hpp) walks SplitTable, and the rooted pair lists
// are built from entries().

#include <cstdint>
#include <span>
#include <vector>

#include "comb/colorset.hpp"

namespace fascia {

/// General (h -> a + (h-a)) split table, a >= 1.
class SplitTable {
 public:
  SplitTable(int num_colors, int parent_size, int active_size);

  [[nodiscard]] int num_colors() const noexcept { return k_; }
  [[nodiscard]] int parent_size() const noexcept { return h_; }
  [[nodiscard]] int active_size() const noexcept { return a_; }

  [[nodiscard]] std::uint32_t num_parents() const noexcept {
    return num_parents_;
  }
  /// Splits per parent colorset: C(h, a).
  [[nodiscard]] std::uint32_t splits_per_parent() const noexcept {
    return per_parent_;
  }

  /// Active-child colorset indices for parent I (length splits_per_parent).
  [[nodiscard]] std::span<const ColorsetIndex> active_indices(
      ColorsetIndex parent) const noexcept {
    return {active_.data() + static_cast<std::size_t>(parent) * per_parent_, per_parent_};
  }
  /// Passive-child colorset indices, parallel to active_indices.
  [[nodiscard]] std::span<const ColorsetIndex> passive_indices(
      ColorsetIndex parent) const noexcept {
    return {passive_.data() + static_cast<std::size_t>(parent) * per_parent_, per_parent_};
  }

  /// Logical bytes held by the flat arrays (for memory reports).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return (active_.size() + passive_.size()) * sizeof(ColorsetIndex);
  }

 private:
  int k_, h_, a_;
  std::uint32_t num_parents_, per_parent_;
  std::vector<ColorsetIndex> active_;
  std::vector<ColorsetIndex> passive_;
};

/// Color-rooted lists for a general (h -> a + p) stage, a >= 1: every
/// index is a rooted slot (or, in the fold view, a global passive
/// index), so a kernel touches only colorsets containing the colors of
/// the rows it joins.
class RootedSplit {
 public:
  RootedSplit(int num_colors, int parent_size, int active_size);

  [[nodiscard]] int num_colors() const noexcept { return k_; }
  [[nodiscard]] int parent_size() const noexcept { return h_; }
  [[nodiscard]] int active_size() const noexcept { return a_; }

  /// Rooted parent slots (the output row width): C(k-1, h-1).
  [[nodiscard]] std::uint32_t num_parents() const noexcept {
    return num_parents_;
  }
  /// Rooted active slots (the active row width): C(k-1, a-1).
  [[nodiscard]] std::uint32_t num_actives() const noexcept {
    return num_actives_;
  }

  // ---- direct view: one group per (root, other, active slot) -----------
  // For a vertex of color `root` whose active row holds rooted slot
  // `active` (set A ∋ root), and a neighbor of color `other`, the group
  // lists every split of a parent S = A ∪ P with P ∋ other: the parent's
  // slot rooted at `root` and P's slot rooted at `other`.  Passives
  // ascend (monotone gather) and parents are distinct (conflict-free
  // scatter).  The group is empty when A ∋ other or other == root.

  [[nodiscard]] std::span<const ColorsetIndex> group_parents(
      int root, int other, ColorsetIndex active) const noexcept {
    const std::uint32_t* off = group_offsets(root, other) + active;
    return {group_parent_.data() + off[0], off[1] - off[0]};
  }
  [[nodiscard]] std::span<const ColorsetIndex> group_passives(
      int root, int other, ColorsetIndex active) const noexcept {
    const std::uint32_t* off = group_offsets(root, other) + active;
    return {group_passive_.data() + off[0], off[1] - off[0]};
  }

  // ---- fold view: parent-major per root color --------------------------
  // Rooted parent slot P of `root` owns the slice [P*splits_per_parent,
  // (P+1)*splits_per_parent) of two parallel arrays: the active child's
  // rooted slot and the passive child's GLOBAL index, for the splits
  // whose active side contains `root`, in SplitTable's per-parent
  // order.  A kernel that has summed its neighbors' passive rows into
  // one globally indexed row computes out[P] as a dot product over the
  // slice.

  /// Splits per rooted parent: C(h-1, a-1).
  [[nodiscard]] std::uint32_t splits_per_parent() const noexcept {
    return per_parent_;
  }
  [[nodiscard]] std::span<const ColorsetIndex> fold_actives(int root)
      const noexcept {
    return {fold_active_.data() + static_cast<std::size_t>(root) * fold_size_,
            fold_size_};
  }
  [[nodiscard]] std::span<const ColorsetIndex> fold_passives(int root)
      const noexcept {
    return {fold_passive_.data() + static_cast<std::size_t>(root) * fold_size_,
            fold_size_};
  }

  [[nodiscard]] std::size_t bytes() const noexcept {
    return (group_offset_.size() + group_parent_.size() +
            group_passive_.size() + fold_active_.size() +
            fold_passive_.size()) *
           sizeof(ColorsetIndex);
  }

 private:
  [[nodiscard]] const std::uint32_t* group_offsets(int root, int other)
      const noexcept {
    return group_offset_.data() +
           (static_cast<std::size_t>(root) * k_ + other) * (num_actives_ + 1);
  }

  int k_, h_, a_;
  std::uint32_t num_parents_, num_actives_, per_parent_;
  std::size_t fold_size_;
  std::vector<std::uint32_t> group_offset_;  ///< [root][other][active + 1]
  std::vector<ColorsetIndex> group_parent_;
  std::vector<ColorsetIndex> group_passive_;
  std::vector<ColorsetIndex> fold_active_;
  std::vector<ColorsetIndex> fold_passive_;
};

/// Specialized split table for active children of size 1.
class SingleActiveSplit {
 public:
  struct Entry {
    ColorsetIndex passive;  ///< index of parent-set-minus-{c} (size h-1)
    ColorsetIndex parent;   ///< index of the parent set (size h)
  };

  SingleActiveSplit(int num_colors, int parent_size);

  [[nodiscard]] int parent_size() const noexcept { return h_; }

  /// All (passive, parent) pairs whose parent colorset contains `color`,
  /// as GLOBAL indices.  Length is
  /// C(k-1, h-1) for every color; passive indices ascend.
  [[nodiscard]] std::span<const Entry> entries(int color) const noexcept {
    return {table_.data() + static_cast<std::size_t>(color) * per_color_, per_color_};
  }

  // ---- rooted pair lists (vectorized kernels) ---------------------------
  // For an ordered color pair (root, other), root != other, the lists
  // run over the parent sets S ⊇ {root, other} in colex order —
  // C(k-2, h-2) of them — as three parallel arrays of rooted slots:
  //   parents  — S rooted at `root` (the output row's slot);
  //   passives — S∖{root} rooted at `other`: the single-active kernel's
  //              slot in the passive row of a neighbor colored `other`;
  //   actives  — S∖{other} rooted at `root`: the single-passive
  //              kernel's slot in the active row of a vertex colored
  //              `root` whose neighbor is colored `other`.
  // Parents are distinct (conflict-free scatter under `omp simd`) and
  // passives and actives ascend (monotone gathers).  Empty when
  // root == other: such a neighbor cannot extend a colorful embedding.

  /// Entries per color pair: C(k-2, h-2).
  [[nodiscard]] std::uint32_t per_pair() const noexcept { return per_pair_; }

  [[nodiscard]] std::span<const ColorsetIndex> parents(int root, int other)
      const noexcept {
    return pair_span(pair_parent_, root, other);
  }
  [[nodiscard]] std::span<const ColorsetIndex> passives(int root, int other)
      const noexcept {
    return pair_span(pair_passive_, root, other);
  }
  [[nodiscard]] std::span<const ColorsetIndex> actives(int root, int other)
      const noexcept {
    return pair_span(pair_active_, root, other);
  }

  [[nodiscard]] std::size_t bytes() const noexcept {
    return table_.size() * sizeof(Entry) +
           (pair_parent_.size() + pair_passive_.size() +
            pair_active_.size()) *
               sizeof(ColorsetIndex);
  }

 private:
  [[nodiscard]] std::span<const ColorsetIndex> pair_span(
      const std::vector<ColorsetIndex>& list, int root,
      int other) const noexcept {
    if (root == other) return {};
    return {list.data() +
                (static_cast<std::size_t>(root) * k_ + other) * per_pair_,
            per_pair_};
  }

  int k_, h_;
  std::uint32_t per_color_, per_pair_;
  std::vector<Entry> table_;
  std::vector<ColorsetIndex> pair_parent_;   ///< [root][other][entry]
  std::vector<ColorsetIndex> pair_passive_;
  std::vector<ColorsetIndex> pair_active_;
};

/// Lists for a general join of size k (every color) with active size a
/// (2 <= a <= k-2).  Its rows hold one entry, the full colorset, and an
/// edge (v, u) contributes Σ_A T_a[v][A] · T_p[u][K∖A] over the active
/// sets A ∋ c(v), c(u) ∉ A: C(k-2, a-1) of them.  For an ordered color
/// pair (root, other), root != other, two parallel arrays of rooted
/// slots run over those A in colex order:
///   actives  — A rooted at `root` (ascending: a monotone gather);
///   passives — K∖A rooted at `other`.
/// Empty when root == other: no colorful embedding maps an edge there.
class ComplementSplit {
 public:
  ComplementSplit(int num_colors, int active_size);

  /// Entries per color pair: C(k-2, a-1).
  [[nodiscard]] std::uint32_t per_pair() const noexcept { return per_pair_; }

  [[nodiscard]] std::span<const ColorsetIndex> actives(int root, int other)
      const noexcept {
    return pair_span(pair_active_, root, other);
  }
  [[nodiscard]] std::span<const ColorsetIndex> passives(int root, int other)
      const noexcept {
    return pair_span(pair_passive_, root, other);
  }

 private:
  [[nodiscard]] std::span<const ColorsetIndex> pair_span(
      const std::vector<ColorsetIndex>& list, int root,
      int other) const noexcept {
    if (root == other) return {};
    return {list.data() +
                (static_cast<std::size_t>(root) * k_ + other) * per_pair_,
            per_pair_};
  }

  int k_, a_;
  std::uint32_t per_pair_;
  std::vector<ColorsetIndex> pair_active_;  ///< [root][other][entry]
  std::vector<ColorsetIndex> pair_passive_;
};

}  // namespace fascia
