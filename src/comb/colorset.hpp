#pragma once
// Colorset <-> integer bijection via the combinatorial number system.
//
// A colorset is a set of h distinct colors drawn from {0, ..., k-1}.
// Sorting the set ascending as c1 < c2 < ... < ch, its index is
//   I = C(c1, 1) + C(c2, 2) + ... + C(ch, h),
// a bijection onto [0, C(k, h)).  Representing colorsets as one integer
// is the paper's §III-B trick: the DP table's innermost dimension is a
// plain array indexed by I, and set manipulation (splits, removals)
// becomes precomputed integer lookups.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "comb/binomial.hpp"

namespace fascia {

using ColorsetIndex = std::uint32_t;

/// Number of colorsets of size h over k colors (= C(k, h)).
inline std::uint32_t num_colorsets(int k, int h) noexcept {
  return static_cast<std::uint32_t>(choose(k, h));
}

/// Encodes a strictly-increasing color sequence.  Precondition:
/// colors are sorted ascending and distinct.
ColorsetIndex colorset_index(std::span<const int> sorted_colors) noexcept;

/// Decodes index I back into the h sorted colors it represents,
/// appending to `out` (cleared first).
void colorset_colors(ColorsetIndex index, int h, std::vector<int>& out);

/// Convenience wrapper returning a fresh vector.
std::vector<int> colorset_colors(ColorsetIndex index, int h);

/// In-place *colexicographic* successor over size-h subsets of
/// {0..k-1}.  Returns false when `colors` was the last subset.  Start
/// from {0, 1, ..., h-1}.  Colex order matches combinadic index order,
/// so iterating this way visits indices 0, 1, 2, ... exactly (a
/// property the tests pin down).
bool next_colorset(std::span<int> colors, int k) noexcept;

/// True when color `c` is a member of the set encoded by (index, h).
bool colorset_contains(ColorsetIndex index, int h, int c);

// ---- color-rooted slots ------------------------------------------------
//
// A DP row at vertex v counts embeddings whose root maps to v, so only
// colorsets containing v's own color c can be nonzero.  Rows therefore
// store C(k-1, h-1) slots instead of C(k, h): the slot of S ∋ c is the
// combinadic index of S∖{c} over the other k-1 colors, with colors
// above c shifted down by one.  The relabelling is monotone, so slot
// order is the colex order of the sets the slots stand for.

/// Slots per color-rooted row: C(k-1, h-1).
inline std::uint32_t num_rooted_colorsets(int k, int h) noexcept {
  return static_cast<std::uint32_t>(choose(k - 1, h - 1));
}

/// "Colorset does not contain the root color" — no rooted slot.
inline constexpr ColorsetIndex kNoRootedSlot = ~ColorsetIndex{0};

/// The translation between global colorset indices and color-rooted
/// slots for size-h sets over k colors, tabulated both ways.  Every
/// caller that addresses a DP row by global colorset (the embedding
/// extractor, the bit-identity checks against exact/colorful_dp) and
/// every kernel index list is built through it.
class RootedColorsets {
 public:
  RootedColorsets(int num_colors, int set_size);

  [[nodiscard]] int num_colors() const noexcept { return k_; }
  [[nodiscard]] int set_size() const noexcept { return h_; }
  /// Row width: C(k-1, h-1).
  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }

  /// Slot of global set `global` in a row rooted at `color`, or
  /// kNoRootedSlot when the set does not contain `color`.
  [[nodiscard]] ColorsetIndex slot(int color,
                                   ColorsetIndex global) const noexcept {
    return slot_[static_cast<std::size_t>(color) * num_sets_ + global];
  }

  /// Global set index of `slot` in a row rooted at `color`.
  [[nodiscard]] ColorsetIndex global(int color,
                                     ColorsetIndex slot) const noexcept {
    return global_[static_cast<std::size_t>(color) * width_ + slot];
  }

  /// All of `color`'s rooted slots as global indices (slot order).
  [[nodiscard]] std::span<const ColorsetIndex> globals(int color)
      const noexcept {
    return {global_.data() + static_cast<std::size_t>(color) * width_,
            width_};
  }

 private:
  int k_, h_;
  std::uint32_t num_sets_, width_;
  std::vector<ColorsetIndex> slot_;    ///< [color][global] -> slot
  std::vector<ColorsetIndex> global_;  ///< [color][slot] -> global
};

// ---- rank/select over colorset-indexed bitmaps -----------------------
//
// The succinct DP table (dp/table_succinct.hpp) stores each vertex row
// as its nonzero values only, addressed through a bitmap of C(k-1, h-1)
// bits — one per color-rooted slot — with a per-word cumulative-popcount
// rank directory.  rank(I) maps a colorset index to its position among
// the nonzero slots in O(1); select(r) inverts it for iteration.  The
// helpers live here because the bit position IS the combinadic index:
// they are colorset-set operations, not generic bit twiddling.  The bit
// position is the row's rooted slot (above), itself a combinadic index
// over k-1 colors.

/// 64-bit words needed for a bitmap of `num_bits` colorset slots.
inline std::size_t colorset_bitmap_words(std::uint64_t num_bits) noexcept {
  return static_cast<std::size_t>((num_bits + 63) / 64);
}

/// Membership test for colorset index `idx` in a bitmap.
inline bool colorset_bitmap_test(const std::uint64_t* words,
                                 ColorsetIndex idx) noexcept {
  return (words[idx >> 6] >> (idx & 63)) & 1u;
}

/// Marks colorset index `idx` (single-threaded build only).
inline void colorset_bitmap_set(std::uint64_t* words,
                                ColorsetIndex idx) noexcept {
  words[idx >> 6] |= std::uint64_t{1} << (idx & 63);
}

/// Fills ranks[w] = popcount of words[0..w) — the rank directory.
/// 32-bit entries: the widest practical row (C(19,9) rooted slots) has
/// far fewer than 2^32 set bits per row.
void colorset_bitmap_build_ranks(const std::uint64_t* words,
                                 std::size_t num_words,
                                 std::uint32_t* ranks) noexcept;

/// Number of set bits strictly below `idx` — the packed-value position
/// of a PRESENT index.  O(1): one directory read plus one popcount.
inline std::uint32_t colorset_bitmap_rank(const std::uint64_t* words,
                                          const std::uint32_t* ranks,
                                          ColorsetIndex idx) noexcept {
  const std::uint64_t below = words[idx >> 6] &
                              ((std::uint64_t{1} << (idx & 63)) - 1);
  return ranks[idx >> 6] + static_cast<std::uint32_t>(std::popcount(below));
}

/// Index of the r-th (0-based) set bit, or -1 when fewer than r+1 bits
/// are set.  Linear in words — used for row iteration, not inner loops.
std::int64_t colorset_bitmap_select(const std::uint64_t* words,
                                    std::size_t num_words,
                                    std::uint32_t r) noexcept;

}  // namespace fascia
