#include "comb/colorset.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

namespace fascia {
namespace {

TEST(Colorset, KnownIndices) {
  // k=4, h=2 in colex order.
  EXPECT_EQ(colorset_index(std::vector<int>{0, 1}), 0u);
  EXPECT_EQ(colorset_index(std::vector<int>{0, 2}), 1u);
  EXPECT_EQ(colorset_index(std::vector<int>{1, 2}), 2u);
  EXPECT_EQ(colorset_index(std::vector<int>{0, 3}), 3u);
  EXPECT_EQ(colorset_index(std::vector<int>{1, 3}), 4u);
  EXPECT_EQ(colorset_index(std::vector<int>{2, 3}), 5u);
}

TEST(Colorset, SingletonIndexIsColor) {
  for (int c = 0; c < 12; ++c) {
    EXPECT_EQ(colorset_index(std::vector<int>{c}),
              static_cast<ColorsetIndex>(c));
  }
}

struct KhParam {
  int k;
  int h;
};

class ColorsetRoundTrip : public ::testing::TestWithParam<KhParam> {};

TEST_P(ColorsetRoundTrip, EncodeDecodeBijective) {
  const auto [k, h] = GetParam();
  const auto count = num_colorsets(k, h);
  std::set<std::vector<int>> seen;
  for (ColorsetIndex index = 0; index < count; ++index) {
    const auto colors = colorset_colors(index, h);
    ASSERT_EQ(static_cast<int>(colors.size()), h);
    for (std::size_t i = 0; i + 1 < colors.size(); ++i) {
      ASSERT_LT(colors[i], colors[i + 1]);
    }
    ASSERT_LT(colors.back(), k);
    ASSERT_GE(colors.front(), 0);
    EXPECT_EQ(colorset_index(colors), index);
    EXPECT_TRUE(seen.insert(colors).second);
  }
  EXPECT_EQ(seen.size(), count);
}

TEST_P(ColorsetRoundTrip, ColexIterationMatchesIndexOrder) {
  const auto [k, h] = GetParam();
  std::vector<int> colors(static_cast<std::size_t>(h));
  std::iota(colors.begin(), colors.end(), 0);
  ColorsetIndex expected = 0;
  do {
    EXPECT_EQ(colorset_index(colors), expected);
    ++expected;
  } while (next_colorset(colors, k));
  EXPECT_EQ(expected, num_colorsets(k, h));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ColorsetRoundTrip,
    ::testing::Values(KhParam{3, 1}, KhParam{3, 3}, KhParam{5, 2},
                      KhParam{7, 4}, KhParam{10, 5}, KhParam{12, 6},
                      KhParam{12, 12}, KhParam{16, 3}));

// ---- color-rooted slots: for every k <= 12, size h and color c, the
// helper is a bijection from {S ∋ c} onto [0, C(k-1, h-1)) that keeps
// the colex order, and expand(rooted(S)) == S.
TEST(RootedColorsets, BijectionKeepingColexOrder) {
  for (int k = 1; k <= 12; ++k) {
    for (int h = 1; h <= k; ++h) {
      const RootedColorsets sets(k, h);
      ASSERT_EQ(sets.width(), num_rooted_colorsets(k, h));
      ASSERT_EQ(sets.width(), choose(k - 1, h - 1));
      for (int c = 0; c < k; ++c) {
        ColorsetIndex expected_slot = 0;
        for (ColorsetIndex set = 0; set < num_colorsets(k, h); ++set) {
          const ColorsetIndex slot = sets.slot(c, set);
          if (!colorset_contains(set, h, c)) {
            ASSERT_EQ(slot, kNoRootedSlot) << k << " " << h << " " << c;
            continue;
          }
          // Members of c arrive in global (colex) order and take the
          // slots 0, 1, 2, ... in turn: onto, injective, order-keeping.
          ASSERT_EQ(slot, expected_slot) << k << " " << h << " " << c;
          ASSERT_EQ(sets.global(c, slot), set);
          ++expected_slot;
        }
        ASSERT_EQ(expected_slot, sets.width());
        const auto globals = sets.globals(c);
        ASSERT_EQ(globals.size(), sets.width());
        for (ColorsetIndex slot = 0; slot < sets.width(); ++slot) {
          ASSERT_EQ(globals[slot], sets.global(c, slot));
          ASSERT_EQ(sets.slot(c, sets.global(c, slot)), slot);
        }
      }
    }
  }
}

TEST(RootedColorsets, SlotIsIndexOfRestWithHigherColorsShifted) {
  // {1, 3, 4} over k = 6, rooted at 3: the rest {1, 4} relabels to
  // {1, 3}, whose combinadic index is C(1,1) + C(3,2) = 4.
  const RootedColorsets sets(6, 3);
  const ColorsetIndex set = colorset_index(std::vector<int>{1, 3, 4});
  EXPECT_EQ(sets.slot(3, set), 4u);
  EXPECT_EQ(sets.slot(1, set), colorset_index(std::vector<int>{2, 3}));
  EXPECT_EQ(sets.slot(4, set), colorset_index(std::vector<int>{1, 3}));
  EXPECT_EQ(sets.slot(0, set), kNoRootedSlot);
  // A singleton roots at slot 0 of a width-1 row.
  const RootedColorsets singles(6, 1);
  EXPECT_EQ(singles.width(), 1u);
  EXPECT_EQ(singles.slot(5, 5), 0u);
  EXPECT_EQ(singles.slot(4, 5), kNoRootedSlot);
}

TEST(Colorset, ContainsIsMembership) {
  const std::vector<int> colors = {1, 3, 4};
  const ColorsetIndex index = colorset_index(colors);
  for (int c = 0; c < 6; ++c) {
    EXPECT_EQ(colorset_contains(index, 3, c),
              c == 1 || c == 3 || c == 4);
  }
}

TEST(Colorset, NumColorsets) {
  EXPECT_EQ(num_colorsets(12, 6), 924u);
  EXPECT_EQ(num_colorsets(5, 5), 1u);
  EXPECT_EQ(num_colorsets(5, 0), 1u);
}

}  // namespace
}  // namespace fascia
