#include "comb/split_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

namespace fascia {
namespace {

struct SplitParam {
  int k;
  int h;
  int a;
};

class SplitTableProperty : public ::testing::TestWithParam<SplitParam> {};

TEST_P(SplitTableProperty, EverySplitIsDisjointUnionOfParent) {
  const auto [k, h, a] = GetParam();
  const SplitTable table(k, h, a);
  EXPECT_EQ(table.num_parents(), num_colorsets(k, h));
  EXPECT_EQ(table.splits_per_parent(), num_colorsets(h, a));

  for (ColorsetIndex parent = 0; parent < table.num_parents(); ++parent) {
    const auto parent_colors = colorset_colors(parent, h);
    const auto actives = table.active_indices(parent);
    const auto passives = table.passive_indices(parent);
    ASSERT_EQ(actives.size(), passives.size());
    std::set<std::pair<ColorsetIndex, ColorsetIndex>> unique;
    for (std::size_t s = 0; s < actives.size(); ++s) {
      const auto act = colorset_colors(actives[s], a);
      const auto pas = colorset_colors(passives[s], h - a);
      // Disjoint union == parent.
      std::vector<int> merged;
      std::merge(act.begin(), act.end(), pas.begin(), pas.end(),
                 std::back_inserter(merged));
      ASSERT_EQ(merged, parent_colors);
      EXPECT_TRUE(unique.emplace(actives[s], passives[s]).second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SplitTableProperty,
    ::testing::Values(SplitParam{3, 2, 1}, SplitParam{5, 3, 1},
                      SplitParam{5, 4, 2}, SplitParam{7, 5, 2},
                      SplitParam{7, 7, 3}, SplitParam{10, 6, 3},
                      SplitParam{12, 5, 2}));

/// Global index of `colors` minus `drop` (sorted input, member drop).
ColorsetIndex without(std::vector<int> colors, int drop) {
  colors.erase(std::find(colors.begin(), colors.end(), drop));
  return colorset_index(colors);
}

TEST_P(SplitTableProperty, RootedGroupsAreTheSplitsHoldingBothColors) {
  const auto [k, h, a] = GetParam();
  const SplitTable global(k, h, a);
  const RootedSplit rooted(k, h, a);
  const RootedColorsets parents(k, h), actives(k, a), passives(k, h - a);
  EXPECT_EQ(rooted.num_parents(), num_rooted_colorsets(k, h));
  EXPECT_EQ(rooted.num_actives(), num_rooted_colorsets(k, a));

  // Ground truth from the global view: split (A, P) of S belongs to
  // group (root, other, slot of A) for every root ∈ A and other ∈ P.
  using Entry = std::tuple<int, int, ColorsetIndex, ColorsetIndex,
                           ColorsetIndex>;
  std::set<Entry> expected;
  for (ColorsetIndex parent = 0; parent < global.num_parents(); ++parent) {
    const auto act = global.active_indices(parent);
    const auto pas = global.passive_indices(parent);
    for (std::size_t s = 0; s < act.size(); ++s) {
      for (const int root : colorset_colors(act[s], a)) {
        for (const int other : colorset_colors(pas[s], h - a)) {
          expected.emplace(root, other, actives.slot(root, act[s]),
                           parents.slot(root, parent),
                           passives.slot(other, pas[s]));
        }
      }
    }
  }

  std::set<Entry> grouped;
  for (int root = 0; root < k; ++root) {
    for (int other = 0; other < k; ++other) {
      for (ColorsetIndex act = 0; act < rooted.num_actives(); ++act) {
        const auto gpar = rooted.group_parents(root, other, act);
        const auto gpas = rooted.group_passives(root, other, act);
        ASSERT_EQ(gpar.size(), gpas.size());
        const bool holds_other =
            actives.slot(other, actives.global(root, act)) != kNoRootedSlot;
        if (root == other || holds_other) {
          EXPECT_TRUE(gpar.empty());
        } else {
          EXPECT_EQ(gpar.size(), choose(k - a - 1, h - a - 1));
        }
        std::set<ColorsetIndex> parents_seen;
        for (std::size_t s = 0; s < gpar.size(); ++s) {
          // Passives ascend (monotone gather), parents are distinct
          // (conflict-free scatter).
          if (s > 0) {
            EXPECT_LT(gpas[s - 1], gpas[s]);
          }
          EXPECT_TRUE(parents_seen.insert(gpar[s]).second);
          grouped.emplace(root, other, act, gpar[s], gpas[s]);
        }
      }
    }
  }
  EXPECT_EQ(grouped, expected);
}

TEST_P(SplitTableProperty, RootedFoldViewFiltersPerParentSplits) {
  const auto [k, h, a] = GetParam();
  const SplitTable global(k, h, a);
  const RootedSplit rooted(k, h, a);
  const RootedColorsets parents(k, h), actives(k, a);
  const std::uint32_t per = rooted.splits_per_parent();
  EXPECT_EQ(per, num_colorsets(h - 1, a - 1));
  for (int root = 0; root < k; ++root) {
    const auto fold_act = rooted.fold_actives(root);
    const auto fold_pas = rooted.fold_passives(root);
    ASSERT_EQ(fold_act.size(),
              static_cast<std::size_t>(rooted.num_parents()) * per);
    ASSERT_EQ(fold_pas.size(), fold_act.size());
    for (ColorsetIndex slot = 0; slot < rooted.num_parents(); ++slot) {
      const ColorsetIndex parent = parents.global(root, slot);
      const auto act = global.active_indices(parent);
      const auto pas = global.passive_indices(parent);
      std::size_t at = static_cast<std::size_t>(slot) * per;
      for (std::size_t s = 0; s < act.size(); ++s) {
        const ColorsetIndex act_slot = actives.slot(root, act[s]);
        if (act_slot == kNoRootedSlot) continue;
        EXPECT_EQ(fold_act[at], act_slot);
        EXPECT_EQ(fold_pas[at], pas[s]);
        ++at;
      }
      EXPECT_EQ(at, static_cast<std::size_t>(slot + 1) * per);
    }
  }
}

TEST(SplitTable, RejectsBadShapes) {
  EXPECT_THROW(SplitTable(5, 3, 0), std::invalid_argument);
  EXPECT_THROW(SplitTable(5, 3, 3), std::invalid_argument);
  EXPECT_THROW(SplitTable(5, 6, 2), std::invalid_argument);
}

TEST(SplitTable, BytesPositive) {
  EXPECT_GT(SplitTable(7, 4, 2).bytes(), 0u);
}

class SingleActiveProperty : public ::testing::TestWithParam<SplitParam> {};

TEST_P(SingleActiveProperty, EntriesAreParentMinusColor) {
  const auto [k, h, a_unused] = GetParam();
  (void)a_unused;
  const SingleActiveSplit split(k, h);
  for (int c = 0; c < k; ++c) {
    const auto entries = split.entries(c);
    EXPECT_EQ(entries.size(),
              static_cast<std::size_t>(num_colorsets(k - 1, h - 1)));
    std::set<ColorsetIndex> parents_seen;
    for (const auto& entry : entries) {
      const auto parent_colors = colorset_colors(entry.parent, h);
      const auto passive_colors = colorset_colors(entry.passive, h - 1);
      // Parent = passive + {c}.
      EXPECT_TRUE(std::binary_search(parent_colors.begin(),
                                     parent_colors.end(), c));
      std::vector<int> expected = passive_colors;
      expected.insert(std::upper_bound(expected.begin(), expected.end(), c),
                      c);
      EXPECT_EQ(expected, parent_colors);
      EXPECT_TRUE(parents_seen.insert(entry.parent).second);
    }
  }
}

TEST_P(SingleActiveProperty, EveryParentContainingColorAppears) {
  const auto [k, h, a_unused] = GetParam();
  (void)a_unused;
  const SingleActiveSplit split(k, h);
  for (int c = 0; c < k; ++c) {
    std::set<ColorsetIndex> covered;
    for (const auto& entry : split.entries(c)) covered.insert(entry.parent);
    for (ColorsetIndex parent = 0; parent < num_colorsets(k, h); ++parent) {
      EXPECT_EQ(covered.count(parent) > 0, colorset_contains(parent, h, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SingleActiveProperty,
    ::testing::Values(SplitParam{3, 2, 0}, SplitParam{5, 3, 0},
                      SplitParam{7, 4, 0}, SplitParam{10, 7, 0},
                      SplitParam{12, 12, 0}));

TEST_P(SingleActiveProperty, PairListsAreRootedSetsHoldingBothColors) {
  const auto [k, h, a_unused] = GetParam();
  (void)a_unused;
  const SingleActiveSplit split(k, h);
  const RootedColorsets parents(k, h), rests(k, h - 1);
  EXPECT_EQ(split.per_pair(), num_colorsets(k - 2, h - 2));
  for (int root = 0; root < k; ++root) {
    for (int other = 0; other < k; ++other) {
      const auto par = split.parents(root, other);
      const auto pas = split.passives(root, other);
      const auto act = split.actives(root, other);
      if (root == other) {
        EXPECT_TRUE(par.empty() && pas.empty() && act.empty());
        continue;
      }
      ASSERT_EQ(par.size(), split.per_pair());
      ASSERT_EQ(pas.size(), par.size());
      ASSERT_EQ(act.size(), par.size());
      for (std::size_t s = 0; s < par.size(); ++s) {
        const ColorsetIndex set = parents.global(root, par[s]);
        const auto colors = colorset_colors(set, h);
        EXPECT_TRUE(std::binary_search(colors.begin(), colors.end(), other));
        EXPECT_EQ(pas[s], rests.slot(other, without(colors, root)));
        EXPECT_EQ(act[s], rests.slot(root, without(colors, other)));
        if (s > 0) {
          EXPECT_LT(par[s - 1], par[s]);
          EXPECT_LT(pas[s - 1], pas[s]);
          EXPECT_LT(act[s - 1], act[s]);
        }
      }
    }
  }
}

TEST(SingleActiveSplit, RejectsBadShapes) {
  EXPECT_THROW(SingleActiveSplit(5, 1), std::invalid_argument);
  EXPECT_THROW(SingleActiveSplit(5, 6), std::invalid_argument);
}

class ComplementProperty : public ::testing::TestWithParam<SplitParam> {};

TEST_P(ComplementProperty, PairListsAreComplementaryHalves) {
  const auto [k, a, h_unused] = GetParam();
  (void)h_unused;
  const ComplementSplit split(k, a);
  const RootedColorsets actives(k, a), passives(k, k - a);
  EXPECT_EQ(split.per_pair(), num_colorsets(k - 2, a - 1));
  for (int root = 0; root < k; ++root) {
    for (int other = 0; other < k; ++other) {
      const auto act = split.actives(root, other);
      const auto pas = split.passives(root, other);
      if (root == other) {
        EXPECT_TRUE(act.empty() && pas.empty());
        continue;
      }
      ASSERT_EQ(act.size(), split.per_pair());
      ASSERT_EQ(pas.size(), act.size());
      for (std::size_t s = 0; s < act.size(); ++s) {
        const auto active = colorset_colors(actives.global(root, act[s]), a);
        const auto passive =
            colorset_colors(passives.global(other, pas[s]), k - a);
        EXPECT_FALSE(
            std::binary_search(active.begin(), active.end(), other));
        std::vector<int> merged;
        std::merge(active.begin(), active.end(), passive.begin(),
                   passive.end(), std::back_inserter(merged));
        ASSERT_EQ(merged.size(), static_cast<std::size_t>(k));
        for (int c = 0; c < k; ++c) EXPECT_EQ(merged[c], c);
        if (s > 0) EXPECT_LT(act[s - 1], act[s]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ComplementProperty,
                         ::testing::Values(SplitParam{4, 2, 0},
                                           SplitParam{7, 3, 0},
                                           SplitParam{8, 4, 0},
                                           SplitParam{10, 5, 0},
                                           SplitParam{10, 3, 0}));

TEST(ComplementSplit, RejectsBadShapes) {
  EXPECT_THROW(ComplementSplit(5, 1), std::invalid_argument);
  EXPECT_THROW(ComplementSplit(5, 4), std::invalid_argument);
}

}  // namespace
}  // namespace fascia
