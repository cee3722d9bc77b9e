#include "treelet/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "treelet/catalog.hpp"
#include "treelet/free_trees.hpp"
#include "util/error.hpp"

namespace fascia {
namespace {

struct StrategyParam {
  PartitionStrategy strategy;
  bool share;
};

class PartitionInvariants
    : public ::testing::TestWithParam<std::tuple<int, PartitionStrategy, bool>> {
};

TEST_P(PartitionInvariants, StructureIsWellFormed) {
  const auto [k, strategy, share] = GetParam();
  for (const TreeTemplate& tree : all_free_trees(k)) {
    const PartitionTree part = partition_template(tree, strategy, share);
    const auto& nodes = part.nodes();
    ASSERT_FALSE(nodes.empty());

    // Root node covers the full template.
    EXPECT_EQ(nodes.back().size(), k);

    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Subtemplate& node = nodes[i];
      // Root belongs to the node's vertex set.
      EXPECT_TRUE(std::binary_search(node.vertices.begin(),
                                     node.vertices.end(), node.root));
      if (node.is_leaf()) {
        EXPECT_EQ(node.size(), 1);
        continue;
      }
      // Topological order: children strictly before parents.
      ASSERT_LT(node.active, static_cast<int>(i));
      ASSERT_LT(node.passive, static_cast<int>(i));
      const Subtemplate& active = part.node(node.active);
      const Subtemplate& passive = part.node(node.passive);
      // Sizes partition the parent.
      EXPECT_EQ(active.size() + passive.size(), node.size());
      // Canonical keys are non-empty and size-prefixed.
      EXPECT_FALSE(node.canon.empty());
    }
  }
}

TEST_P(PartitionInvariants, CutsAdjacentToRoot) {
  // Without sharing, the recorded vertex sets are exact, so we can
  // verify the root-adjacency requirement structurally.
  const auto [k, strategy, share] = GetParam();
  if (share) GTEST_SKIP() << "vertex sets are representative under sharing";
  for (const TreeTemplate& tree : all_free_trees(k)) {
    const PartitionTree part = partition_template(tree, strategy, false);
    for (const Subtemplate& node : part.nodes()) {
      if (node.is_leaf()) continue;
      const Subtemplate& active = part.node(node.active);
      const Subtemplate& passive = part.node(node.passive);
      // Active keeps the root; passive is rooted at a template
      // neighbor of the parent root.
      EXPECT_EQ(active.root, node.root);
      EXPECT_TRUE(tree.has_edge(node.root, passive.root))
          << tree.describe();
      // The two children exactly partition the parent's vertices.
      std::vector<int> merged;
      std::merge(active.vertices.begin(), active.vertices.end(),
                 passive.vertices.begin(), passive.vertices.end(),
                 std::back_inserter(merged));
      EXPECT_EQ(merged, node.vertices);
    }
  }
}

TEST_P(PartitionInvariants, FreeScheduleIsConsistent) {
  const auto [k, strategy, share] = GetParam();
  for (const TreeTemplate& tree : all_free_trees(k)) {
    const PartitionTree part = partition_template(tree, strategy, share);
    const auto& nodes = part.nodes();
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
      // No node may be consumed after its free point.
      for (std::size_t j = 0; j < nodes.size(); ++j) {
        if (nodes[j].active == static_cast<int>(i) ||
            nodes[j].passive == static_cast<int>(i)) {
          ASSERT_NE(nodes[i].free_after, -1);
          EXPECT_GE(nodes[i].free_after, static_cast<int>(j));
        }
      }
    }
    EXPECT_EQ(nodes.back().free_after, -1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionInvariants,
    ::testing::Combine(::testing::Values(2, 3, 5, 7, 10),
                       ::testing::Values(PartitionStrategy::kOneAtATime,
                                         PartitionStrategy::kBalanced),
                       ::testing::Bool()));

TEST(Partition, SharingNeverIncreasesNodeCount) {
  for (int k : {5, 7, 10, 12}) {
    for (const TreeTemplate& tree : all_free_trees(k)) {
      const auto shared =
          partition_template(tree, PartitionStrategy::kOneAtATime, true);
      const auto unshared =
          partition_template(tree, PartitionStrategy::kOneAtATime, false);
      EXPECT_LE(shared.num_nodes(), unshared.num_nodes());
    }
  }
}

TEST(Partition, SymmetricTemplateShares) {
  // U7-2's three identical legs must collapse under sharing.
  const TreeTemplate& spider = catalog_entry("U7-2").tree;
  const auto shared =
      partition_template(spider, PartitionStrategy::kOneAtATime, true);
  const auto unshared =
      partition_template(spider, PartitionStrategy::kOneAtATime, false);
  EXPECT_LT(shared.num_nodes(), unshared.num_nodes());
}

TEST(Partition, MaxLiveTablesSmall) {
  // The paper: "at any instance, the tables and counts for at most
  // four subtemplates need to be active at once."
  for (int k : {3, 5, 7, 10, 12}) {
    for (const TreeTemplate& tree : all_free_trees(k)) {
      const auto part =
          partition_template(tree, PartitionStrategy::kOneAtATime, true);
      EXPECT_LE(part.max_live_tables(), 5) << tree.describe();
    }
  }
}

TEST(Partition, RootOverrideRespected) {
  const TreeTemplate path = TreeTemplate::path(5);
  for (int root = 0; root < 5; ++root) {
    const auto part = partition_template(
        path, PartitionStrategy::kOneAtATime, true, root);
    EXPECT_EQ(part.template_root(), root);
  }
  EXPECT_THROW(
      partition_template(path, PartitionStrategy::kOneAtATime, true, 7),
      fascia::Error);
}

TEST(Partition, OneAtATimeRootIsLeafByDefault) {
  const TreeTemplate& spider = catalog_entry("U7-2").tree;
  const auto part =
      partition_template(spider, PartitionStrategy::kOneAtATime, true);
  EXPECT_EQ(spider.degree(part.template_root()), 1);
}

TEST(Partition, DpCostPositiveAndStrategySensitive) {
  const TreeTemplate path = TreeTemplate::path(10);
  const auto oaat =
      partition_template(path, PartitionStrategy::kOneAtATime, true);
  const auto balanced =
      partition_template(path, PartitionStrategy::kBalanced, true);
  EXPECT_GT(oaat.dp_cost(10), 0.0);
  EXPECT_GT(balanced.dp_cost(10), 0.0);
  // For a long path the cost models differ between strategies.
  EXPECT_NE(oaat.dp_cost(10), balanced.dp_cost(10));
}

TEST(Partition, DescribeListsAllNodes) {
  const auto part = partition_template(TreeTemplate::path(4),
                                       PartitionStrategy::kOneAtATime, true);
  const std::string text = part.describe();
  EXPECT_NE(text.find("size=4"), std::string::npos);
  EXPECT_NE(text.find("free_after"), std::string::npos);
}

TEST(Partition, BalancedCentreCutOfU10OneSharesItsHalves) {
  // The planner's pick for U10-1 (sched/plan.hpp): cut at the centre,
  // both halves are the same rooted 5-path, so sharing leaves 5 DP
  // stages against one-at-a-time's 9.
  const TreeTemplate& u10 = catalog_entry("U10-1").tree;
  const auto stages = [](const PartitionShape& shape) {
    return std::count_if(shape.begin(), shape.end(),
                         [](const ShapeNode& node) { return !node.is_leaf(); });
  };
  CanonIds ids;
  PartitionShaper balanced(u10, PartitionStrategy::kBalanced, true, ids);
  PartitionShaper oaat(u10, PartitionStrategy::kOneAtATime, true, ids);
  const PartitionShape centre = balanced.build(4);
  EXPECT_EQ(stages(centre), 5);
  const ShapeNode& top = centre.back();
  EXPECT_EQ(centre[static_cast<std::size_t>(top.active)].canon,
            centre[static_cast<std::size_t>(top.passive)].canon);
  EXPECT_EQ(
      stages(oaat.build(default_root(u10, PartitionStrategy::kOneAtATime))),
      9);
  // The shape is what partition_template materializes.
  const PartitionTree tree =
      partition_template(u10, PartitionStrategy::kBalanced, true, 4);
  EXPECT_EQ(tree.num_nodes(), static_cast<int>(centre.size()));
  EXPECT_EQ(tree.template_root(), 4);
}

TEST(Partition, UnsetStrategyIsNamedPlanned) {
  EXPECT_STREQ(partition_strategy_name(std::nullopt), "planned");
  EXPECT_STREQ(partition_strategy_name(PartitionStrategy::kOneAtATime),
               "one_at_a_time");
  EXPECT_STREQ(partition_strategy_name(PartitionStrategy::kBalanced),
               "balanced");
}

TEST(Partition, SingleVertexTemplate) {
  const TreeTemplate single = TreeTemplate::from_edges(1, {});
  const auto part =
      partition_template(single, PartitionStrategy::kOneAtATime, true);
  EXPECT_EQ(part.num_nodes(), 1);
  EXPECT_TRUE(part.nodes().front().is_leaf());
}

}  // namespace
}  // namespace fascia
