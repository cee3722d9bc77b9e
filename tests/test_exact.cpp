#include "exact/backtrack.hpp"

#include <gtest/gtest.h>

#include "exact/colorful_dp.hpp"
#include "exact/pattern_growth.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/labels.hpp"
#include "helpers.hpp"
#include "treelet/canonical.hpp"
#include "treelet/free_trees.hpp"
#include "treelet/mixed_partition.hpp"
#include "treelet/partition.hpp"
#include "util/rng.hpp"

namespace fascia {
namespace {

TEST(ExactBacktrack, HandComputedCounts) {
  // P3 occurrences in a path of 5: 3.  In a star of 5: C(4,2) = 6.
  EXPECT_DOUBLE_EQ(
      exact::count_embeddings(testing::path_graph(5), TreeTemplate::path(3)),
      3.0);
  EXPECT_DOUBLE_EQ(
      exact::count_embeddings(testing::star_graph(5), TreeTemplate::path(3)),
      6.0);
  // Edges: P2 count equals m.
  EXPECT_DOUBLE_EQ(
      exact::count_embeddings(testing::complete_graph(5),
                              TreeTemplate::path(2)),
      10.0);
  // P3 in K4: 4 * C(3,2) = 12 (center choice x neighbor pair).
  EXPECT_DOUBLE_EQ(
      exact::count_embeddings(testing::complete_graph(4),
                              TreeTemplate::path(3)),
      12.0);
  // Star S4 (claw) in K4: each vertex is a center once: 4.
  EXPECT_DOUBLE_EQ(
      exact::count_embeddings(testing::complete_graph(4),
                              TreeTemplate::star(4)),
      4.0);
}

TEST(ExactBacktrack, SingleVertexCountsVertices) {
  EXPECT_DOUBLE_EQ(exact::count_embeddings(testing::path_graph(7),
                                           TreeTemplate::from_edges(1, {})),
                   7.0);
}

TEST(ExactBacktrack, MapsAreAlphaTimesEmbeddings) {
  const Graph g = largest_component(erdos_renyi_gnm(30, 70, 5));
  for (int k = 2; k <= 6; ++k) {
    for (const TreeTemplate& tree : all_free_trees(k)) {
      const double maps = exact::count_maps(g, tree);
      const double embeddings = exact::count_embeddings(g, tree);
      EXPECT_DOUBLE_EQ(maps, embeddings *
                                 static_cast<double>(automorphisms(tree)));
    }
  }
}

TEST(ExactBacktrack, MatchesReferenceBruteForce) {
  const Graph g = largest_component(erdos_renyi_gnm(35, 80, 3));
  for (int k = 3; k <= 6; ++k) {
    for (const TreeTemplate& tree : all_free_trees(k)) {
      EXPECT_DOUBLE_EQ(exact::count_maps(g, tree),
                       testing::brute_force_maps(g, tree))
          << tree.describe();
    }
  }
}

TEST(ExactBacktrack, LabeledCounts) {
  Graph g = testing::path_graph(4);
  g.set_labels({0, 1, 0, 1}, 2);
  TreeTemplate tree = TreeTemplate::path(2);
  tree.set_labels({0, 1});
  // Edges with labels (0,1): (0,1), (1,2), (2,3) all qualify.
  // alpha(labeled P2 with distinct labels) = 1, so count = maps = 3.
  EXPECT_DOUBLE_EQ(exact::count_embeddings(g, tree), 3.0);
}

TEST(ExactBacktrack, PerVertexSumsToOrbitTimesCount) {
  const Graph g = largest_component(erdos_renyi_gnm(30, 70, 19));
  for (int k = 3; k <= 5; ++k) {
    for (const TreeTemplate& tree : all_free_trees(k)) {
      const auto orbits = vertex_orbits(tree);
      for (int orbit_vertex : {0, k - 1}) {
        int orbit_size = 0;
        for (int v = 0; v < k; ++v) {
          orbit_size += (orbits[v] == orbits[orbit_vertex]);
        }
        const auto per_vertex =
            exact::per_vertex_counts(g, tree, orbit_vertex);
        double sum = 0.0;
        for (double value : per_vertex) sum += value;
        const double count = exact::count_embeddings(g, tree);
        EXPECT_NEAR(sum, count * orbit_size, 1e-6 * (1.0 + count))
            << tree.describe() << " orbit_vertex=" << orbit_vertex;
      }
    }
  }
}

TEST(ExactBacktrack, PerVertexOnPath) {
  // P3 in path 0-1-2-3-4, orbit = middle vertex: vertices 1,2,3 are
  // each the middle of exactly one P3.
  const auto counts = exact::per_vertex_counts(testing::path_graph(5),
                                               TreeTemplate::path(3), 1);
  EXPECT_DOUBLE_EQ(counts[0], 0.0);
  EXPECT_DOUBLE_EQ(counts[1], 1.0);
  EXPECT_DOUBLE_EQ(counts[2], 1.0);
  EXPECT_DOUBLE_EQ(counts[3], 1.0);
  EXPECT_DOUBLE_EQ(counts[4], 0.0);
}

// ---- pattern growth ------------------------------------------------------

class PatternGrowthMatchesBacktrack : public ::testing::TestWithParam<int> {};

TEST_P(PatternGrowthMatchesBacktrack, SameCountsEveryShape) {
  const int k = GetParam();
  const Graph g = largest_component(erdos_renyi_gnm(40, 90, 29));
  const auto result = exact::count_all_trees_by_growth(g, k);
  ASSERT_EQ(result.counts.size(), result.trees.size());
  double total_subtrees = 0.0;
  for (std::size_t i = 0; i < result.trees.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.counts[i],
                     exact::count_embeddings(g, result.trees[i]))
        << "shape " << i;
    total_subtrees += result.counts[i];
  }
  // Each k-subtree of the graph has exactly one shape.
  EXPECT_DOUBLE_EQ(result.subtrees_visited, total_subtrees);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PatternGrowthMatchesBacktrack,
                         ::testing::Values(2, 3, 4, 5, 6));

TEST(PatternGrowth, SingleVertex) {
  const auto result =
      exact::count_all_trees_by_growth(testing::path_graph(6), 1);
  ASSERT_EQ(result.counts.size(), 1u);
  EXPECT_DOUBLE_EQ(result.counts[0], 6.0);
}

TEST(PatternGrowth, PathGraphShapes) {
  // A path graph contains only path-shaped subtrees.
  const auto result =
      exact::count_all_trees_by_growth(testing::path_graph(10), 4);
  double nonpath = 0.0, path_count = 0.0;
  for (std::size_t i = 0; i < result.trees.size(); ++i) {
    if (isomorphic(result.trees[i], TreeTemplate::path(4))) {
      path_count += result.counts[i];
    } else {
      nonpath += result.counts[i];
    }
  }
  EXPECT_DOUBLE_EQ(path_count, 7.0);
  EXPECT_DOUBLE_EQ(nonpath, 0.0);
}

TEST(PatternGrowth, StarGraphShapes) {
  // Star graph: only star-shaped subtrees of each size.
  const auto result =
      exact::count_all_trees_by_growth(testing::star_graph(6), 4);
  for (std::size_t i = 0; i < result.trees.size(); ++i) {
    if (isomorphic(result.trees[i], TreeTemplate::star(4))) {
      EXPECT_DOUBLE_EQ(result.counts[i], 10.0);  // C(5,3)
    } else {
      EXPECT_DOUBLE_EQ(result.counts[i], 0.0);
    }
  }
}

TEST(PatternGrowth, BadSizeThrows) {
  EXPECT_THROW(exact::count_all_trees_by_growth(testing::path_graph(3), 0),
               std::invalid_argument);
  EXPECT_THROW(exact::count_all_trees_by_growth(testing::path_graph(3), 99),
               std::invalid_argument);
}


// ---- the colorful-DP oracle (exact/colorful_dp.hpp) against brute
// force: for a fixed coloring its root total is the number of colorful
// injective maps, whatever the partition strategy.

TreeTemplate spider(int k) {
  TreeTemplate::EdgeList edges;
  int v = 1;
  while (v + 1 < k) {
    edges.push_back({0, v});
    edges.push_back({v, v + 1});
    v += 2;
  }
  if (v < k) edges.push_back({0, v});
  return TreeTemplate::from_edges(k, edges);
}

TEST(ColorfulDpOracle, RootTotalEqualsBruteForceColorfulMaps) {
  const Graph plain = largest_component(erdos_renyi_gnm(14, 32, 5));
  Graph labeled = plain;
  assign_random_labels(labeled, 2, 9);
  for (const bool with_labels : {false, true}) {
    const Graph& g = with_labels ? labeled : plain;
    for (int k = 2; k <= 6; ++k) {
      std::vector<TreeTemplate> shapes = {TreeTemplate::path(k),
                                          TreeTemplate::star(k), spider(k)};
      if (with_labels) {
        for (TreeTemplate& shape : shapes) {
          std::vector<std::uint8_t> labels(static_cast<std::size_t>(k));
          for (int v = 0; v < k; ++v) {
            labels[static_cast<std::size_t>(v)] =
                static_cast<std::uint8_t>(v % 2);
          }
          shape.set_labels(std::move(labels));
        }
      }
      Xoshiro256 rng(100 + static_cast<std::uint64_t>(k));
      std::vector<std::uint8_t> colors(
          static_cast<std::size_t>(g.num_vertices()));
      for (auto& c : colors) {
        c = static_cast<std::uint8_t>(
            rng.bounded(static_cast<std::uint32_t>(k)));
      }
      for (const TreeTemplate& shape : shapes) {
        const double brute = testing::brute_force_maps(g, shape, colors);
        for (auto strategy : {PartitionStrategy::kOneAtATime,
                              PartitionStrategy::kBalanced}) {
          const auto part = partition_template(shape, strategy);
          EXPECT_EQ(exact::ColorfulDp(g, part, k, colors).root_total(), brute)
              << shape.describe() << (with_labels ? " labeled" : "")
              << " strategy=" << partition_strategy_name(strategy);
        }
      }
    }
  }
}

TEST(ColorfulDpOracle, RejectsTriangleJoinsAndBadColorings) {
  const Graph g = testing::complete_graph(5);
  const std::vector<std::uint8_t> colors = {0, 1, 2, 3, 0};
  const auto paw =
      MixedTemplate::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  EXPECT_THROW(exact::ColorfulDp(g, partition_mixed_template(paw), 4, colors),
               std::invalid_argument);
  const auto path = partition_template(TreeTemplate::path(3),
                                       PartitionStrategy::kOneAtATime);
  EXPECT_THROW(exact::ColorfulDp(g, path, 3, {colors.data(), 3}),
               std::invalid_argument);
  EXPECT_THROW(exact::ColorfulDp(g, path, 3, colors), std::invalid_argument);
}

}  // namespace
}  // namespace fascia
