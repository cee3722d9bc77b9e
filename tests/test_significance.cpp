#include "analytics/significance.hpp"

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"

namespace fascia::analytics {
namespace {

TEST(Significance, StructureAndDeterminism) {
  const Graph g = largest_component(chung_lu(250, 750, 2.2, 50, 9));
  CountOptions options;
  options.sampling.iterations = 30;
  options.execution.mode = ParallelMode::kSerial;
  options.sampling.seed = 3;
  const auto a = motif_significance(g, 4, 4, options);
  EXPECT_EQ(a.k, 4);
  EXPECT_EQ(a.trees.size(), 2u);  // path-4 and star-4
  EXPECT_EQ(a.ensemble_size, 4);
  ASSERT_EQ(a.z_scores.size(), 2u);

  const auto b = motif_significance(g, 4, 4, options);
  EXPECT_EQ(a.real_counts, b.real_counts);
  EXPECT_EQ(a.z_scores, b.z_scores);
}

TEST(Significance, RandomGraphHasNoStrongMotifs) {
  // An ER graph *is* its own null model (up to degree-sequence detail):
  // z-scores should be modest.
  const Graph g = largest_component(erdos_renyi_gnm(300, 900, 5));
  CountOptions options;
  options.sampling.iterations = 60;
  options.execution.mode = ParallelMode::kSerial;
  const auto sig = motif_significance(g, 4, 6, options);
  for (double z : sig.z_scores) {
    EXPECT_LT(std::abs(z), 12.0);
  }
}

TEST(Significance, PlantedStructureDetected) {
  // Degree-preserving rewiring keeps every star count (Σ C(d, k-1)) but
  // not the degree correlations: a 4-path count sums (d_u-1)(d_v-1)
  // over edges, minus 3 per triangle.  Plant hubs joined to hubs — a
  // 25-clique beside a 200-vertex ring of degree-2 vertices — and the
  // real graph holds far more 4-paths than its rewired ensemble.  (A
  // clustered contact network is no such plant: its exact 4-path count
  // sits inside the ensemble's spread, so |z| there is sampling noise.)
  constexpr int kCore = 25;
  constexpr int kRing = 200;
  EdgeList edges;
  for (int u = 0; u < kCore; ++u) {
    for (int v = u + 1; v < kCore; ++v) edges.emplace_back(u, v);
  }
  for (int i = 0; i < kRing; ++i) {
    edges.emplace_back(kCore + i, kCore + (i + 1) % kRing);
  }
  edges.emplace_back(0, kCore);
  const Graph g = build_graph(kCore + kRing, edges);
  CountOptions options;
  options.sampling.iterations = 60;
  options.execution.mode = ParallelMode::kSerial;
  const auto sig = motif_significance(g, 4, 6, options);
  double max_abs_z = 0.0;
  for (double z : sig.z_scores) max_abs_z = std::max(max_abs_z, std::abs(z));
  EXPECT_GT(max_abs_z, 3.0);
}

TEST(Significance, Validation) {
  const Graph g = erdos_renyi_gnm(50, 100, 1);
  CountOptions options;
  options.sampling.iterations = 2;
  EXPECT_THROW(motif_significance(g, 4, 1, options), std::invalid_argument);
  EXPECT_THROW(motif_significance(g, 4, 4, options, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace fascia::analytics
