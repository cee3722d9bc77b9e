#include "core/motifs.hpp"

#include <gtest/gtest.h>

#include "core/counter.hpp"
#include "exact/pattern_growth.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "util/stats.hpp"

namespace fascia {
namespace {

Graph test_graph() {
  static const Graph g = largest_component(erdos_renyi_gnm(50, 120, 41));
  return g;
}

TEST(Motifs, ProfileCoversAllTreelets) {
  CountOptions options;
  options.sampling.iterations = 2;
  options.execution.mode = ParallelMode::kSerial;
  const MotifProfile profile = count_all_treelets(test_graph(), 5, options);
  EXPECT_EQ(profile.k, 5);
  EXPECT_EQ(profile.trees.size(), 3u);
  EXPECT_EQ(profile.counts.size(), 3u);
  EXPECT_EQ(profile.seconds.size(), 3u);
  EXPECT_GT(profile.seconds_total, 0.0);
}

TEST(Motifs, ReportCarriesTheBatchMeasurements) {
  struct ObsOff {
    ~ObsOff() { obs::set_enabled(false); }
  } off;
  CountOptions options;
  options.sampling.iterations = 2;
  options.observability.enabled = true;
  const MotifProfile profile = count_all_treelets(test_graph(), 5, options);
  ASSERT_NE(profile.report, nullptr);
  const obs::RunReport& report = *profile.report;
  EXPECT_EQ(report.kind, "count_all_treelets");
  EXPECT_EQ(report.tmpl.vertices, 5);
  EXPECT_GT(report.stages.size(), 0u);
  EXPECT_EQ(report.timing.per_iteration_seconds.size(), 2u);
  EXPECT_FALSE(report.threads.mode.empty());
  EXPECT_GT(report.memory.observed_peak_bytes, 0u);
  EXPECT_EQ(report.jobs.size(), profile.trees.size());
  EXPECT_EQ(report.sampling.estimate, profile.estimate);
}

TEST(Motifs, RelativeFrequenciesMeanOne) {
  CountOptions options;
  options.sampling.iterations = 3;
  options.execution.mode = ParallelMode::kSerial;
  const MotifProfile profile = count_all_treelets(test_graph(), 5, options);
  const auto rel = profile.relative_frequencies();
  EXPECT_NEAR(mean(rel), 1.0, 1e-9);
}

TEST(Motifs, ProfileConvergesToExact) {
  const Graph g = test_graph();
  CountOptions options;
  options.sampling.iterations = 800;
  options.execution.mode = ParallelMode::kSerial;
  const MotifProfile profile = count_all_treelets(g, 4, options);
  const auto exact = exact::count_all_trees_by_growth(g, 4);
  ASSERT_EQ(profile.counts.size(), exact.counts.size());
  for (std::size_t i = 0; i < profile.counts.size(); ++i) {
    EXPECT_NEAR(profile.counts[i], exact.counts[i],
                exact.counts[i] * 0.15 + 1.0)
        << "shape " << i;
  }
}

TEST(Motifs, DeterministicInSeed) {
  CountOptions options;
  options.sampling.iterations = 2;
  options.execution.mode = ParallelMode::kSerial;
  options.sampling.seed = 55;
  const auto a = count_all_treelets(test_graph(), 5, options);
  const auto b = count_all_treelets(test_graph(), 5, options);
  EXPECT_EQ(a.counts, b.counts);
}

TEST(Motifs, ShapesGetDistinctEstimates) {
  // Every template of the profile sees the same coloring per iteration
  // (one run_batch workload), yet each scales its own colorful count:
  // with 1 iteration the profile must not be constant across shapes on
  // this asymmetric graph.
  CountOptions options;
  options.sampling.iterations = 1;
  options.execution.mode = ParallelMode::kSerial;
  const auto profile = count_all_treelets(test_graph(), 5, options);
  EXPECT_FALSE(profile.counts[0] == profile.counts[1] &&
               profile.counts[1] == profile.counts[2]);
}

TEST(Motifs, EmptyProfileOnTinyGraph) {
  // Graph smaller than k: counts are all zero but structure is intact.
  const Graph g = largest_component(erdos_renyi_gnm(3, 2, 1));
  CountOptions options;
  options.sampling.iterations = 2;
  options.execution.mode = ParallelMode::kSerial;
  const auto profile = count_all_treelets(g, 5, options);
  for (double count : profile.counts) EXPECT_DOUBLE_EQ(count, 0.0);
}

}  // namespace
}  // namespace fascia
