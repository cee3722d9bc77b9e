#pragma once
// Motif statistical significance (Milo et al. 2002, the paper's
// reference [1], operationalized on top of FASCIA's counts).
//
// A subgraph is a *motif* when it occurs significantly more often in
// the real network than in an ensemble of degree-preserving random
// graphs.  The standard score per shape i is
//
//   z_i = (N_real,i − mean(N_rand,i)) / std(N_rand,i)
//
// with the ensemble produced by double-edge-swap rewiring
// (graph/generators.hpp).  FASCIA makes the N's cheap: every count is
// a color-coding estimate rather than an exhaustive enumeration, so
// the whole significance pipeline runs in seconds.

#include <vector>

#include "core/count_options.hpp"
#include "graph/graph.hpp"
#include "treelet/tree_template.hpp"

namespace fascia::analytics {

struct MotifSignificance {
  int k = 0;
  std::vector<TreeTemplate> trees;     ///< all_free_trees(k) order
  std::vector<double> real_counts;
  std::vector<double> random_mean;     ///< over the ensemble
  std::vector<double> random_stdev;
  std::vector<double> z_scores;        ///< 0 when stdev is 0
  int ensemble_size = 0;
};

/// Counts all size-k trees in `graph` and in `ensemble_size`
/// degree-preserving rewirings, and derives z-scores.  Deterministic
/// in options.seed.  `swaps_per_edge` controls rewiring thoroughness
/// (>= 3 is customary).
///
/// The pipeline runs ensemble_size + 1 full motif profiles, each one
/// sched::run_batch workload (one shared coloring per iteration,
/// subtemplate stages deduplicated across the k-tree set).
MotifSignificance motif_significance(const Graph& graph, int k,
                                     int ensemble_size,
                                     const CountOptions& options,
                                     double swaps_per_edge = 5.0);

}  // namespace fascia::analytics
