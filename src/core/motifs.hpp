#pragma once
// Motif finding (§II-A, §V-E): estimate the count of *every*
// non-isomorphic tree of a given size and derive the relative
// frequency profile the paper plots in Figs. 13-14.

#include <string>
#include <vector>

#include "core/count_options.hpp"
#include "graph/graph.hpp"
#include "run/controls.hpp"
#include "treelet/tree_template.hpp"

namespace fascia {

/// RunOutcome base: `estimate` is the sum over templates,
/// `relative_stderr` the worst per-template error, `run`/`report` the
/// usual status and observability document.
struct MotifProfile : RunOutcome {
  int k = 0;                          ///< template size
  std::vector<TreeTemplate> trees;    ///< all free trees of size k
  std::vector<double> counts;         ///< estimated occurrence counts
  std::vector<int> iterations;        ///< color-coding rounds per template
  std::vector<double> seconds;        ///< wall time per template (batch
                                      ///< mode: attributed by DP cost)
  double seconds_total = 0.0;

  /// counts scaled by the profile mean — the paper's normalization for
  /// cross-network comparison ("scaled by each of the networks'
  /// averages", Fig. 13).
  [[nodiscard]] std::vector<double> relative_frequencies() const;
};

/// Counts all free trees on k vertices.  Template i of the profile is
/// all_free_trees(k)[i] (deterministic order), so profiles from
/// different networks align index-by-index.
///
/// The profile runs as one sched::run_batch workload: every template
/// sees the same colorings, and subtemplate stages shared across the
/// k-tree set are computed once per coloring.  Template i's estimate
/// equals count_template's with the same seed while every DP entry is
/// at most 2^53 (sched/batch.hpp).  Run controls and observability
/// apply to the whole batch; a reorder request is rejected.
MotifProfile count_all_treelets(const Graph& graph, int k,
                                const CountOptions& options);

}  // namespace fascia
