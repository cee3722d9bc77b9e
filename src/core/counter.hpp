#pragma once
// FASCIA's public counting API (Alg. 1).
//
// count_template() estimates the number of non-induced occurrences of
// a tree template in a graph via color coding: `iterations` rounds of
// (random vertex coloring -> bottom-up DP over the partitioned
// template -> unbias by the colorful probability P and the template's
// automorphism count alpha).  Estimates are unbiased for any iteration
// count; variance shrinks as 1/iterations.
//
// Determinism: results depend only on (graph, template, options.seed,
// iterations, num_colors) — *not* on thread count or parallel mode,
// because iteration i always uses the coloring derived from
// (seed, i).  Tests pin this property.

#include <cstdint>
#include <string>

#include "core/count_options.hpp"
#include "graph/graph.hpp"
#include "treelet/tree_template.hpp"

namespace fascia::sched {
struct BatchPlan;
struct DriverInputs;
}  // namespace fascia::sched

namespace fascia {

/// Approximate count of non-induced embeddings of `tmpl` in `graph`.
/// Throws std::invalid_argument on inconsistent options (labels on one
/// side only, k < template size, bad root).
CountResult count_template(const Graph& graph, const TreeTemplate& tmpl,
                           const CountOptions& options = {});

/// Graphlet degrees: for every graph vertex v, the estimated number of
/// template embeddings in which v plays `orbit_vertex`'s role (§V-F).
/// Returns a full CountResult with vertex_counts filled; the total
/// estimate is also valid.
CountResult graphlet_degrees(const Graph& graph, const TreeTemplate& tmpl,
                             int orbit_vertex, CountOptions options = {});

/// Unified-shape overload: the orbit vertex is `options.root` (set via
/// builder().root(v)).  Throws Error(kUsage) when root is unset (-1).
CountResult graphlet_degrees(const Graph& graph, const TreeTemplate& tmpl,
                             const CountOptions& options);

/// Resolved number of colors for an options/template pair.
int effective_colors(const TreeTemplate& tmpl, const CountOptions& options);

namespace detail {

/// The request checks every tree counter shares: labeling agreement,
/// color count, iteration budget, root range, then options.validate().
/// Messages start with `caller` ("count_template", "begin_incremental").
void validate_tree_count(const Graph& graph, const TreeTemplate& tmpl,
                         const CountOptions& options, const char* caller);

/// The one-job plan a tree count runs: cross-template reuse off, the
/// strategy and root planned unless options pin them (sched/plan.hpp),
/// so its stage DAG is exactly partition_template(tmpl,
/// plan.job_partition_strategy[0], share_tables,
/// plan.job_partition_root[0]).  `partitions`, when set, serves that
/// tree (BatchOptions::partition_provider).
sched::BatchPlan plan_tree_count(
    const Graph& graph, const TreeTemplate& tmpl, const CountOptions& options,
    const PartitionProvider& partitions = {});

/// What a one-job count counts, beyond its plan: the description its
/// checkpoints are fingerprinted with, its size and its root's
/// stabilizer (the per-vertex scale).
struct CountSubject {
  std::string describe;
  int size = 0;
  std::uint64_t root_stabilizer = 0;
};

/// Alg. 1 for one template: runs `plan` on the iteration driver and
/// scales its totals into a CountResult with a report of kind `kind`;
/// run_tree_count below, count_mixed_template and count_triangles are
/// its callers.  `inputs` as for run_tree_count.
CountResult run_count(const Graph& graph, const CountSubject& subject,
                      const CountOptions& options,
                      const sched::BatchPlan& plan, const char* kind,
                      sched::DriverInputs inputs, double reorder_seconds);

/// Alg. 1 for one tree template: runs `plan` (from plan_tree_count) on
/// the iteration driver and scales its totals into a CountResult with
/// a report of kind `kind`.  `inputs` carries the caller's pass
/// policy (perm, retained, dirty); the checkpoint identity, per-vertex
/// flag and outer-copy pin come from `options`.  When inputs.perm is
/// set, `graph` is the REORDERED graph; colorings, checkpoints and
/// per-vertex outputs stay keyed by original ids.
CountResult run_tree_count(const Graph& graph, const TreeTemplate& tmpl,
                           const CountOptions& options,
                           const sched::BatchPlan& plan, const char* kind,
                           sched::DriverInputs inputs,
                           double reorder_seconds);

}  // namespace detail

}  // namespace fascia
