#pragma once
// The iteration driver: the one implementation of Alg. 1's loop (draw
// a coloring, run the DP, scale the root totals) behind both
// sched::run_batch and count_template / graphlet_degrees.  Internal to
// the library; callers reach it through those entry points.
//
// A caller hands in a plan (plan.hpp) and the run's identity: the
// checkpoint kind, a fingerprint of everything its estimates depend
// on, an optional reorder permutation, and whether it wants per-vertex
// root totals.  A single-template count is a one-job plan built with
// cross-template reuse off and the caller's root, so its stage DAG is
// exactly partition_template(tmpl, partition, share_tables, root).
//
// The driver owns everything around the DP passes: the memory plan,
// the thread layout (hybrid mode runs one inner-parallel probe
// iteration and feeds its measured frontier occupancy to
// choose_layout), outer engine copies, the per-job round controller,
// the guard, checkpoints and resume, and the report sections every
// run fills the same way.
//
// Checkpoint layout: one array per job holding its completed
// per-iteration estimates, then — for per-vertex runs — the raw
// root-table vertex sums keyed by original vertex ids.  A
// count_template checkpoint is therefore [per-iteration prefix,
// per-vertex array].

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/reorder.hpp"
#include "obs/report.hpp"
#include "sched/batch.hpp"
#include "sched/plan.hpp"

namespace fascia::sched {

struct DriverInputs {
  std::uint32_t checkpoint_kind = 0;  ///< run::Checkpoint::kKind*

  /// Config fingerprint for checkpoints, given the table layout the
  /// memory plan settled on (layouts sum in different orders, so the
  /// effective one participates).
  std::function<std::uint64_t(TableKind table)> fingerprint;

  /// Non-null when `graph` is the reordered graph: colorings are drawn
  /// in original-id order and scattered through perm->to_new, and
  /// per-vertex state crosses checkpoint and result boundaries in
  /// original ids.
  const Permutation* perm = nullptr;

  /// One-job plans only: accumulate the root table's per-vertex totals.
  bool per_vertex = false;

  /// > 0 pins hybrid mode's outer copy count (the cost model decides
  /// otherwise).
  int forced_outer_copies = 0;
};

struct DriverOutput {
  /// Per-job series and controller state, coloring rounds, per-
  /// iteration seconds, thread layout and the run-layer report.
  BatchResult batch;

  /// Per-vertex runs: raw root-table vertex totals summed over every
  /// completed iteration, keyed by original vertex ids.
  std::vector<double> vertex_sums;

  double seconds = 0.0;  ///< wall time of the iteration loop
  std::size_t peak_table_bytes = 0;

  /// Graph, sampling counters, per-iteration timing, memory, threads,
  /// run status and stages; the caller adds kind, options, template
  /// and estimate fields.
  obs::RunReport report;
};

/// Runs `plan` to completion (or an early stop).  `jobs` and `options`
/// are the ones the plan was built from; options.mode/num_threads,
/// table and run controls apply as in run_batch.
DriverOutput drive(const Graph& graph, const std::vector<BatchJob>& jobs,
                   const BatchOptions& options, const BatchPlan& plan,
                   const DriverInputs& inputs);

}  // namespace fascia::sched
