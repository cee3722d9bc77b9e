#pragma once
// The iteration driver: the one implementation of Alg. 1's loop (draw
// a coloring, run the DP, scale the root totals) behind
// sched::run_batch, count_template / graphlet_degrees, and the
// incremental begin_incremental / RunHandle::recount.  Internal to the
// library; callers reach it through those entry points.
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
// Retention is a per-iteration pass policy (DriverInputs::retained).
// A plain pass releases its tables once the totals are read; an
// incremental pass keeps them and moves iteration i's state into slot
// i of a RetainedPasses store; a recount adopts slot i, re-runs only
// the dirty balls (DpEngine::run_delta) and moves the state back.  A
// failed iteration still ends the run as a partial result, which
// leaves the store half advanced: callers must treat any status but
// completed as fatal for it.
//
// Checkpoint layout: one array per job holding its completed
// per-iteration estimates, then — for per-vertex runs — the raw
// root-table vertex sums keyed by original vertex ids.  A
// count_template checkpoint is therefore [per-iteration prefix,
// per-vertex array].

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "graph/reorder.hpp"
#include "obs/report.hpp"
#include "sched/batch.hpp"
#include "sched/plan.hpp"

namespace fascia::sched {

/// Per-iteration DP state an incremental run keeps between passes:
/// every non-leaf table and frontier of each coloring.  Only the
/// driver knows the table type, so it creates the store on an initial
/// incremental pass and adopts it back on each recount.
class RetainedPasses {
 public:
  virtual ~RetainedPasses() = default;

  /// Bytes held by the retained tables and frontiers.
  [[nodiscard]] virtual std::size_t bytes() const noexcept = 0;
};

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

  /// Incremental runs only (one-job plans, serial or inner layouts, no
  /// reorder, no run controls).  Non-null keeps every iteration's DP
  /// state: with `dirty` null the pass computes from scratch and
  /// replaces *retained with a fresh store; with `dirty` set the pass
  /// is a recount of the store *retained already holds.
  std::unique_ptr<RetainedPasses>* retained = nullptr;

  /// Recounts: the delta's dirty balls on `graph`, the post-delta graph.
  const DirtyBalls* dirty = nullptr;
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

  /// Recounts: delta-pass work summed over every iteration.
  DeltaPassStats delta;

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
