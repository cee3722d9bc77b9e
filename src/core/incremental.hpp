#pragma once
// Incremental delta counting: the dynamic-graph half of the counter.
//
// begin_incremental() runs a normal color-coding count but RETAINS
// each iteration's DP state (every non-leaf table + frontier) inside
// the returned RunHandle.  After the caller mutates the graph with
// Graph::apply(GraphDelta), handle.recount(graph, delta) re-runs each
// DP stage restricted to the delta's dirty-vertex neighborhood (a
// stage of size s only changes within s-1 hops of a touched endpoint)
// and splices the untouched rows back verbatim, producing an estimate
// BIT-IDENTICAL to a full recount of the new graph under the same
// seed — at a cost proportional to the dirty region, not the graph.
//
//   Graph graph = GraphSource::from_file("web.el").build();
//   RunHandle handle = begin_incremental(graph, tmpl, options);
//   use(handle.result().estimate);
//   GraphDelta delta;
//   delta.insert(10, 42);
//   delta.remove(7, 9);
//   graph.apply(delta);
//   use(handle.recount(graph, delta).estimate);  // == full recount
//
// Both calls are one-job plans on the iteration driver
// (sched/driver.hpp), the path count_template takes, with retention as
// the driver's per-iteration pass policy: they report the same layout,
// metrics, stage stats and report sections as any count, plus the
// report's `delta` section.  The handle builds its plan once, so the
// retained node indices match on every recount.  A pass that does not
// complete (an allocation failure ends a driver run as mem-degraded)
// leaves the retained state half advanced, so it is fatal: a failed
// begin_incremental throws, and a failed recount throws and poisons
// the handle.
//
// Memory: the handle holds iterations x (all non-leaf tables), priced
// by run::estimate_retained_bytes — retention is opt-in for a reason.
// Restrictions (CountOptions::validate with execution.incremental):
// serial/inner parallelism only, no reorder, no RunControls.  All four table layouts work.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/count_options.hpp"
#include "graph/graph.hpp"
#include "treelet/tree_template.hpp"

namespace fascia::sched {
struct BatchPlan;
class RetainedPasses;
}  // namespace fascia::sched

namespace fascia {

class GraphDelta;

/// A live incremental count: the latest result plus the retained DP
/// state that makes cheap recounts possible.  Move-only; dropping the
/// handle frees the retained tables.
class RunHandle {
 public:
  RunHandle(RunHandle&&) noexcept;
  RunHandle& operator=(RunHandle&&) noexcept;
  RunHandle(const RunHandle&) = delete;
  RunHandle& operator=(const RunHandle&) = delete;
  ~RunHandle();

  /// The latest count (initial run or last recount).  Its `delta`
  /// field and report `.delta` section carry the incremental
  /// accounting; zeros before the first recount.
  [[nodiscard]] const CountResult& result() const noexcept;

  /// Graph::version() of the graph this handle last counted.  The
  /// counting service matches it against its per-graph version tokens
  /// to detect stale handles.
  [[nodiscard]] std::uint64_t graph_version() const noexcept;

  /// Recounts the handle has served (0 right after begin_incremental).
  [[nodiscard]] std::uint64_t recounts() const noexcept;

  /// Actual bytes held by the retained tables and frontiers.
  [[nodiscard]] std::size_t retained_bytes() const noexcept;

  /// Incrementally recount after `delta` produced `new_graph`.  The
  /// graph must be the handle's graph with exactly `delta` applied
  /// since the last (re)count — same vertex set, same labels.  Throws
  /// Error(kBadInput) on a vertex-count mismatch and Error(kUsage) on
  /// a handle poisoned by a previously failed recount.  A recount that
  /// throws, or whose pass does not complete (then Error(kResource)),
  /// poisons the handle: its retained state is partially advanced and
  /// the caller must begin_incremental anew.
  const CountResult& recount(const Graph& new_graph, const GraphDelta& delta);

 private:
  friend RunHandle begin_incremental(const Graph&, const TreeTemplate&,
                                     const CountOptions&);
  RunHandle(const Graph& graph, const TreeTemplate& tmpl,
            const CountOptions& options);

  /// One driver run of the handle's plan: the initial pass when
  /// `delta` is null, else a recount of `delta` on `graph`.
  void pass(const Graph& graph, const GraphDelta* delta);

  TreeTemplate tmpl_;
  CountOptions options_;
  std::unique_ptr<sched::BatchPlan> plan_;
  std::unique_ptr<sched::RetainedPasses> retained_;
  CountResult result_;
  std::uint64_t graph_version_ = 0;
  std::uint64_t recounts_ = 0;
  bool poisoned_ = false;
};

/// Runs the initial count with per-iteration DP state retained.
/// `options.execution.incremental` is implied (and validated, see
/// header comment); every other option keeps its count_template
/// meaning.
RunHandle begin_incremental(const Graph& graph, const TreeTemplate& tmpl,
                            const CountOptions& options = {});

}  // namespace fascia
