#include "core/incremental.hpp"

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/counter.hpp"
#include "core/engine.hpp"
#include "graph/delta.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sched/driver.hpp"
#include "sched/plan.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace fascia {

RunHandle::RunHandle(const Graph& graph, const TreeTemplate& tmpl,
                     const CountOptions& options)
    : tmpl_(tmpl),
      options_(options),
      plan_(std::make_unique<sched::BatchPlan>(
          detail::plan_tree_count(graph, tmpl, options))) {
  pass(graph, nullptr);
}

RunHandle::RunHandle(RunHandle&&) noexcept = default;
RunHandle& RunHandle::operator=(RunHandle&&) noexcept = default;
RunHandle::~RunHandle() = default;

const CountResult& RunHandle::result() const noexcept { return result_; }
std::uint64_t RunHandle::graph_version() const noexcept {
  return graph_version_;
}
std::uint64_t RunHandle::recounts() const noexcept { return recounts_; }
std::size_t RunHandle::retained_bytes() const noexcept {
  return retained_ != nullptr ? retained_->bytes() : 0;
}

void RunHandle::pass(const Graph& graph, const GraphDelta* delta) {
  if (options_.observability.enabled) obs::set_enabled(true);
  sched::DriverInputs inputs;
  inputs.retained = &retained_;
  // Stage sizes reach at most the template size, so the outermost
  // ball has radius size - 1.
  const int radius = tmpl_.size() - 1;
  std::optional<DirtyBalls> dirty;
  if (delta != nullptr) {
    dirty = DirtyBalls::build(graph, delta->touched_vertices(), radius);
    inputs.dirty = &*dirty;
  }
  CountResult result = detail::run_tree_count(
      graph, tmpl_, options_, *plan_, "incremental_count", inputs, 0.0);
  if (result.status() != RunStatus::kCompleted) {
    throw resource_error(
        std::string(delta != nullptr ? "RunHandle::recount"
                                     : "begin_incremental") +
        ": pass ended " + run_status_name(result.status()) + " after " +
        std::to_string(result.run.completed_iterations) + " of " +
        std::to_string(result.run.requested_iterations) +
        " iterations; its retained state is unusable");
  }

  if (delta != nullptr) {
    ++recounts_;
    result.delta.applied_edges = static_cast<std::uint64_t>(delta->size());
    result.delta.dirty_vertices =
        static_cast<std::uint64_t>(dirty->at(radius).size());
    result.delta.dirty_fraction =
        graph.num_vertices() > 0
            ? static_cast<double>(result.delta.dirty_vertices) /
                  static_cast<double>(graph.num_vertices())
            : 0.0;
  }
  graph_version_ = graph.version();
  auto report = std::make_shared<obs::RunReport>(*result.report);
  report->delta.incremental = true;
  report->delta.graph_version = graph_version_;
  report->delta.recounts = recounts_;
  report->delta.applied_edges = result.delta.applied_edges;
  report->delta.dirty_vertices = result.delta.dirty_vertices;
  report->delta.dirty_fraction = result.delta.dirty_fraction;
  report->delta.stages_recomputed = result.delta.stages_recomputed;
  report->delta.rows_recomputed = result.delta.rows_recomputed;
  report->delta.rows_copied = result.delta.rows_copied;
  result.report = std::move(report);
  result_ = std::move(result);
}

const CountResult& RunHandle::recount(const Graph& new_graph,
                                      const GraphDelta& delta) {
  if (poisoned_) {
    throw usage_error(
        "RunHandle::recount: handle was poisoned by a failed recount; "
        "begin_incremental again");
  }
  const std::int64_t counted = result_.report->graph.vertices;
  if (new_graph.num_vertices() != counted) {
    throw bad_input("RunHandle::recount: graph vertex count changed (" +
                    std::to_string(counted) + " -> " +
                    std::to_string(new_graph.num_vertices()) + ")");
  }
  if (fault::fire("delta.recount")) throw fault::Injected("delta.recount");
  // Any throw below leaves the retained passes partially advanced:
  // poison the handle now and clear the flag only on a clean finish.
  poisoned_ = true;
  pass(new_graph, &delta);
  poisoned_ = false;
  return result_;
}

RunHandle begin_incremental(const Graph& graph, const TreeTemplate& tmpl,
                            const CountOptions& options) {
  CountOptions opts = options;
  opts.execution.incremental = true;
  detail::validate_tree_count(graph, tmpl, opts, "begin_incremental");
  return RunHandle(graph, tmpl, opts);
}

}  // namespace fascia
