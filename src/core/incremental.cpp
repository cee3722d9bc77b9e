#include "core/incremental.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "comb/binomial.hpp"
#include "core/coloring.hpp"
#include "core/counter.hpp"
#include "core/engine.hpp"
#include "dp/table_compact.hpp"
#include "dp/table_hash.hpp"
#include "dp/table_naive.hpp"
#include "dp/table_succinct.hpp"
#include "graph/delta.hpp"
#include "obs/report.hpp"
#include "treelet/canonical.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace fascia {
namespace {

using detail::iteration_seed;
using detail::random_coloring;

int resolve_inner_threads(const CountOptions& options) {
  if (options.execution.mode == ParallelMode::kSerial) return 1;
#ifdef _OPENMP
  return options.execution.threads > 0 ? options.execution.threads
                                       : omp_get_max_threads();
#else
  return 1;
#endif
}

}  // namespace

class RunHandle::Impl {
 public:
  virtual ~Impl() = default;
  [[nodiscard]] virtual const CountResult& result() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t graph_version() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t recounts() const noexcept = 0;
  [[nodiscard]] virtual std::size_t retained_bytes() const noexcept = 0;
  virtual const CountResult& recount(const Graph& new_graph,
                                     const GraphDelta& delta) = 0;
};

namespace {

/// The retained-state run loop for one table layout.  Owns everything
/// a recount needs except the graph itself, which the caller passes
/// back in (the engine re-binds to it per pass, so the handle works
/// with in-place mutation and with the service's copy-on-mutate
/// registry alike).
template <class Table>
class IncrementalState final : public RunHandle::Impl {
 public:
  IncrementalState(const Graph& graph, const TreeTemplate& tmpl,
                   const CountOptions& options)
      : tmpl_(tmpl),
        options_(options),
        partition_(partition_template(tmpl, options.execution.partition,
                                      options.execution.share_tables,
                                      options.root)),
        k_(effective_colors(tmpl, options)),
        n_(graph.num_vertices()) {
    engine_opts_.inner_threads = resolve_inner_threads(options_);
    if (graph.has_labels()) {
      // Edge deltas never change labels, so the per-label frontier
      // lists are built once and shared across every recount.
      engine_opts_.label_frontiers = LabelFrontiers::build(graph);
    }
    parallel_inner_ = engine_opts_.inner_threads > 1;

    result_.automorphisms = automorphisms(tmpl_);
    result_.root_stabilizer =
        vertex_stabilizer(tmpl_, partition_.template_root());
    result_.colorful_probability = colorful_probability(k_, tmpl_.size());
    result_.dp_cost = partition_.dp_cost(k_);
    result_.max_live_tables = partition_.max_live_tables();
    result_.num_subtemplates = partition_.num_nodes();
    scale_ = 1.0 / (result_.colorful_probability *
                    static_cast<double>(result_.automorphisms));
    vertex_scale_ = 1.0 / (result_.colorful_probability *
                           static_cast<double>(result_.root_stabilizer));

    const int iterations = options_.sampling.iterations;
    retained_.resize(static_cast<std::size_t>(iterations));
    result_.per_iteration.assign(static_cast<std::size_t>(iterations), 0.0);
    result_.seconds_per_iteration.assign(static_cast<std::size_t>(iterations),
                                         0.0);
    std::vector<double> vertex_accumulator;
    if (options_.per_vertex) {
      vertex_accumulator.assign(static_cast<std::size_t>(n_), 0.0);
    }
    WallTimer total_timer;
    DpEngine<Table> engine(graph, tmpl_, partition_, k_, engine_opts_);
    for (int iter = 0; iter < iterations; ++iter) {
      WallTimer timer;
      const ColorArray colors =
          random_coloring(graph, k_, iteration_seed(options_.sampling.seed,
                                                    iter));
      const double raw = engine.run(
          colors, parallel_inner_,
          options_.per_vertex ? &vertex_accumulator : nullptr,
          /*keep_tables=*/true);
      retained_[static_cast<std::size_t>(iter)] = engine.take_retained();
      result_.per_iteration[static_cast<std::size_t>(iter)] = raw * scale_;
      result_.seconds_per_iteration[static_cast<std::size_t>(iter)] =
          timer.elapsed_s();
    }
    finalize(graph, total_timer.elapsed_s(), vertex_accumulator);
  }

  [[nodiscard]] const CountResult& result() const noexcept override {
    return result_;
  }
  [[nodiscard]] std::uint64_t graph_version() const noexcept override {
    return graph_version_;
  }
  [[nodiscard]] std::uint64_t recounts() const noexcept override {
    return recounts_;
  }

  [[nodiscard]] std::size_t retained_bytes() const noexcept override {
    std::size_t bytes = 0;
    for (const auto& pass : retained_) {
      for (const auto& table : pass.tables) {
        if (table != nullptr) bytes += table->bytes();
      }
      for (const auto& frontier : pass.frontiers) {
        bytes += frontier.size() * sizeof(VertexId);
      }
    }
    return bytes;
  }

  const CountResult& recount(const Graph& new_graph,
                             const GraphDelta& delta) override {
    if (poisoned_) {
      throw usage_error(
          "RunHandle::recount: handle was poisoned by a failed recount; "
          "begin_incremental again");
    }
    if (new_graph.num_vertices() != n_) {
      throw bad_input("RunHandle::recount: graph vertex count changed (" +
                      std::to_string(n_) + " -> " +
                      std::to_string(new_graph.num_vertices()) + ")");
    }
    if (fault::fire("delta.recount")) throw fault::Injected("delta.recount");
    // Any throw below leaves retained_ partially advanced: poison the
    // handle now and clear the flag only on a clean finish.
    poisoned_ = true;

    const std::vector<VertexId> seeds = delta.touched_vertices();
    const DirtyBalls dirty =
        DirtyBalls::build(new_graph, seeds, tmpl_.size() - 1);

    std::vector<double> vertex_accumulator;
    if (options_.per_vertex) {
      vertex_accumulator.assign(static_cast<std::size_t>(n_), 0.0);
    }
    typename DpEngine<Table>::DeltaPassStats pass_stats;
    WallTimer total_timer;
    DpEngine<Table> engine(new_graph, tmpl_, partition_, k_, engine_opts_);
    const int iterations = options_.sampling.iterations;
    for (int iter = 0; iter < iterations; ++iter) {
      WallTimer timer;
      // Same (seed, iter) -> same coloring as the retained pass: the
      // coloring stream is keyed on vertex ids, never on edges.
      const ColorArray colors = random_coloring(
          new_graph, k_, iteration_seed(options_.sampling.seed, iter));
      engine.adopt_retained(
          std::move(retained_[static_cast<std::size_t>(iter)]));
      const double raw = engine.run_delta(
          colors, parallel_inner_, dirty, &pass_stats,
          options_.per_vertex ? &vertex_accumulator : nullptr);
      retained_[static_cast<std::size_t>(iter)] = engine.take_retained();
      result_.per_iteration[static_cast<std::size_t>(iter)] = raw * scale_;
      result_.seconds_per_iteration[static_cast<std::size_t>(iter)] =
          timer.elapsed_s();
    }

    result_.delta.applied_edges = static_cast<std::uint64_t>(delta.size());
    result_.delta.dirty_vertices = static_cast<std::uint64_t>(
        dirty.at(tmpl_.size() - 1).size());
    result_.delta.dirty_fraction =
        n_ > 0 ? static_cast<double>(result_.delta.dirty_vertices) /
                     static_cast<double>(n_)
               : 0.0;
    result_.delta.stages_recomputed =
        static_cast<std::uint64_t>(pass_stats.stages_recomputed);
    result_.delta.rows_recomputed = pass_stats.rows_recomputed;
    result_.delta.rows_copied = pass_stats.rows_copied;
    ++recounts_;
    finalize(new_graph, total_timer.elapsed_s(), vertex_accumulator);
    poisoned_ = false;
    return result_;
  }

 private:
  /// Shared tail of the initial run and every recount: estimate,
  /// per-vertex scaling, run status, and a fresh report.
  void finalize(const Graph& graph, double seconds,
                const std::vector<double>& vertex_accumulator) {
    result_.seconds_total = seconds;
    result_.estimate = mean(result_.per_iteration);
    result_.relative_stderr = relative_mean_stderr(result_.per_iteration);
    const int iterations = options_.sampling.iterations;
    if (options_.per_vertex) {
      result_.vertex_counts.assign(static_cast<std::size_t>(n_), 0.0);
      for (std::size_t v = 0; v < static_cast<std::size_t>(n_); ++v) {
        result_.vertex_counts[v] = vertex_accumulator[v] * vertex_scale_ /
                                   static_cast<double>(iterations);
      }
    }
    result_.layout = {1, engine_opts_.inner_threads};
    result_.peak_table_bytes = retained_bytes();
    result_.run.status = RunStatus::kCompleted;
    result_.run.completed_iterations = iterations;
    result_.run.requested_iterations = iterations;
    result_.run.table_used = options_.execution.table;
    result_.run.engine_copies = 1;
    graph_version_ = graph.version();
    result_.report = build_report(graph);
  }

  [[nodiscard]] std::shared_ptr<const obs::RunReport> build_report(
      const Graph& graph) const {
    auto report = std::make_shared<obs::RunReport>();
    report->kind = "incremental_count";
    report->label = options_.observability.label;
    report->options = {
        {"execution.table", Table::kName},
        {"execution.incremental", "true"},
        {"sampling.iterations",
         std::to_string(options_.sampling.iterations)},
        {"sampling.num_colors", std::to_string(k_)},
        {"sampling.seed", std::to_string(options_.sampling.seed)},
    };
    report->graph.vertices = static_cast<std::int64_t>(graph.num_vertices());
    report->graph.edges = static_cast<std::int64_t>(graph.num_edges());
    report->graph.max_degree = static_cast<std::int64_t>(graph.max_degree());
    report->graph.labeled = graph.has_labels();
    report->tmpl.vertices = tmpl_.size();
    report->tmpl.root = partition_.template_root();
    report->tmpl.subtemplates = partition_.num_nodes();
    report->sampling.requested_iterations = options_.sampling.iterations;
    report->sampling.completed_iterations = options_.sampling.iterations;
    report->sampling.num_colors = k_;
    report->sampling.seed = options_.sampling.seed;
    report->sampling.estimate = result_.estimate;
    report->sampling.relative_stderr = result_.relative_stderr;
    report->sampling.colorful_probability = result_.colorful_probability;
    report->sampling.automorphisms = result_.automorphisms;
    report->sampling.trajectory = result_.running_estimates();
    report->timing.total_seconds = result_.seconds_total;
    report->timing.per_iteration_seconds = result_.seconds_per_iteration;
    report->memory.observed_peak_bytes = result_.peak_table_bytes;
    report->memory.table = Table::kName;
    report->threads.mode = parallel_mode_name(options_.execution.mode);
    report->threads.inner_threads = engine_opts_.inner_threads;
#ifdef _OPENMP
    report->threads.omp_max_threads = omp_get_max_threads();
#endif
    report->delta.incremental = true;
    report->delta.graph_version = graph_version_;
    report->delta.recounts = recounts_;
    report->delta.applied_edges = result_.delta.applied_edges;
    report->delta.dirty_vertices = result_.delta.dirty_vertices;
    report->delta.dirty_fraction = result_.delta.dirty_fraction;
    report->delta.stages_recomputed = result_.delta.stages_recomputed;
    report->delta.rows_recomputed = result_.delta.rows_recomputed;
    report->delta.rows_copied = result_.delta.rows_copied;
    return report;
  }

  TreeTemplate tmpl_;
  CountOptions options_;
  PartitionTree partition_;
  int k_;
  VertexId n_;
  DpEngineOptions engine_opts_;
  bool parallel_inner_ = false;
  double scale_ = 1.0;
  double vertex_scale_ = 1.0;
  std::vector<typename DpEngine<Table>::Retained> retained_;
  CountResult result_;
  std::uint64_t graph_version_ = 0;
  std::uint64_t recounts_ = 0;
  bool poisoned_ = false;
};

}  // namespace

RunHandle::RunHandle(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
RunHandle::RunHandle(RunHandle&&) noexcept = default;
RunHandle& RunHandle::operator=(RunHandle&&) noexcept = default;
RunHandle::~RunHandle() = default;

const CountResult& RunHandle::result() const noexcept {
  return impl_->result();
}
std::uint64_t RunHandle::graph_version() const noexcept {
  return impl_->graph_version();
}
std::uint64_t RunHandle::recounts() const noexcept {
  return impl_->recounts();
}
std::size_t RunHandle::retained_bytes() const noexcept {
  return impl_->retained_bytes();
}
const CountResult& RunHandle::recount(const Graph& new_graph,
                                      const GraphDelta& delta) {
  return impl_->recount(new_graph, delta);
}

RunHandle begin_incremental(const Graph& graph, const TreeTemplate& tmpl,
                            const CountOptions& options) {
  CountOptions opts = options;
  opts.execution.incremental = true;
  detail::validate_tree_count(graph, tmpl, opts, "begin_incremental");

  std::unique_ptr<RunHandle::Impl> impl;
  switch (opts.execution.table) {
    case TableKind::kNaive:
      impl = std::make_unique<IncrementalState<NaiveTable>>(graph, tmpl,
                                                            opts);
      break;
    case TableKind::kCompact:
      impl = std::make_unique<IncrementalState<CompactTable>>(graph, tmpl,
                                                              opts);
      break;
    case TableKind::kHash:
      impl = std::make_unique<IncrementalState<HashTable>>(graph, tmpl,
                                                           opts);
      break;
    case TableKind::kSuccinct:
      impl = std::make_unique<IncrementalState<SuccinctTable>>(graph, tmpl,
                                                               opts);
      break;
  }
  if (impl == nullptr) {
    throw internal_error("begin_incremental: bad TableKind");
  }
  return RunHandle(std::move(impl));
}

}  // namespace fascia
