#include "core/counter.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/reorder.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "run/checkpoint.hpp"
#include "sched/driver.hpp"
#include "sched/plan.hpp"
#include "treelet/canonical.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace fascia {

namespace {

std::string format_bool(bool value) { return value ? "true" : "false"; }

/// The batch view of a tree count: one job, cross-template reuse off.
sched::BatchOptions one_job_options(const CountOptions& options, int k) {
  sched::BatchOptions batch;
  batch.num_colors = k;
  batch.table = options.execution.table;
  batch.partition = options.execution.partition;
  batch.share_tables = options.execution.share_tables;
  batch.cross_template_reuse = false;
  batch.mode = options.execution.mode;
  batch.num_threads = options.execution.threads;
  batch.seed = options.sampling.seed;
  batch.run = options.run;
  batch.observability = options.observability;
  return batch;
}

std::vector<sched::BatchJob> one_job(const TreeTemplate& tmpl,
                                     const CountOptions& options) {
  std::vector<sched::BatchJob> jobs(1);
  jobs[0].tmpl = tmpl;
  jobs[0].iterations = options.sampling.iterations;
  return jobs;
}

/// count_template and graphlet_degrees: validation, then the locality
/// pass (once, up front) and the one-job run.  Everything downstream
/// of a reorder sees the reordered graph, while colorings, checkpoints
/// and per-vertex outputs stay keyed by original ids, so the estimate
/// is bit-identical to the unreordered run.
CountResult count(const Graph& graph, const TreeTemplate& tmpl,
                  const CountOptions& options, const char* kind) {
  if (options.execution.incremental) {
    throw usage_error(
        "count_template does not retain DP state; use begin_incremental "
        "(core/incremental.hpp) for incremental recounting");
  }
  if (options.observability.enabled) obs::set_enabled(true);
  detail::validate_tree_count(graph, tmpl, options, "count_template");
  if (options.execution.reorder == ReorderMode::kNone) {
    const sched::BatchPlan plan = detail::plan_tree_count(graph, tmpl, options);
    return detail::run_tree_count(graph, tmpl, options, plan, kind, {}, 0.0);
  }
  WallTimer timer;
  const Permutation perm = reorder_permutation(graph, options.execution.reorder);
  const Graph reordered = apply_permutation(graph, perm);
  const double reorder_seconds = timer.elapsed_s();
  const sched::BatchPlan plan =
      detail::plan_tree_count(reordered, tmpl, options);
  sched::DriverInputs inputs;
  inputs.perm = &perm;
  CountResult result = detail::run_tree_count(reordered, tmpl, options, plan,
                                              kind, inputs, reorder_seconds);
  result.reorder_gap_before = avg_neighbor_gap(graph);
  result.reorder_gap_after = avg_neighbor_gap(reordered);
  return result;
}

}  // namespace

namespace detail {

sched::BatchPlan plan_tree_count(const Graph& graph, const TreeTemplate& tmpl,
                                 const CountOptions& options,
                                 const PartitionProvider& partitions) {
  sched::BatchOptions batch =
      one_job_options(options, effective_colors(tmpl, options));
  batch.partition_provider = partitions;
  // Per-vertex counts are keyed by the root's role, so one without a
  // root keeps the root it always had: one-at-a-time's default leaf.
  if (options.per_vertex && options.root < 0 && !batch.partition) {
    batch.partition = PartitionStrategy::kOneAtATime;
  }
  return sched::plan_batch(graph, one_job(tmpl, options), batch, options.root);
}

CountResult run_tree_count(const Graph& graph, const TreeTemplate& tmpl,
                           const CountOptions& options,
                           const sched::BatchPlan& plan, const char* kind,
                           sched::DriverInputs inputs,
                           double reorder_seconds) {
  const CountSubject subject{
      tmpl.describe(), tmpl.size(),
      vertex_stabilizer(tmpl, plan.merged.template_root())};
  return run_count(graph, subject, options, plan, kind, std::move(inputs),
                   reorder_seconds);
}

CountResult run_count(const Graph& graph, const CountSubject& subject,
                      const CountOptions& options,
                      const sched::BatchPlan& plan, const char* kind,
                      sched::DriverInputs inputs, double reorder_seconds) {
  const int k = plan.num_colors;
  FASCIA_TRACE("count.run", subject.size, k,
               table_kind_name(options.execution.table));
  const PartitionTree& partition = plan.merged;

  inputs.checkpoint_kind = run::Checkpoint::kKindCount;
  // Everything the per-iteration estimates depend on, so a checkpoint
  // from a different configuration is rejected instead of silently
  // blended.  The effective (post-ladder) table kind participates:
  // layouts sum in different orders, so mixing them would break the
  // bit-identical-resume guarantee.  The partition is the planned one
  // (strategy, and root as handed to the partitioner: -1 for the
  // strategy's default), so a checkpoint never resumes under another
  // plan, while one written when the caller named that same partition
  // still resumes.
  const int partition_root = plan.job_partition_root.front();
  const PartitionStrategy strategy = plan.job_partition_strategy.front();
  inputs.fingerprint = [&](TableKind table) {
    std::uint64_t fp = run::kFingerprintSeed;
    fp = run::fingerprint_mix(fp, std::uint64_t{run::Checkpoint::kKindCount});
    fp = run::fingerprint_mix(fp, subject.describe);
    fp = run::fingerprint_mix(
        fp, static_cast<std::uint64_t>(graph.num_vertices()));
    fp = run::fingerprint_mix(fp,
                              static_cast<std::uint64_t>(graph.num_edges()));
    fp = run::fingerprint_mix(fp, options.sampling.seed);
    fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(k));
    fp = run::fingerprint_mix(fp,
                              static_cast<std::uint64_t>(partition_root + 1));
    fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(strategy));
    fp = run::fingerprint_mix(
        fp, static_cast<std::uint64_t>(options.execution.share_tables));
    fp = run::fingerprint_mix(fp,
                              static_cast<std::uint64_t>(options.per_vertex));
    fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(table));
    return fp;
  };
  inputs.per_vertex = options.per_vertex;
  inputs.forced_outer_copies = options.execution.outer_copies;
  std::vector<sched::BatchJob> jobs(1);
  jobs[0].iterations = options.sampling.iterations;
  sched::DriverOutput driven =
      sched::drive(graph, jobs, one_job_options(options, k), plan, inputs);
  sched::BatchJobResult& job = driven.batch.jobs.front();

  CountResult result;
  result.run = driven.batch.run;
  result.per_iteration = std::move(job.per_iteration);
  result.seconds_per_iteration = std::move(driven.batch.seconds_per_iteration);
  result.seconds_total = driven.seconds;
  result.peak_table_bytes = driven.peak_table_bytes;
  result.layout = driven.batch.layout;
  result.colorful_probability = job.colorful_probability;
  result.automorphisms = job.automorphisms;
  result.root_stabilizer = subject.root_stabilizer;
  result.dp_cost = partition.dp_cost(k);
  result.max_live_tables = partition.max_live_tables();
  result.num_subtemplates = partition.num_nodes();
  result.reorder_seconds = reorder_seconds;
  result.delta.stages_recomputed = driven.delta.stages_recomputed;
  result.delta.rows_recomputed = driven.delta.rows_recomputed;
  result.delta.rows_copied = driven.delta.rows_copied;
  // Honest partial result: the estimate covers exactly the contiguous
  // completed prefix.
  result.estimate = mean(result.per_iteration);
  result.relative_stderr = relative_mean_stderr(result.per_iteration);
  if (options.per_vertex) {
    // Per-vertex rooted totals count each occurrence through v once per
    // stabilizer element of the root's orbit.
    const double vertex_scale =
        1.0 / (result.colorful_probability *
               static_cast<double>(result.root_stabilizer));
    const int prefix = result.run.completed_iterations;
    const double denominator = prefix > 0 ? static_cast<double>(prefix) : 1.0;
    result.vertex_counts = std::move(driven.vertex_sums);
    for (double& count : result.vertex_counts) {
      count = count * vertex_scale / denominator;
    }
  }

  auto report = std::make_shared<obs::RunReport>(std::move(driven.report));
  report->kind = kind;
  report->label = options.observability.label;
  report->options = {
      {"sampling.iterations", std::to_string(options.sampling.iterations)},
      {"sampling.num_colors", std::to_string(k)},
      {"sampling.seed", std::to_string(options.sampling.seed)},
      {"execution.table", table_kind_name(options.execution.table)},
      {"execution.partition",
       partition_strategy_name(options.execution.partition)},
      {"execution.share_tables", format_bool(options.execution.share_tables)},
      {"execution.mode", parallel_mode_name(options.execution.mode)},
      {"execution.threads", std::to_string(options.execution.threads)},
      {"execution.reorder", reorder_mode_name(options.execution.reorder)},
      {"execution.outer_copies",
       std::to_string(options.execution.outer_copies)},
      {"root", std::to_string(options.root)},
      {"per_vertex", format_bool(options.per_vertex)},
  };
  if (options.run.active()) {
    report->options.emplace_back(
        "run.deadline_seconds", std::to_string(options.run.deadline_seconds));
    report->options.emplace_back(
        "run.memory_budget_bytes",
        std::to_string(options.run.memory_budget_bytes));
    report->options.emplace_back("run.checkpoint_path",
                                 options.run.checkpoint_path);
    report->options.emplace_back("run.resume",
                                 format_bool(options.run.resume));
  }
  if (options.execution.incremental) {
    report->options.emplace_back("execution.incremental", "true");
  }
  report->tmpl.vertices = subject.size;
  report->tmpl.root = partition.template_root();
  report->tmpl.subtemplates = result.num_subtemplates;
  if (const auto& choice = plan.partition_choice) {
    obs::RunReport::Choices::Partition& chosen =
        report->choices.partition.emplace();
    chosen.strategy = partition_strategy_name(choice->strategy);
    chosen.root = choice->root;
    chosen.stages = static_cast<int>(choice->stages);
    chosen.modeled_peak_bytes = choice->modeled_peak_bytes;
    chosen.default_stages = static_cast<int>(choice->default_stages);
    chosen.default_modeled_peak_bytes = choice->default_modeled_peak_bytes;
    if (choice->strategy_pinned) chosen.pinned.emplace_back("strategy");
    if (choice->root_pinned) chosen.pinned.emplace_back("root");
  }
  report->sampling.estimate = result.estimate;
  report->sampling.relative_stderr = result.relative_stderr;
  report->sampling.colorful_probability = result.colorful_probability;
  report->sampling.automorphisms = result.automorphisms;
  report->sampling.trajectory = result.running_estimates();
  report->timing.total_seconds = result.seconds_total;
  report->timing.reorder_seconds = reorder_seconds;
  result.report = std::move(report);
  return result;
}

void validate_tree_count(const Graph& graph, const TreeTemplate& tmpl,
                         const CountOptions& options, const char* caller) {
  const std::string prefix = std::string(caller) + ": ";
  if (tmpl.has_labels() != graph.has_labels()) {
    throw std::invalid_argument(
        prefix +
        "template and graph must both be labeled or both unlabeled");
  }
  const int k = effective_colors(tmpl, options);
  if (k < tmpl.size()) {
    throw std::invalid_argument(prefix +
                                "num_colors must be >= template size");
  }
  if (k > kMaxTemplateSize) {
    throw std::invalid_argument(prefix + "too many colors");
  }
  if (options.sampling.iterations < 1) {
    throw std::invalid_argument(prefix + "iterations must be >= 1");
  }
  if (options.root < -1 || options.root >= tmpl.size()) {
    throw std::invalid_argument(prefix + "root out of range");
  }
  options.validate();  // grouped-options coherence checks (kUsage)
}

}  // namespace detail

int effective_colors(const TreeTemplate& tmpl, const CountOptions& options) {
  return options.sampling.num_colors > 0 ? options.sampling.num_colors
                                         : tmpl.size();
}

CountResult count_template(const Graph& graph, const TreeTemplate& tmpl,
                           const CountOptions& options) {
  return count(graph, tmpl, options, "count_template");
}

CountResult graphlet_degrees(const Graph& graph, const TreeTemplate& tmpl,
                             int orbit_vertex, CountOptions options) {
  options.root = orbit_vertex;
  options.per_vertex = true;
  return count(graph, tmpl, options, "graphlet_degrees");
}

CountResult graphlet_degrees(const Graph& graph, const TreeTemplate& tmpl,
                             const CountOptions& options) {
  if (options.root < 0) {
    throw usage_error(
        "graphlet_degrees: options.root must name the orbit vertex "
        "(builder().root(v))");
  }
  return graphlet_degrees(graph, tmpl, options.root, options);
}

std::vector<double> CountResult::running_estimates() const {
  return prefix_means(per_iteration);
}

}  // namespace fascia
