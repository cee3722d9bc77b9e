#include "sched/batch.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "run/checkpoint.hpp"
#include "sched/driver.hpp"
#include "sched/plan.hpp"
#include "util/timer.hpp"

namespace fascia::sched {

BatchResult run_batch(const Graph& graph, const std::vector<BatchJob>& jobs,
                      const BatchOptions& options) {
  if (options.observability.enabled) obs::set_enabled(true);
  FASCIA_TRACE("batch.run", static_cast<std::int64_t>(jobs.size()));
  WallTimer total_timer;
  const BatchPlan plan = plan_batch(graph, jobs, options);

  DriverInputs inputs;
  inputs.checkpoint_kind = run::Checkpoint::kKindBatch;
  inputs.fingerprint = [&](TableKind table) {
    std::uint64_t fp = run::kFingerprintSeed;
    fp = run::fingerprint_mix(fp, std::uint64_t{run::Checkpoint::kKindBatch});
    fp = run::fingerprint_mix(
        fp, static_cast<std::uint64_t>(graph.num_vertices()));
    fp = run::fingerprint_mix(fp,
                              static_cast<std::uint64_t>(graph.num_edges()));
    fp = run::fingerprint_mix(fp, options.seed);
    fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(plan.num_colors));
    fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(table));
    for (const BatchJob& job : jobs) {
      fp = run::fingerprint_mix(fp, job.tmpl.describe());
    }
    return fp;
  };
  DriverOutput driven = drive(graph, jobs, options, plan, inputs);
  BatchResult result = std::move(driven.batch);
  result.seconds_total = total_timer.elapsed_s();

  // RunOutcome view of the batch: sum of job estimates, worst per-job
  // error (sums of counts at heterogeneous scales make a pooled stderr
  // meaningless; the max is the honest "all jobs at least this good").
  result.estimate = 0.0;
  result.relative_stderr = 0.0;
  for (const BatchJobResult& job : result.jobs) {
    result.estimate += job.estimate;
    result.relative_stderr =
        std::max(result.relative_stderr, job.relative_stderr);
  }

  auto report = std::make_shared<obs::RunReport>(std::move(driven.report));
  report->kind = "run_batch";
  report->label = options.observability.label;
  report->options = {
      {"jobs", std::to_string(jobs.size())},
      {"num_colors", std::to_string(plan.num_colors)},
      {"seed", std::to_string(options.seed)},
      {"table", table_kind_name(options.table)},
      {"partition", partition_strategy_name(options.partition)},
      {"share_tables", options.share_tables ? "true" : "false"},
      {"cross_template_reuse",
       options.cross_template_reuse ? "true" : "false"},
      {"mode", parallel_mode_name(options.mode)},
      {"num_threads", std::to_string(options.num_threads)},
      {"min_iterations", std::to_string(options.min_iterations)},
      {"round_iterations", std::to_string(options.round_iterations)},
      {"adaptive_batch", options.adaptive_batch ? "true" : "false"},
  };
  report->tmpl.subtemplates = static_cast<int>(result.unique_stages);
  report->sampling.estimate = result.estimate;
  report->sampling.relative_stderr = result.relative_stderr;
  report->timing.total_seconds = result.seconds_total;
  report->timing.plan_seconds = result.seconds_plan;
  report->jobs.reserve(result.jobs.size());
  for (std::size_t j = 0; j < result.jobs.size(); ++j) {
    obs::ReportJob entry;
    entry.name = jobs[j].tmpl.describe();
    entry.estimate = result.jobs[j].estimate;
    entry.relative_stderr = result.jobs[j].relative_stderr;
    entry.iterations = result.jobs[j].iterations;
    entry.converged = result.jobs[j].converged;
    report->jobs.push_back(std::move(entry));
  }
  result.report = std::move(report);
  return result;
}

}  // namespace fascia::sched
