#include "core/motifs.hpp"

#include <algorithm>
#include <memory>

#include "obs/report.hpp"
#include "sched/batch.hpp"
#include "treelet/free_trees.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace fascia {

namespace {

/// Summarize the per-template outcomes into the profile's RunOutcome
/// base and attach the "count_all_treelets" report: the batch's own
/// report (graph, stages, timing, memory, threads, run status, and the
/// jobs and sampling figures, which are the profile's) under the
/// profile's kind and options.
void finish_profile(MotifProfile& profile, const CountOptions& options,
                    const obs::RunReport& batch_report) {
  profile.estimate = 0.0;
  for (double count : profile.counts) profile.estimate += count;

  auto report = std::make_shared<obs::RunReport>(batch_report);
  report->kind = "count_all_treelets";
  report->options = {
      {"k", std::to_string(profile.k)},
      {"templates", std::to_string(profile.trees.size())},
      {"sampling.iterations", std::to_string(options.sampling.iterations)},
      {"sampling.seed", std::to_string(options.sampling.seed)},
  };
  report->tmpl.vertices = profile.k;
  profile.report = std::move(report);
}

}  // namespace

std::vector<double> MotifProfile::relative_frequencies() const {
  const double average = mean(counts);
  std::vector<double> rel(counts.size(), 0.0);
  if (average == 0.0) return rel;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    rel[i] = counts[i] / average;
  }
  return rel;
}

MotifProfile count_all_treelets(const Graph& graph, int k,
                                const CountOptions& options) {
  // The batch plan runs on the original vertex order.
  reject_unsupported_reorder(options, "count_all_treelets");
  options.validate();
  WallTimer total_timer;
  MotifProfile profile;
  profile.k = k;
  profile.trees = all_free_trees(k);
  std::vector<sched::BatchJob> jobs;
  jobs.reserve(profile.trees.size());
  for (const TreeTemplate& tree : profile.trees) {
    sched::BatchJob job;
    job.tmpl = tree;
    job.iterations = options.sampling.iterations;
    jobs.push_back(std::move(job));
  }

  sched::BatchOptions batch_options;
  batch_options.num_colors = options.sampling.num_colors;
  batch_options.table = options.execution.table;
  batch_options.partition = options.execution.partition;
  batch_options.share_tables = options.execution.share_tables;
  batch_options.mode = options.execution.mode;
  batch_options.num_threads = options.execution.threads;
  batch_options.seed = options.sampling.seed;
  batch_options.run = options.run;
  batch_options.observability = options.observability;

  const sched::BatchResult batch = sched::run_batch(graph, jobs,
                                                    batch_options);
  for (const sched::BatchJobResult& job : batch.jobs) {
    profile.counts.push_back(job.estimate);
    profile.iterations.push_back(job.iterations);
    profile.seconds.push_back(job.seconds);
    profile.relative_stderr =
        std::max(profile.relative_stderr, job.relative_stderr);
  }
  profile.run = batch.run;
  profile.seconds_total = total_timer.elapsed_s();
  finish_profile(profile, options, *batch.report);
  return profile;
}

}  // namespace fascia
