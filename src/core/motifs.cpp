#include "core/motifs.hpp"

#include <algorithm>
#include <memory>

#include "core/counter.hpp"
#include "obs/report.hpp"
#include "sched/batch.hpp"
#include "treelet/free_trees.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace fascia {

namespace {

/// Summarize the per-template outcomes into the profile's RunOutcome
/// base and attach the "count_all_treelets" report.
void finish_profile(MotifProfile& profile, const CountOptions& options) {
  profile.estimate = 0.0;
  for (double count : profile.counts) profile.estimate += count;
  profile.run.requested_iterations = options.sampling.iterations;
  profile.run.completed_iterations = options.sampling.iterations;

  auto report = std::make_shared<obs::RunReport>();
  report->kind = "count_all_treelets";
  report->label = options.observability.label;
  report->options = {
      {"k", std::to_string(profile.k)},
      {"templates", std::to_string(profile.trees.size())},
      {"sampling.iterations", std::to_string(options.sampling.iterations)},
      {"sampling.seed", std::to_string(options.sampling.seed)},
      {"execution.batch_engine",
       options.execution.batch_engine ? "true" : "false"},
  };
  report->tmpl.vertices = profile.k;
  report->sampling.seed = options.sampling.seed;
  report->sampling.estimate = profile.estimate;
  report->sampling.relative_stderr = profile.relative_stderr;
  report->timing.total_seconds = profile.seconds_total;
  report->run.status = run_status_name(profile.run.status);
  report->jobs.reserve(profile.trees.size());
  for (std::size_t i = 0; i < profile.trees.size(); ++i) {
    obs::ReportJob entry;
    entry.name = profile.trees[i].describe();
    entry.estimate = i < profile.counts.size() ? profile.counts[i] : 0.0;
    entry.iterations = i < profile.iterations.size() ? profile.iterations[i] : 0;
    report->jobs.push_back(std::move(entry));
  }
  profile.report = std::move(report);
}

/// Batch path: the whole profile as one sched workload — shared
/// colorings, cross-template stage reuse, fixed per-template budget.
MotifProfile count_all_treelets_batch(const Graph& graph,
                                      MotifProfile profile,
                                      const CountOptions& options) {
  WallTimer total_timer;
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
  batch_options.reference_kernels = options.execution.reference_kernels;

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
  finish_profile(profile, options);
  return profile;
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
  MotifProfile profile;
  profile.k = k;
  profile.trees = all_free_trees(k);
  if (options.execution.batch_engine) {
    return count_all_treelets_batch(graph, std::move(profile), options);
  }

  WallTimer total_timer;
  for (std::size_t i = 0; i < profile.trees.size(); ++i) {
    WallTimer timer;
    CountOptions per_tree = options;
    // Decorrelate templates: same base seed but disjoint streams, so a
    // profile is reproducible yet templates do not share colorings.
    per_tree.sampling.seed = options.sampling.seed + 0x9e3779b9u * (i + 1);
    const CountResult result = count_template(graph, profile.trees[i],
                                              per_tree);
    profile.counts.push_back(result.estimate);
    profile.iterations.push_back(options.sampling.iterations);
    profile.seconds.push_back(timer.elapsed_s());
    profile.relative_stderr =
        std::max(profile.relative_stderr, result.relative_stderr);
    if (profile.run.status == RunStatus::kCompleted) {
      profile.run.status = result.run.status;  // first non-clean wins
    }
  }
  profile.seconds_total = total_timer.elapsed_s();
  finish_profile(profile, options);
  return profile;
}

}  // namespace fascia
