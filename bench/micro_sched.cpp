// micro_sched: batch counting engine vs the legacy per-template loop.
//
// Workload: the full k=7 motif profile (11 free trees) on a
// Portland-like contact network — the §V-E setting where every
// template shares one graph and the batch engine's cross-template
// stage reuse pays.  Three runs:
//
//   legacy    one count_template call per tree, each with its own
//             decorrelated seed stream (the loop count_all_treelets
//             ran before it became one batch workload)
//   batch     sched::run_batch, fixed budget, shared colorings +
//             deduplicated stages (same estimator variance)
//   adaptive  sched::run_batch with per-job relative-stderr targets
//             set to what the fixed run achieved, cap = 2x the fixed
//             budget — easy templates retire early
//
// Expected: batch >= 1.3x faster than legacy at equal iterations
// (the merged DAG evaluates ~40% fewer stages per coloring), and
// adaptive reaches the same error targets with fewer total
// iterations.  Each run is warmed up by one untimed pass and timed as
// the median of three more, so a cold first pass (page faults, thread
// start-up) does not decide the speedup.  Results are also written as
// machine-readable JSON (--json, default BENCH_sched.json).

#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/counter.hpp"
#include "obs/metrics.hpp"
#include "sched/batch.hpp"
#include "treelet/free_trees.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

/// Snapshot of the observability registry for one measured run.  The
/// bench resets the registry before each run and scrapes it after, so
/// the engines' own instruments — not bench-side bookkeeping — supply
/// the colorings-drawn and DP-stage-pass numbers in the table below.
struct Scrape {
  long long colorings = 0;
  long long stage_passes = 0;
  double stage_seconds = 0.0;
};

Scrape scrape_registry() {
  using fascia::obs::Registry;
  Scrape out;
  out.colorings =
      static_cast<long long>(Registry::global().read("count.colorings").value);
  const auto stage = Registry::global().read("dp.stage.seconds");
  out.stage_passes = static_cast<long long>(stage.hist.count);
  out.stage_seconds = stage.hist.sum;
  return out;
}

constexpr int kTimedPasses = 3;

/// Runs `pass` once untimed, then kTimedPasses times; returns the
/// median wall time.  The registry is reset before each timed pass, so
/// `seen` (scraped after the last) describes one pass.
template <typename Pass>
double median_seconds(const Pass& pass, Scrape& seen) {
  pass();
  std::vector<double> seconds;
  for (int i = 0; i < kTimedPasses; ++i) {
    fascia::obs::Registry::global().reset();
    fascia::WallTimer timer;
    pass();
    seconds.push_back(timer.elapsed_s());
  }
  seen = scrape_registry();
  return fascia::median(seconds);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("micro_sched: batch engine vs per-template loop");
  ctx.cli.add_option("k", "template size for the motif profile", "7");
  ctx.cli.add_option("iters", "fixed iterations per template", "6");
  ctx.cli.add_option("json", "machine-readable output path",
                     "BENCH_sched.json");
  if (!ctx.parse(argc, argv)) return 0;
  const int k = static_cast<int>(ctx.cli.integer("k"));
  const int iters = static_cast<int>(ctx.cli.integer("iters"));
  const std::string json_path = ctx.cli.str("json");

  bench::banner("micro_sched", "batch scheduling with cross-template reuse",
                "k=" + std::to_string(k) + " motif profile, " +
                    std::to_string(iters) + " fixed iterations per template");

  const Graph g = ctx.dataset("portland", 0.002);
  std::printf("graph: %s\n\n", bench::describe_graph(g).c_str());

  // All three runs report through the observability registry
  // (DESIGN.md §10); the same instruments back fascia_cli --report.
  obs::set_enabled(true);

  CountOptions legacy_options;
  legacy_options.sampling.iterations = iters;
  legacy_options.sampling.seed = ctx.seed;
  legacy_options.execution.mode = ParallelMode::kOuterLoop;
  legacy_options.execution.threads = ctx.threads;

  const std::vector<TreeTemplate> trees = all_free_trees(k);
  Scrape legacy_obs;
  const double legacy_seconds = median_seconds(
      [&] {
        for (std::size_t i = 0; i < trees.size(); ++i) {
          CountOptions per_tree = legacy_options;
          per_tree.sampling.seed = ctx.seed + 0x9e3779b9u * (i + 1);
          (void)count_template(g, trees[i], per_tree);
        }
      },
      legacy_obs);

  std::vector<sched::BatchJob> fixed_jobs;
  for (const TreeTemplate& tree : trees) {
    sched::BatchJob job;
    job.tmpl = tree;
    job.iterations = iters;
    fixed_jobs.push_back(std::move(job));
  }
  sched::BatchOptions batch_options;
  batch_options.seed = ctx.seed;
  batch_options.mode = ParallelMode::kOuterLoop;
  batch_options.num_threads = ctx.threads;

  sched::BatchResult fixed;
  Scrape fixed_obs;
  const double batch_seconds = median_seconds(
      [&] { fixed = sched::run_batch(g, fixed_jobs, batch_options); },
      fixed_obs);
  const double speedup = legacy_seconds / batch_seconds;

  // Adaptive run: ask each job for the relative stderr the fixed
  // budget actually delivered; a smarter schedule should get there
  // with fewer total iterations.
  std::vector<sched::BatchJob> adaptive_jobs;
  for (std::size_t j = 0; j < fixed.jobs.size(); ++j) {
    sched::BatchJob job;
    job.tmpl = trees[j];
    job.target_relative_stderr =
        relative_mean_stderr(fixed.jobs[j].per_iteration);
    if (job.target_relative_stderr <= 0.0) job.target_relative_stderr = 1e-9;
    job.max_iterations = 2 * iters;
    adaptive_jobs.push_back(std::move(job));
  }
  sched::BatchOptions adaptive_options = batch_options;
  adaptive_options.min_iterations = 2;
  adaptive_options.round_iterations = 2;

  sched::BatchResult adaptive;
  Scrape adaptive_obs;
  const double adaptive_seconds = median_seconds(
      [&] { adaptive = sched::run_batch(g, adaptive_jobs, adaptive_options); },
      adaptive_obs);
  const long long fixed_total = fixed.iterations_total;
  int adaptive_converged = 0;
  for (const sched::BatchJobResult& job : adaptive.jobs) {
    if (job.converged) ++adaptive_converged;
  }

  // "colorings" and "stage passes" come from the obs registry: what
  // the engines actually recorded, not what the bench assumes they did.
  TablePrinter table({"Run", "iterations", "colorings", "seconds",
                      "stage passes", "cache hit"});
  auto add = [&](const char* name, long long iterations, const Scrape& seen,
                 double seconds, double hit) {
    table.add_row({name, TablePrinter::num(iterations),
                   TablePrinter::num(seen.colorings),
                   TablePrinter::num(seconds, 3),
                   TablePrinter::num(seen.stage_passes),
                   TablePrinter::num(hit, 3)});
  };
  add("legacy loop", static_cast<long long>(trees.size()) * iters,
      legacy_obs, legacy_seconds, 0.0);
  add("batch fixed", fixed.iterations_total, fixed_obs, batch_seconds,
      fixed.cache_hit_rate());
  add("batch adaptive", adaptive.iterations_total, adaptive_obs,
      adaptive_seconds, adaptive.cache_hit_rate());
  table.print();

  std::printf("\nspeedup (legacy / batch fixed): %.2fx\n", speedup);
  std::printf("merged DAG: %zu unique stages for %zu demanded (%.0f%% shared)\n",
              fixed.unique_stages, fixed.total_stage_instances,
              100.0 * (1.0 - static_cast<double>(fixed.unique_stages) /
                                 static_cast<double>(
                                     fixed.total_stage_instances)));
  std::printf("adaptive: %lld iterations vs %lld fixed (%d/%zu jobs "
              "converged)\n",
              adaptive.iterations_total, fixed_total, adaptive_converged,
              adaptive.jobs.size());

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"micro_sched\",\n");
  std::fprintf(json, "  \"k\": %d,\n", k);
  std::fprintf(json, "  \"templates\": %zu,\n", trees.size());
  std::fprintf(json, "  \"graph_vertices\": %d,\n", g.num_vertices());
  std::fprintf(json, "  \"graph_edges\": %lld,\n",
               static_cast<long long>(g.num_edges()));
  std::fprintf(json, "  \"fixed_iterations_per_template\": %d,\n", iters);
  std::fprintf(json, "  \"legacy_seconds\": %.6f,\n", legacy_seconds);
  std::fprintf(json, "  \"batch_seconds\": %.6f,\n", batch_seconds);
  std::fprintf(json, "  \"speedup\": %.4f,\n", speedup);
  std::fprintf(json, "  \"unique_stages\": %zu,\n", fixed.unique_stages);
  std::fprintf(json, "  \"total_stage_instances\": %zu,\n",
               fixed.total_stage_instances);
  std::fprintf(json, "  \"stage_requests\": %zu,\n", fixed.stage_requests);
  std::fprintf(json, "  \"stage_evaluations\": %zu,\n",
               fixed.stage_evaluations);
  std::fprintf(json, "  \"cache_hit_rate\": %.4f,\n", fixed.cache_hit_rate());
  std::fprintf(json, "  \"legacy_colorings\": %lld,\n",
               legacy_obs.colorings);
  std::fprintf(json, "  \"batch_colorings\": %lld,\n", fixed_obs.colorings);
  std::fprintf(json, "  \"legacy_stage_passes\": %lld,\n",
               legacy_obs.stage_passes);
  std::fprintf(json, "  \"batch_stage_passes\": %lld,\n",
               fixed_obs.stage_passes);
  std::fprintf(json, "  \"fixed_iterations_total\": %lld,\n", fixed_total);
  std::fprintf(json, "  \"adaptive_iterations_total\": %lld,\n",
               adaptive.iterations_total);
  std::fprintf(json, "  \"adaptive_seconds\": %.6f,\n", adaptive_seconds);
  std::fprintf(json, "  \"adaptive_converged_jobs\": %d\n",
               adaptive_converged);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
