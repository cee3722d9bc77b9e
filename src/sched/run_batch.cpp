#include "sched/batch.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "comb/binomial.hpp"
#include "core/coloring.hpp"
#include "core/engine.hpp"
#include "core/thread_layout.hpp"
#include "dp/table_compact.hpp"
#include "dp/table_hash.hpp"
#include "dp/table_naive.hpp"
#include "dp/table_succinct.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "run/checkpoint.hpp"
#include "run/guard.hpp"
#include "run/memory.hpp"
#include "sched/plan.hpp"
#include "treelet/canonical.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/mem_tracker.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace fascia::sched {

namespace {

using detail::iteration_seed;
using detail::random_coloring;

const obs::Metric& colorings_metric() {
  static const obs::Metric m("count.colorings",
                             obs::InstrumentKind::kCounter);
  return m;
}
const obs::Metric& iteration_seconds_metric() {
  static const obs::Metric m("run.iteration.seconds",
                             obs::InstrumentKind::kTimeHistogram);
  return m;
}
const obs::Metric& run_seconds_metric() {
  static const obs::Metric m("run.seconds",
                             obs::InstrumentKind::kTimeHistogram);
  return m;
}
const obs::Metric& peak_bytes_metric() {
  static const obs::Metric m("run.peak_table_bytes",
                             obs::InstrumentKind::kGauge);
  return m;
}

int resolve_threads(int requested) {
#ifdef _OPENMP
  return requested > 0 ? requested : omp_get_max_threads();
#else
  (void)requested;
  return 1;
#endif
}

/// Controller view of one job while the batch runs.
struct JobState {
  double scale = 0.0;     ///< raw colorful total -> occurrence estimate
  bool adaptive = false;
  double target = 0.0;    ///< relative-stderr goal (adaptive only)
  int quota = 0;          ///< samples granted so far
  int cap = 0;            ///< never exceed (fixed budget or adaptive cap)
  int base = 0;           ///< sample slot where the current round lands
  bool finished = false;
  bool leaf_root = false; ///< single-vertex template
  double leaf_raw = 0.0;  ///< its coloring-independent raw count

  /// Samples this job has actually collected.  Uniform allocation
  /// keeps every active job in every coloring round, so this equals
  /// the global round counter; under adaptive_batch paused jobs fall
  /// behind it.
  [[nodiscard]] int collected(const BatchJobResult& result) const noexcept {
    return static_cast<int>(result.per_iteration.size());
  }
};

/// Run-layer configuration resolved before table-type dispatch.
struct BatchSetup {
  TableKind table = TableKind::kCompact;
  int engine_copies = 0;  ///< 0 = no cap (no memory plan ran)
  bool ladder_degraded = false;
  bool spill = false;  ///< plan took the out-of-core rung
  std::uint64_t fingerprint = 0;
  RunReport report;
};

template <class Table>
void execute(const Graph& graph, const std::vector<BatchJob>& jobs,
             const BatchOptions& options, const BatchPlan& plan,
             const BatchSetup& setup, BatchResult& out,
             std::vector<obs::ReportStage>* stages) {
  const int k = plan.num_colors;
  int threads = resolve_threads(options.num_threads);
  const bool outer_mode = options.mode == ParallelMode::kOuterLoop;
  const bool inner_mode = options.mode == ParallelMode::kInnerLoop;
  const bool hybrid = options.mode == ParallelMode::kHybrid;
  if (outer_mode && setup.engine_copies > 0) {
    threads = std::min(threads, setup.engine_copies);
  }

  // Resolve the outer x inner split.  The batch engine has no probe
  // iteration (the first coloring already spans every job), so hybrid
  // mode feeds choose_layout a modeled occupancy: unlabeled sweeps
  // visit nearly every vertex, labeled frontiers are sparse.
  ThreadLayout layout;
  if (hybrid) {
    int longest_job = 1;
    for (const BatchJob& job : jobs) {
      longest_job =
          std::max(longest_job, job.target_relative_stderr > 0.0
                                    ? job.max_iterations
                                    : job.iterations);
    }
    LayoutInputs in;
    in.threads = threads;
    in.iterations = longest_job;
    in.num_vertices = graph.num_vertices();
    in.frontier_occupancy = graph.has_labels() ? 0.15 : 0.85;
    in.table_bytes_per_copy = run::estimate_peak_bytes(
        plan.merged, k, graph.num_vertices(), setup.table,
        graph.has_labels());
    in.memory_budget_bytes = options.run.memory_budget_bytes;
    layout = choose_layout(in);
    if (setup.engine_copies > 0 &&
        layout.outer_copies > setup.engine_copies) {
      layout.outer_copies = setup.engine_copies;
      layout.inner_threads = std::max(1, threads / layout.outer_copies);
    }
  } else if (outer_mode) {
    layout.outer_copies = threads;
    layout.inner_threads = 1;
  } else if (inner_mode) {
    layout.outer_copies = 1;
    layout.inner_threads = threads;
  }
  const bool outer = layout.outer_copies > 1;
  const bool parallel_inner = inner_mode || layout.inner_threads > 1;
  out.layout = layout;

  const int round = options.round_iterations > 0 ? options.round_iterations
                                                 : std::max(4, threads);
#ifdef _OPENMP
  if (inner_mode && options.num_threads > 0) {
    omp_set_num_threads(options.num_threads);
  }
  if (outer && parallel_inner) omp_set_max_active_levels(2);
#endif

  const RunControls& controls = options.run;
  // Directory targets resolve to a fingerprint-named file so batch
  // jobs sharing one work directory keep distinct checkpoints.
  const std::string checkpoint_path = run::resolve_checkpoint_path(
      controls.checkpoint_path, run::Checkpoint::kKindBatch,
      setup.fingerprint);
  const bool checkpointing = !checkpoint_path.empty();
  const int checkpoint_every = std::max(1, controls.checkpoint_every);
  RunGuard guard(controls);

  out.run = setup.report;
  out.run.engine_copies = layout.outer_copies;

  // One private engine (and thus private stage tables) per outer copy,
  // exactly like ParallelMode::kOuterLoop in count_template.
  std::vector<DpEngine<Table>> engines;
  const int engine_count = layout.outer_copies;
  engines.reserve(static_cast<std::size_t>(engine_count));
  // The per-label frontier lists are graph-global: build them once and
  // share them across all engine copies.
  DpEngineOptions engine_opts;
  engine_opts.reference_kernels = options.reference_kernels;
  engine_opts.collect_stats =
      obs::enabled() && options.observability.collect_stages;
  engine_opts.inner_threads = layout.inner_threads;
  engine_opts.guided_schedule = hybrid;
  if (graph.has_labels()) {
    engine_opts.label_frontiers = LabelFrontiers::build(graph);
  }
  // Out-of-core rung: each engine copy pages completed stage tables
  // against its share of the byte budget (run/spill.hpp).
  if (setup.spill && !options.run.spill_dir.empty() &&
      options.run.memory_budget_bytes > 0) {
    engine_opts.spill_dir = options.run.spill_dir;
    engine_opts.spill_budget_bytes =
        options.run.memory_budget_bytes /
        static_cast<std::size_t>(std::max(1, layout.outer_copies));
  }
  for (int t = 0; t < engine_count; ++t) {
    engines.emplace_back(graph, plan.merged, k, engine_opts);
    engines.back().set_guard(&guard);
  }

  const std::size_t num_jobs = jobs.size();
  std::vector<JobState> states(num_jobs);
  int requested = 0;
  for (std::size_t j = 0; j < num_jobs; ++j) {
    BatchJobResult& result = out.jobs[j];
    result.colorful_probability =
        colorful_probability(k, jobs[j].tmpl.size());
    result.automorphisms = automorphisms(jobs[j].tmpl);
    JobState& state = states[j];
    state.scale = 1.0 / (result.colorful_probability *
                         static_cast<double>(result.automorphisms));
    state.adaptive = jobs[j].target_relative_stderr > 0.0;
    state.target = jobs[j].target_relative_stderr;
    state.cap = state.adaptive ? jobs[j].max_iterations : jobs[j].iterations;
    state.quota = state.adaptive
                      ? std::min(state.cap,
                                 std::max(options.min_iterations, round))
                      : state.cap;
    result.adaptive = state.adaptive;
    const int root = plan.job_root[j];
    state.leaf_root = plan.merged.node(root).is_leaf();
    if (state.leaf_root) state.leaf_raw = engines.front().leaf_count(root);
    requested = std::max(requested, state.cap);
  }
  out.run.requested_iterations = requested;

  const auto num_nodes = static_cast<std::size_t>(plan.merged.num_nodes());
  int done = 0;

  // Greedy cross-template reallocation: the adaptive jobs' remaining
  // budgets pool after warm-up, and each controller checkpoint hands
  // the next round to the unconverged job with the worst error.
  const bool greedy = options.adaptive_batch;
  long long grant_pool = 0;
  if (greedy) {
    for (const JobState& state : states) {
      if (state.adaptive) grant_pool += state.cap - state.quota;
    }
  }

  // ---- resume -----------------------------------------------------------
  if (checkpointing && controls.resume) {
    std::string why;
    if (auto loaded = run::load_checkpoint(checkpoint_path, &why)) {
      const run::Checkpoint& ck = *loaded;
      const int restored = static_cast<int>(ck.iterations_done);
      bool lengths_ok = ck.per_job.size() == num_jobs;
      if (lengths_ok) {
        for (const auto& series : ck.per_job) {
          if (static_cast<int>(series.size()) > restored) lengths_ok = false;
        }
      }
      if (ck.kind != run::Checkpoint::kKindBatch) {
        why = "checkpoint kind mismatch";
      } else if (ck.fingerprint != setup.fingerprint) {
        why = "checkpoint fingerprint mismatch";
      } else if (!lengths_ok) {
        why = "checkpoint arrays inconsistent";
      } else {
        for (std::size_t j = 0; j < num_jobs; ++j) {
          out.jobs[j].per_iteration = ck.per_job[j];
        }
        done = restored;
        out.seconds_per_iteration.assign(static_cast<std::size_t>(done),
                                         0.0);
        // Quotas and retirement flags are not serialized: the
        // controller is deterministic in the restored estimates, so
        // replaying its retirement tests against the restored arrays
        // reconstructs them exactly as the interrupted run left them.
        int sim_done = 0;
        while (sim_done < done) {
          int quota_edge = 0;
          bool any = false;
          for (const JobState& state : states) {
            if (state.finished) continue;
            quota_edge =
                any ? std::min(quota_edge, state.quota) : state.quota;
            any = true;
          }
          if (!any) break;
          sim_done = std::min(quota_edge, done);
          if (sim_done != quota_edge) break;  // checkpoint fell mid-round
          for (std::size_t j = 0; j < num_jobs; ++j) {
            JobState& state = states[j];
            if (state.finished || state.quota != sim_done) continue;
            BatchJobResult& result = out.jobs[j];
            const auto prefix_len = std::min(
                result.per_iteration.size(),
                static_cast<std::size_t>(sim_done));
            const std::vector<double> prefix(
                result.per_iteration.begin(),
                result.per_iteration.begin() +
                    static_cast<std::ptrdiff_t>(prefix_len));
            result.relative_stderr = relative_mean_stderr(prefix);
            if (!state.adaptive) {
              state.finished = true;
              continue;
            }
            if (result.relative_stderr <= state.target) {
              state.finished = true;
              result.converged = true;
            } else if (sim_done >= state.cap) {
              state.finished = true;
              result.converged = false;
            } else {
              state.quota = std::min(state.cap, sim_done + round);
            }
          }
        }
        out.run.resumed = true;
        out.run.resumed_iterations = done;
        why.clear();
      }
      if (!why.empty()) out.run.resume_rejected = why;
    } else if (why != "cannot open checkpoint") {
      out.run.resume_rejected = why;
    }
  }
  int last_saved = done;

  const auto save_checkpoint = [&]() {
    run::Checkpoint ck;
    ck.kind = run::Checkpoint::kKindBatch;
    ck.seed = options.seed;
    ck.num_colors = static_cast<std::uint32_t>(k);
    ck.fingerprint = setup.fingerprint;
    ck.iterations_done = static_cast<std::uint32_t>(done);
    ck.per_job.reserve(num_jobs);
    for (std::size_t j = 0; j < num_jobs; ++j) {
      ck.per_job.push_back(out.jobs[j].per_iteration);
    }
    try {
      run::save_checkpoint(checkpoint_path, ck);
      ++out.run.checkpoints_written;
      last_saved = done;
    } catch (const Error&) {
      ++out.run.checkpoint_failures;
    }
  };

  std::exception_ptr first_error;
  while (!guard.stopped()) {
    // Active = jobs with granted samples still to collect.  Under
    // uniform allocation every unfinished job qualifies; under greedy
    // allocation paused jobs (quota spent, not yet re-granted) drop
    // out, and with them their exclusive DP stages.
    std::vector<std::size_t> active;
    for (std::size_t j = 0; j < num_jobs; ++j) {
      if (!states[j].finished &&
          states[j].quota > states[j].collected(out.jobs[j])) {
        active.push_back(j);
      }
    }
    if (active.empty()) break;
    if (fault::fire("run.crash")) throw fault::Injected("run.crash");

    // Round length: the smallest outstanding grant among active jobs
    // (every active job collects one sample per coloring).  Fixed-
    // budget jobs grant their whole cap up front, which would make one
    // giant round; when checkpointing, cap the round so the on-disk
    // state never lags more than checkpoint_every iterations.
    int len = states[active.front()].quota -
              states[active.front()].collected(out.jobs[active.front()]);
    for (std::size_t j : active) {
      len = std::min(len, states[j].quota - states[j].collected(out.jobs[j]));
    }
    if (checkpointing) len = std::min(len, checkpoint_every);
    const int end = done + len;

    // Stages this round's iterations must compute: union over active
    // jobs.  Retired jobs' exclusive stages drop out, so late rounds
    // spend every thread on what the hard templates still need.
    std::vector<char> needed(num_nodes, 0);
    std::size_t demand = 0;
    double cost_sum = 0.0;
    for (std::size_t j : active) {
      for (int id : plan.job_nodes[j]) {
        needed[static_cast<std::size_t>(id)] = 1;
      }
      demand += plan.job_stage_demand[j];
      cost_sum += plan.job_dp_cost[j];
    }
    std::size_t computed = 0;
    for (std::size_t i = 0; i < num_nodes; ++i) {
      if (needed[i] != 0 && !plan.merged.node(static_cast<int>(i)).is_leaf()) {
        ++computed;
      }
    }

    const int begin = done;
    out.seconds_per_iteration.resize(static_cast<std::size_t>(end), 0.0);
    for (std::size_t j : active) {
      // A job's samples append at its own base (= its collected count:
      // the global round counter under uniform allocation, less for a
      // greedily re-granted job that sat out some rounds).
      states[j].base = states[j].collected(out.jobs[j]);
      out.jobs[j].per_iteration.resize(
          static_cast<std::size_t>(states[j].base + len), 0.0);
    }
    std::vector<char> completed(static_cast<std::size_t>(end - begin), 0);

    const auto run_one = [&](int iter, DpEngine<Table>& engine,
                             bool inner_sweep) {
      if (guard.poll()) return;
      WallTimer timer;
      try {
        FASCIA_TRACE("iteration", iter);
        colorings_metric().add();
        const ColorArray colors =
            random_coloring(graph, k, iteration_seed(options.seed, iter));
        engine.compute_tables(colors, inner_sweep, &needed);
        if (guard.stopped()) {
          engine.release_all_tables();
          return;
        }
        for (std::size_t j : active) {
          const double raw = states[j].leaf_root
                                 ? states[j].leaf_raw
                                 : engine.node_total(plan.job_root[j]);
          out.jobs[j].per_iteration[static_cast<std::size_t>(
              states[j].base + (iter - begin))] = raw * states[j].scale;
        }
        engine.release_all_tables();
        const double secs = timer.elapsed_s();
        out.seconds_per_iteration[static_cast<std::size_t>(iter)] = secs;
        iteration_seconds_metric().observe(secs);
        completed[static_cast<std::size_t>(iter - begin)] = 1;
      } catch (const std::bad_alloc&) {
        engine.release_all_tables();
        guard.stop(RunStatus::kMemDegraded);
      } catch (const Error& error) {
        engine.release_all_tables();
        if (error.category() == ErrorCategory::kResource) {
          guard.stop(RunStatus::kMemDegraded);
        } else {
#ifdef _OPENMP
#pragma omp critical(fascia_batch_error)
#endif
          if (first_error == nullptr) {
            first_error = std::current_exception();
          }
          guard.stop(RunStatus::kCancelled);
        }
      }
    };

#ifdef _OPENMP
    if (outer) {
#pragma omp parallel num_threads(layout.outer_copies)
      {
        DpEngine<Table>& engine =
            engines[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(dynamic, 1)
        for (int iter = begin; iter < end; ++iter) {
          run_one(iter, engine, parallel_inner);
        }
      }
    } else
#endif
    {
      for (int iter = begin; iter < end; ++iter) {
        if (fault::fire("run.crash")) throw fault::Injected("run.crash");
        run_one(iter, engines.front(), parallel_inner);
        if (guard.stopped()) break;
      }
    }
    if (first_error != nullptr) std::rethrow_exception(first_error);

    // Contiguous completed prefix: a counter-mode resume point.  On a
    // clean round this is simply `end`.
    int prefix = begin;
    while (prefix < end &&
           completed[static_cast<std::size_t>(prefix - begin)] != 0) {
      ++prefix;
    }
    const auto round_completed = static_cast<std::size_t>(
        std::count(completed.begin(), completed.end(), char{1}));
    out.stage_requests += demand * round_completed;
    out.stage_evaluations += computed * round_completed;
    for (int iter = begin; iter < prefix; ++iter) {
      const double share =
          out.seconds_per_iteration[static_cast<std::size_t>(iter)] /
          (cost_sum > 0.0 ? cost_sum : 1.0);
      for (std::size_t j : active) {
        out.jobs[j].seconds += share * plan.job_dp_cost[j];
      }
    }
    done = prefix;
    if (done < end) {
      // Early stop mid-round: stragglers past the gap are discarded so
      // the retained estimates form an exact iteration prefix.
      out.seconds_per_iteration.resize(static_cast<std::size_t>(done));
      for (std::size_t j : active) {
        out.jobs[j].per_iteration.resize(
            static_cast<std::size_t>(states[j].base + (done - begin)));
      }
    }
    if (checkpointing && done > last_saved) save_checkpoint();

    // Controller checkpoint: retire fixed jobs whose budget is spent;
    // test adaptive jobs against their target and either retire them,
    // grant another round (uniform), or leave them paused for the
    // greedy grant below.
    for (std::size_t j : active) {
      JobState& state = states[j];
      if (state.quota != state.collected(out.jobs[j])) continue;
      BatchJobResult& result = out.jobs[j];
      result.relative_stderr = relative_mean_stderr(result.per_iteration);
      if (!state.adaptive) {
        state.finished = true;
        continue;
      }
      if (result.relative_stderr <= state.target) {
        state.finished = true;
        result.converged = true;
      } else if (greedy) {
        if (grant_pool <= 0) {
          state.finished = true;
          result.converged = false;
        }
        // else: paused until the greedy grant picks it
      } else if (done >= state.cap) {
        state.finished = true;
        result.converged = false;
      } else {
        state.quota = std::min(state.cap, done + round);
      }
    }

    if (greedy) {
      // Grant the next round to the unconverged adaptive job with the
      // worst relative standard error — remaining budget flows to the
      // templates that still need it (the cross-template analogue of
      // Motivo's adaptive sampling).
      if (grant_pool > 0) {
        std::size_t best = num_jobs;
        double worst = -1.0;
        for (std::size_t j = 0; j < num_jobs; ++j) {
          const JobState& state = states[j];
          if (state.finished || !state.adaptive) continue;
          if (state.quota > state.collected(out.jobs[j])) continue;
          if (out.jobs[j].relative_stderr > worst) {
            worst = out.jobs[j].relative_stderr;
            best = j;
          }
        }
        if (best < num_jobs) {
          const int grant =
              static_cast<int>(std::min<long long>(round, grant_pool));
          states[best].quota += grant;
          grant_pool -= grant;
        }
      }
      if (grant_pool <= 0) {
        // Budget exhausted: retire every still-paused adaptive job so
        // the batch terminates (a job mid-grant finishes its round and
        // retires at the controller above).
        for (std::size_t j = 0; j < num_jobs; ++j) {
          JobState& state = states[j];
          if (state.finished || !state.adaptive) continue;
          if (state.quota <= state.collected(out.jobs[j])) {
            state.finished = true;
            out.jobs[j].converged = false;
          }
        }
      }
    }
  }

  out.coloring_rounds = done;
  for (std::size_t j = 0; j < num_jobs; ++j) {
    BatchJobResult& result = out.jobs[j];
    result.iterations = static_cast<int>(result.per_iteration.size());
    result.estimate = mean(result.per_iteration);
    out.iterations_total += result.iterations;
  }
  if (engine_opts.collect_stats) {
    for (const DpEngine<Table>& engine : engines) {
      merge_stage_stats(engine.stage_stats(), Table::kName, stages);
    }
  }
  for (const DpEngine<Table>& engine : engines) {
    out.run.spilled_bytes += engine.spilled_bytes();
    out.run.spill_events += engine.spill_events();
  }
  out.run.completed_iterations = done;
  if (guard.stopped()) {
    out.run.status = guard.status();
  } else if (setup.ladder_degraded) {
    out.run.status = RunStatus::kMemDegraded;
  } else {
    out.run.status = RunStatus::kCompleted;
  }
}

}  // namespace

BatchResult run_batch(const Graph& graph, const std::vector<BatchJob>& jobs,
                      const BatchOptions& options) {
  if (options.observability.enabled) obs::set_enabled(true);
  FASCIA_TRACE("batch.run", static_cast<std::int64_t>(jobs.size()));
  WallTimer total_timer;
  const BatchPlan plan = plan_batch(graph, jobs, options);

  BatchResult result;
  result.jobs.resize(jobs.size());
  result.num_colors = plan.num_colors;
  result.seconds_plan = plan.seconds;
  result.total_stage_instances = plan.total_stage_instances;
  result.unique_stages = plan.unique_stages;

  BatchSetup setup;
  setup.table = options.table;
  if (options.run.memory_budget_bytes > 0) {
    const int copies = options.mode == ParallelMode::kOuterLoop ||
                               options.mode == ParallelMode::kHybrid
                           ? resolve_threads(options.num_threads)
                           : 1;
    const int threads_per_copy = options.mode == ParallelMode::kInnerLoop
                                     ? resolve_threads(options.num_threads)
                                     : 1;
    const run::MemoryPlan memory = run::plan_memory(
        plan.merged, plan.num_colors, graph.num_vertices(),
        graph.has_labels(), options.table, copies,
        options.run.memory_budget_bytes, threads_per_copy,
        /*spill_available=*/!options.run.spill_dir.empty());
    setup.table = memory.table;
    setup.engine_copies = memory.engine_copies;
    setup.spill = memory.spill;
    setup.ladder_degraded = !memory.degradations.empty();
    setup.report.degradations = memory.degradations;
    setup.report.estimated_peak_bytes = memory.estimated_peak_bytes;
  }
  setup.report.table_used = setup.table;

  std::uint64_t fp = run::kFingerprintSeed;
  fp = run::fingerprint_mix(fp, std::uint64_t{run::Checkpoint::kKindBatch});
  fp = run::fingerprint_mix(fp,
                            static_cast<std::uint64_t>(graph.num_vertices()));
  fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(graph.num_edges()));
  fp = run::fingerprint_mix(fp, options.seed);
  fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(plan.num_colors));
  fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(setup.table));
  for (const BatchJob& job : jobs) {
    fp = run::fingerprint_mix(fp, job.tmpl.describe());
  }
  setup.fingerprint = fp;

  std::vector<obs::ReportStage> stages;
  std::size_t peak_bytes = 0;
  {
    PeakMemScope peak_scope(peak_bytes);
    switch (setup.table) {
      case TableKind::kNaive:
        execute<NaiveTable>(graph, jobs, options, plan, setup, result,
                            &stages);
        break;
      case TableKind::kCompact:
        execute<CompactTable>(graph, jobs, options, plan, setup, result,
                              &stages);
        break;
      case TableKind::kHash:
        execute<HashTable>(graph, jobs, options, plan, setup, result,
                           &stages);
        break;
      case TableKind::kSuccinct:
        execute<SuccinctTable>(graph, jobs, options, plan, setup, result,
                               &stages);
        break;
    }
  }

  result.seconds_total = total_timer.elapsed_s();
  run_seconds_metric().observe(result.seconds_total);
  peak_bytes_metric().set(static_cast<double>(peak_bytes));

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

  auto report = std::make_shared<obs::RunReport>();
  report->kind = "run_batch";
  report->label = options.observability.label;
  report->options = {
      {"jobs", std::to_string(jobs.size())},
      {"num_colors", std::to_string(plan.num_colors)},
      {"seed", std::to_string(options.seed)},
      {"table", table_kind_name(options.table)},
      {"partition", options.partition == PartitionStrategy::kOneAtATime
                        ? "one_at_a_time"
                        : "balanced"},
      {"share_tables", options.share_tables ? "true" : "false"},
      {"cross_template_reuse",
       options.cross_template_reuse ? "true" : "false"},
      {"mode", parallel_mode_name(options.mode)},
      {"num_threads", std::to_string(options.num_threads)},
      {"min_iterations", std::to_string(options.min_iterations)},
      {"round_iterations", std::to_string(options.round_iterations)},
      {"adaptive_batch", options.adaptive_batch ? "true" : "false"},
  };
  report->graph.vertices = static_cast<std::int64_t>(graph.num_vertices());
  report->graph.edges = static_cast<std::int64_t>(graph.num_edges());
  report->graph.max_degree = static_cast<std::int64_t>(graph.max_degree());
  report->graph.labeled = graph.has_labels();
  report->tmpl.subtemplates = static_cast<int>(result.unique_stages);
  report->sampling.requested_iterations = result.run.requested_iterations;
  report->sampling.completed_iterations = result.run.completed_iterations;
  report->sampling.num_colors = plan.num_colors;
  report->sampling.seed = options.seed;
  report->sampling.estimate = result.estimate;
  report->sampling.relative_stderr = result.relative_stderr;
  report->timing.total_seconds = result.seconds_total;
  report->timing.plan_seconds = result.seconds_plan;
  report->timing.per_iteration_seconds = result.seconds_per_iteration;
  report->memory.planned_peak_bytes = result.run.estimated_peak_bytes;
  report->memory.observed_peak_bytes = peak_bytes;
  report->memory.spilled_bytes = result.run.spilled_bytes;
  report->memory.spill_events = result.run.spill_events;
  report->memory.table = table_kind_name(result.run.table_used);
  report->memory.degradations = result.run.degradations;
  report->threads.mode = parallel_mode_name(options.mode);
  report->threads.outer_copies = result.layout.outer_copies;
  report->threads.inner_threads = result.layout.inner_threads;
#ifdef _OPENMP
  report->threads.omp_max_threads = omp_get_max_threads();
#else
  report->threads.omp_max_threads = 1;
#endif
  report->run.status = run_status_name(result.run.status);
  report->run.resumed = result.run.resumed;
  report->run.resumed_iterations = result.run.resumed_iterations;
  report->run.resume_rejected = result.run.resume_rejected;
  report->run.checkpoints_written = result.run.checkpoints_written;
  report->run.checkpoint_failures = result.run.checkpoint_failures;
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
  report->stages = std::move(stages);
  result.report = std::move(report);
  return result;
}

}  // namespace fascia::sched
