#include "sched/driver.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "comb/binomial.hpp"
#include "core/coloring.hpp"
#include "core/engine.hpp"
#include "sched/thread_layout.hpp"
#include "dp/table_compact.hpp"
#include "dp/table_hash.hpp"
#include "dp/table_naive.hpp"
#include "dp/table_succinct.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "run/checkpoint.hpp"
#include "run/guard.hpp"
#include "run/memory.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/mem_tracker.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace fascia::sched {

namespace {

using detail::iteration_seed;
using detail::random_coloring;
using detail::random_coloring_permuted;

// ---- registry instruments (DESIGN.md §10) -------------------------------

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

/// out[map[i]] = src[i]: scatters a vertex-indexed array through a
/// permutation direction (to_old: reordered -> original ids; to_new:
/// back on resume).
std::vector<double> scatter_vertex_values(const std::vector<double>& src,
                                          const std::vector<VertexId>& map) {
  std::vector<double> out(src.size(), 0.0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    out[static_cast<std::size_t>(map[i])] = src[i];
  }
  return out;
}

/// Controller view of one job while the plan runs.
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
struct Setup {
  TableKind table = TableKind::kCompact;
  int engine_copies = 0;  ///< 0 = no cap (no memory plan ran)
  bool ladder_degraded = false;
  bool spill = false;  ///< plan took the out-of-core rung
  std::uint64_t fingerprint = 0;
};

/// The table-typed RetainedPasses: slot i holds iteration i's state.
template <class Table>
struct RetainedStore final : RetainedPasses {
  std::vector<typename DpEngine<Table>::Retained> slots;

  [[nodiscard]] std::size_t bytes() const noexcept override {
    std::size_t total = 0;
    for (const auto& pass : slots) {
      for (const auto& table : pass.tables) {
        if (table != nullptr) total += table->bytes();
      }
      for (const auto& frontier : pass.frontiers) {
        total += frontier.size() * sizeof(VertexId);
      }
    }
    return total;
  }
};

/// Mean frontier occupancy (candidates / n) over one pass's stages;
/// 1 when the pass computed no stage.
double measured_occupancy(const std::vector<DpStageStats>& stats,
                          VertexId num_vertices) {
  if (stats.empty() || num_vertices == 0) return 1.0;
  double sum = 0.0;
  for (const DpStageStats& stage : stats) {
    sum += static_cast<double>(stage.candidates) /
           static_cast<double>(num_vertices);
  }
  return std::clamp(sum / static_cast<double>(stats.size()), 0.0, 1.0);
}

template <class Table>
void execute(const Graph& graph, const std::vector<BatchJob>& jobs,
             const BatchOptions& options, const BatchPlan& plan,
             const DriverInputs& inputs, const Setup& setup,
             DriverOutput& drive_out) {
  BatchResult& out = drive_out.batch;
  const int k = plan.num_colors;
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  const RunControls& controls = options.run;
  const bool per_vertex = inputs.per_vertex;
  const Permutation* perm = inputs.perm;

  // Early-stopped multi-copy runs can only keep a contiguous iteration
  // prefix, but per-vertex sums cannot be un-merged per iteration —
  // demote to inner parallelism, whose accumulation is exact per
  // iteration.  (Estimates are mode-independent by construction.)
  ParallelMode mode = options.mode;
  if (per_vertex && controls.active() &&
      (mode == ParallelMode::kOuterLoop || mode == ParallelMode::kHybrid)) {
    out.run.degradations.push_back(
        std::string("per-vertex resilient run: ") + parallel_mode_name(mode) +
        " mode demoted to inner");
    mode = ParallelMode::kInnerLoop;
  }
  const bool hybrid = mode == ParallelMode::kHybrid;
  int threads = resolve_threads(options.num_threads);
  if (mode == ParallelMode::kOuterLoop && setup.engine_copies > 0) {
    threads = std::min(threads, setup.engine_copies);
  }
  // The static modes are layout corners; hybrid starts at the inner
  // corner and re-splits after its probe iteration measures the
  // frontier occupancy.
  ThreadLayout layout{1, threads};
  if (mode == ParallelMode::kSerial) layout = {1, 1};
  if (mode == ParallelMode::kOuterLoop) layout = {threads, 1};
  bool probing = hybrid;

  // Directory targets resolve to a fingerprint-named file so jobs
  // sharing one work directory keep distinct checkpoints.
  const std::string checkpoint_path = run::resolve_checkpoint_path(
      controls.checkpoint_path, inputs.checkpoint_kind, setup.fingerprint);
  const bool checkpointing = !checkpoint_path.empty();
  const int checkpoint_every = std::max(1, controls.checkpoint_every);
  RunGuard guard(controls);

  // Kernel configuration shared by every engine copy: the per-label
  // frontier lists are graph-global, so they are built once.  The
  // guided (reverse) schedule keeps a hub-first vertex order from
  // serializing one chunk of a hybrid sweep.
  const bool collect_stages =
      obs::enabled() && options.observability.collect_stages;
  DpEngineOptions engine_opts;
  engine_opts.guided_schedule = hybrid;
  if (graph.has_labels()) {
    engine_opts.label_frontiers = LabelFrontiers::build(graph);
  }
  // Out-of-core rung: each engine copy pages completed stage tables
  // against its share of the byte budget (run/spill.hpp).
  const bool spilling = setup.spill && !controls.spill_dir.empty() &&
                        controls.memory_budget_bytes > 0;
  if (spilling) engine_opts.spill_dir = controls.spill_dir;

  // One private engine (and thus private stage tables: memory scales
  // with the copy count, §III-E) per outer copy, each with a private
  // per-vertex accumulator that merges into vertex_sum after a round.
  std::vector<DpEngine<Table>> engines;
  std::vector<std::vector<double>> vertex_local;
  std::vector<double> vertex_sum(per_vertex ? n : 0, 0.0);
  const auto retire_engines = [&]() {
    for (const DpEngine<Table>& engine : engines) {
      if (collect_stages) {
        merge_stage_stats(engine.stage_stats(), Table::kName,
                          &drive_out.report.stages);
      }
      out.run.spilled_bytes += engine.spilled_bytes();
      out.run.spill_events += engine.spill_events();
    }
    engines.clear();
  };
  const auto start_engines = [&]() {
    retire_engines();
    DpEngineOptions opts = engine_opts;
    opts.inner_threads = layout.inner_threads;
    // The probe measures occupancy from its stage stats.
    opts.collect_stats = collect_stages || probing;
    if (spilling) {
      opts.spill_budget_bytes =
          controls.memory_budget_bytes /
          static_cast<std::size_t>(std::max(1, layout.outer_copies));
    }
    engines.reserve(static_cast<std::size_t>(layout.outer_copies));
    for (int t = 0; t < layout.outer_copies; ++t) {
      engines.emplace_back(graph, plan.merged, k, opts);
      engines.back().set_guard(&guard);
    }
    vertex_local.clear();
    if (per_vertex && layout.outer_copies > 1) {
      vertex_local.assign(static_cast<std::size_t>(layout.outer_copies),
                          std::vector<double>(n, 0.0));
    }
  };
  start_engines();

  const std::size_t num_jobs = jobs.size();
  const int round = options.round_iterations > 0 ? options.round_iterations
                                                 : std::max(4, threads);
  std::vector<JobState> states(num_jobs);
  int requested = 0;
  for (std::size_t j = 0; j < num_jobs; ++j) {
    BatchJobResult& result = out.jobs[j];
    result.colorful_probability = colorful_probability(k, plan.job_size[j]);
    result.automorphisms = plan.job_automorphisms[j];
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

  // Incremental runs: slot i of `store` holds iteration i's retained
  // state — a fresh store on an initial pass, the caller's on a recount.
  RetainedStore<Table>* store = nullptr;
  if (inputs.dirty != nullptr) {
    store = inputs.retained != nullptr
                ? dynamic_cast<RetainedStore<Table>*>(inputs.retained->get())
                : nullptr;
    if (store == nullptr ||
        store->slots.size() != static_cast<std::size_t>(requested)) {
      throw internal_error("recount: retained passes do not match the plan");
    }
  } else if (inputs.retained != nullptr) {
    auto fresh = std::make_unique<RetainedStore<Table>>();
    fresh->slots.resize(static_cast<std::size_t>(requested));
    store = fresh.get();
    *inputs.retained = std::move(fresh);
  }

  const auto num_nodes = static_cast<std::size_t>(plan.merged.num_nodes());
  int done = 0;
  // Set by any pass in which a stage job j reads held an entry past
  // 2^53 or untracked (BatchJobResult::exact); passes of several
  // engine copies may set it at once.
  std::vector<std::atomic<bool>> inexact(num_jobs);

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
      // A resume may ask for a smaller budget than the checkpoint
      // covers: keep only the requested prefix.
      const int restored =
          std::min(static_cast<int>(ck.iterations_done), requested);
      bool lengths_ok = ck.per_job.size() >= num_jobs;
      for (std::size_t j = 0; lengths_ok && j < num_jobs; ++j) {
        if (ck.per_job[j].size() > ck.iterations_done) lengths_ok = false;
      }
      const std::size_t arrays = num_jobs + (per_vertex ? 1 : 0);
      if (ck.kind != inputs.checkpoint_kind) {
        why = "checkpoint kind mismatch";
      } else if (ck.fingerprint != setup.fingerprint) {
        why = "checkpoint fingerprint mismatch";
      } else if (!lengths_ok) {
        why = "checkpoint arrays inconsistent";
      } else if (ck.per_job.size() != arrays ||
                 (per_vertex && ck.per_job.back().size() != n)) {
        why = per_vertex ? "checkpoint lacks per-vertex state"
                         : "checkpoint arrays inconsistent";
      } else {
        for (std::size_t j = 0; j < num_jobs; ++j) {
          const auto keep = std::min(
              ck.per_job[j].size(),
              static_cast<std::size_t>(std::min(restored, states[j].cap)));
          out.jobs[j].per_iteration.assign(
              ck.per_job[j].begin(),
              ck.per_job[j].begin() + static_cast<std::ptrdiff_t>(keep));
        }
        if (per_vertex) {
          // Checkpoints key per-vertex state by original ids, so a
          // resume may use a different (or no) reorder mode.
          vertex_sum = perm != nullptr
                           ? scatter_vertex_values(ck.per_job.back(),
                                                   perm->to_new)
                           : ck.per_job.back();
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
        for (std::size_t j = 0; j < num_jobs; ++j) {
          if (!out.jobs[j].per_iteration.empty()) inexact[j] = true;
        }
        out.run.resumed = true;
        out.run.resumed_iterations = done;
        why.clear();
      }
      if (!why.empty()) out.run.resume_rejected = why;
    } else if (why != "cannot open checkpoint") {
      // A missing file is a fresh start, not a problem; anything else
      // (corrupt, truncated, foreign) is reported.
      out.run.resume_rejected = why;
    }
  }
  int last_saved = done;

  const auto save_checkpoint = [&]() {
    FASCIA_TRACE("checkpoint.save", done);
    run::Checkpoint ck;
    ck.kind = inputs.checkpoint_kind;
    ck.seed = options.seed;
    ck.num_colors = static_cast<std::uint32_t>(k);
    ck.fingerprint = setup.fingerprint;
    ck.iterations_done = static_cast<std::uint32_t>(done);
    ck.per_job.reserve(num_jobs + 1);
    for (std::size_t j = 0; j < num_jobs; ++j) {
      ck.per_job.push_back(out.jobs[j].per_iteration);
    }
    if (per_vertex) {
      ck.per_job.push_back(perm != nullptr
                               ? scatter_vertex_values(vertex_sum,
                                                       perm->to_old)
                               : vertex_sum);
    }
    try {
      run::save_checkpoint(checkpoint_path, ck);
      ++out.run.checkpoints_written;
      last_saved = done;
    } catch (const Error&) {
      // Checkpoints are best-effort: a failed write (disk full,
      // injected fault) must not kill a healthy run.  The previous
      // file is still intact thanks to the temp+rename protocol.
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
    int remaining = 0;
    for (std::size_t j = 0; j < num_jobs; ++j) {
      if (!states[j].finished &&
          states[j].quota > states[j].collected(out.jobs[j])) {
        active.push_back(j);
        remaining = std::max(
            remaining, states[j].cap - states[j].collected(out.jobs[j]));
      }
    }
    if (active.empty()) break;

    // Round length: the smallest outstanding grant among active jobs
    // (every active job collects one sample per coloring).  Fixed-
    // budget jobs grant their whole cap up front, which would make one
    // giant round; when checkpointing, cap the round so the on-disk
    // state never lags more than checkpoint_every iterations.  The
    // hybrid probe is a round of one.
    int len = states[active.front()].quota -
              states[active.front()].collected(out.jobs[active.front()]);
    for (std::size_t j : active) {
      len = std::min(len, states[j].quota - states[j].collected(out.jobs[j]));
    }
    if (checkpointing) len = std::min(len, checkpoint_every);
    if (probing) len = 1;
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
    const bool parallel_inner = layout.inner_threads > 1;

    // Iteration i's coloring depends only on (seed, i) and is drawn in
    // ORIGINAL id order; under reorder the stream scatters through the
    // permutation, so estimates match the unreordered run bit for bit.
    const auto run_one = [&](int iter, DpEngine<Table>& engine,
                             std::vector<double>* vertex_out) {
      if (guard.poll()) return;
      WallTimer timer;
      try {
        FASCIA_TRACE("iteration", iter);
        colorings_metric().add();
        const std::uint64_t seed = iteration_seed(options.seed, iter);
        const ColorArray colors =
            perm != nullptr ? random_coloring_permuted(k, seed, perm->to_new)
                            : random_coloring(graph, k, seed);
        if (inputs.dirty != nullptr) {
          engine.adopt_retained(
              std::move(store->slots[static_cast<std::size_t>(iter)]));
          engine.run_delta(colors, parallel_inner, *inputs.dirty,
                           drive_out.delta);
        } else {
          // Retained passes stay 8 bytes wide: recounts patch and copy
          // their rows (DpEngine::run_delta).  Root rows are read only
          // for per-vertex totals.
          engine.compute_tables(colors, parallel_inner, &needed,
                                store != nullptr ? KeepTables::kForRecounts
                                                 : KeepTables::kNo,
                                /*root_rows=*/vertex_out != nullptr);
        }
        if (guard.stopped()) {  // aborted mid-pass: discard
          engine.release_all_tables();
          return;
        }
        if (vertex_out != nullptr) {
          engine.add_vertex_totals(plan.job_root.front(), *vertex_out);
        }
        for (std::size_t j : active) {
          const double raw = states[j].leaf_root
                                 ? states[j].leaf_raw
                                 : engine.node_total(plan.job_root[j]);
          out.jobs[j].per_iteration[static_cast<std::size_t>(
              states[j].base + (iter - begin))] = raw * states[j].scale;
          const auto& nodes = plan.job_nodes[j];
          if (!std::all_of(nodes.begin(), nodes.end(), [&](int id) {
                return engine.node_exact(id);
              })) {
            inexact[j].store(true, std::memory_order_relaxed);
          }
        }
        if (store != nullptr) {
          store->slots[static_cast<std::size_t>(iter)] = engine.take_retained();
        } else {
          engine.release_all_tables();
        }
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
#pragma omp critical(fascia_driver_error)
#endif
          if (first_error == nullptr) {
            first_error = std::current_exception();
          }
          guard.stop(RunStatus::kCancelled);
        }
      }
    };

#ifdef _OPENMP
    if (layout.outer_copies > 1) {
      // Iterations within a round are dynamically scheduled;
      // determinism holds because iteration i's coloring depends only
      // on (seed, i).
      if (fault::fire("run.crash")) throw fault::Injected("run.crash");
      if (parallel_inner) omp_set_max_active_levels(2);
#pragma omp parallel num_threads(layout.outer_copies)
      {
        const auto t = static_cast<std::size_t>(omp_get_thread_num());
        DpEngine<Table>& engine = engines[t];
        std::vector<double>* vertex_out =
            per_vertex ? &vertex_local[t] : nullptr;
#pragma omp for schedule(dynamic, 1)
        for (int iter = begin; iter < end; ++iter) {
          run_one(iter, engine, vertex_out);
        }
      }
      for (std::vector<double>& local : vertex_local) {
        for (std::size_t v = 0; v < n; ++v) vertex_sum[v] += local[v];
        std::fill(local.begin(), local.end(), 0.0);
      }
    } else
#endif
    {
      for (int iter = begin; iter < end; ++iter) {
        if (fault::fire("run.crash")) throw fault::Injected("run.crash");
        run_one(iter, engines.front(), per_vertex ? &vertex_sum : nullptr);
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
    if (checkpointing &&
        (probing ? done - last_saved >= checkpoint_every : done > last_saved)) {
      save_checkpoint();
    }

    if (probing) {
      // The probe was a real iteration (its estimates are kept); its
      // measured frontier occupancy feeds the layout cost model for
      // the iterations still to run.
      probing = false;
      LayoutInputs in;
      in.threads = threads;
      in.iterations = remaining - (done - begin);
      in.num_vertices = graph.num_vertices();
      in.frontier_occupancy = measured_occupancy(
          engines.front().stage_stats(), graph.num_vertices());
      in.table_bytes_per_copy = run::estimate_peak_bytes(
          plan.merged, k, graph.num_vertices(), setup.table,
          graph.has_labels());
      in.memory_budget_bytes = controls.memory_budget_bytes;
      in.forced_outer_copies = inputs.forced_outer_copies;
      layout = choose_layout(in);
      if (setup.engine_copies > 0 &&
          layout.outer_copies > setup.engine_copies) {
        layout.outer_copies = setup.engine_copies;
        layout.inner_threads = std::max(1, threads / layout.outer_copies);
      }
      start_engines();
    }

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
  retire_engines();

  out.layout = layout;
  out.run.engine_copies = layout.outer_copies;
  out.coloring_rounds = done;
  for (std::size_t j = 0; j < num_jobs; ++j) {
    BatchJobResult& result = out.jobs[j];
    result.iterations = static_cast<int>(result.per_iteration.size());
    result.estimate = mean(result.per_iteration);
    result.exact = !inexact[j];
    out.iterations_total += result.iterations;
  }
  if (per_vertex) {
    drive_out.vertex_sums =
        perm != nullptr ? scatter_vertex_values(vertex_sum, perm->to_old)
                        : std::move(vertex_sum);
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

DriverOutput drive(const Graph& graph, const std::vector<BatchJob>& jobs,
                   const BatchOptions& options, const BatchPlan& plan,
                   const DriverInputs& inputs) {
  DriverOutput drive_out;
  BatchResult& out = drive_out.batch;
  out.jobs.resize(jobs.size());
  out.num_colors = plan.num_colors;
  out.seconds_plan = plan.seconds;
  out.total_stage_instances = plan.total_stage_instances;
  out.unique_stages = plan.unique_stages;

  Setup setup;
  setup.table = options.table;
  if (options.run.memory_budget_bytes > 0) {
    // Hybrid plans for the worst case (all threads as outer copies);
    // the layout chooser then respects the plan's engine-copy cap.
    // copies x threads_per_copy never exceeds the pool, so the
    // workspace total is a valid upper bound.
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
    out.run.degradations = memory.degradations;
    out.run.estimated_peak_bytes = memory.estimated_peak_bytes;
  }
  out.run.table_used = setup.table;
  setup.fingerprint = inputs.fingerprint(setup.table);

  WallTimer timer;
  {
    PeakMemScope peak_scope(drive_out.peak_table_bytes);
    switch (setup.table) {
      case TableKind::kNaive:
        execute<NaiveTable>(graph, jobs, options, plan, inputs, setup,
                            drive_out);
        break;
      case TableKind::kCompact:
        execute<CompactTable>(graph, jobs, options, plan, inputs, setup,
                              drive_out);
        break;
      case TableKind::kHash:
        execute<HashTable>(graph, jobs, options, plan, inputs, setup,
                           drive_out);
        break;
      case TableKind::kSuccinct:
        execute<SuccinctTable>(graph, jobs, options, plan, inputs, setup,
                               drive_out);
        break;
    }
  }
  drive_out.seconds = timer.elapsed_s();
  run_seconds_metric().observe(drive_out.seconds);
  peak_bytes_metric().set(static_cast<double>(drive_out.peak_table_bytes));

  obs::RunReport& report = drive_out.report;
  report.graph.vertices = static_cast<std::int64_t>(graph.num_vertices());
  report.graph.edges = static_cast<std::int64_t>(graph.num_edges());
  report.graph.max_degree = static_cast<std::int64_t>(graph.max_degree());
  report.graph.labeled = graph.has_labels();
  report.sampling.requested_iterations = out.run.requested_iterations;
  report.sampling.completed_iterations = out.run.completed_iterations;
  report.sampling.num_colors = plan.num_colors;
  report.sampling.seed = options.seed;
  report.timing.per_iteration_seconds = out.seconds_per_iteration;
  report.memory.planned_peak_bytes = out.run.estimated_peak_bytes;
  report.memory.observed_peak_bytes = drive_out.peak_table_bytes;
  report.memory.spilled_bytes = out.run.spilled_bytes;
  report.memory.spill_events = out.run.spill_events;
  report.memory.table = table_kind_name(out.run.table_used);
  report.memory.degradations = out.run.degradations;
  report.threads.mode = parallel_mode_name(options.mode);
  report.threads.outer_copies = out.layout.outer_copies;
  report.threads.inner_threads = out.layout.inner_threads;
#ifdef _OPENMP
  report.threads.omp_max_threads = omp_get_max_threads();
#else
  report.threads.omp_max_threads = 1;
#endif
  report.run.status = run_status_name(out.run.status);
  report.run.resumed = out.run.resumed;
  report.run.resumed_iterations = out.run.resumed_iterations;
  report.run.resume_rejected = out.run.resume_rejected;
  report.run.checkpoints_written = out.run.checkpoints_written;
  report.run.checkpoint_failures = out.run.checkpoint_failures;
  return drive_out;
}

}  // namespace fascia::sched
