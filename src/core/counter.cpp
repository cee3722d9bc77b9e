#include "core/counter.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <memory>
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
#include "treelet/canonical.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/mem_tracker.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace fascia {

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

/// out[map[i]] = src[i]: scatters a vertex-indexed array through a
/// permutation direction.  With map = to_old this converts reordered
/// ids to original ids (checkpoints and reported per-vertex outputs
/// are always keyed by original ids); with map = to_new it converts
/// back on resume.
std::vector<double> scatter_vertex_values(const std::vector<double>& src,
                                          const std::vector<VertexId>& map) {
  std::vector<double> out(src.size(), 0.0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    out[static_cast<std::size_t>(map[i])] = src[i];
  }
  return out;
}

int resolve_threads(int requested) {
#ifdef _OPENMP
  return requested > 0 ? requested : omp_get_max_threads();
#else
  (void)requested;
  return 1;
#endif
}

void validate(const Graph& graph, const TreeTemplate& tmpl,
              const CountOptions& options, int k) {
  if (tmpl.has_labels() != graph.has_labels()) {
    throw std::invalid_argument(
        "count_template: template and graph must both be labeled or both "
        "unlabeled");
  }
  if (k < tmpl.size()) {
    throw std::invalid_argument(
        "count_template: num_colors must be >= template size");
  }
  if (k > kMaxTemplateSize) {
    throw std::invalid_argument("count_template: too many colors");
  }
  if (options.sampling.iterations < 1) {
    throw std::invalid_argument("count_template: iterations must be >= 1");
  }
  if (options.root < -1 || options.root >= tmpl.size()) {
    throw std::invalid_argument("count_template: root out of range");
  }
  options.validate();  // new grouped-options coherence checks (kUsage)
}

/// Configuration resolved by the run layer before table-type dispatch:
/// the (possibly degraded) layout, the outer-mode engine-copy cap, and
/// the checkpoint fingerprint.
struct ResilientSetup {
  TableKind table = TableKind::kCompact;
  int engine_copies = 0;  ///< 0 = no cap (no memory plan ran)
  bool ladder_degraded = false;
  bool spill = false;  ///< plan took the out-of-core rung
  std::uint64_t fingerprint = 0;
  RunReport report;
};

ResilientSetup resolve_setup(const Graph& graph, const TreeTemplate& tmpl,
                             const CountOptions& options) {
  const int k = effective_colors(tmpl, options);
  validate(graph, tmpl, options, k);

  ResilientSetup setup;
  setup.table = options.execution.table;
  setup.report.requested_iterations = options.sampling.iterations;

  if (options.run.memory_budget_bytes > 0) {
    const PartitionTree partition =
        partition_template(tmpl, options.execution.partition,
                           options.execution.share_tables, options.root);
    // Hybrid plans for the worst case (all threads as outer copies);
    // the layout chooser then respects the plan's engine-copy cap.
    const int copies = options.execution.mode == ParallelMode::kOuterLoop ||
                               options.execution.mode == ParallelMode::kHybrid
                           ? resolve_threads(options.execution.threads)
                           : 1;
    // copies x threads_per_copy never exceeds the pool: hybrid plans
    // the outer corner and real layouts only trade copies for sweep
    // threads, so the workspace total is a valid upper bound.
    const int threads_per_copy =
        options.execution.mode == ParallelMode::kInnerLoop
            ? resolve_threads(options.execution.threads)
            : 1;
    const run::MemoryPlan plan = run::plan_memory(
        partition, k, graph.num_vertices(), graph.has_labels(),
        options.execution.table, copies, options.run.memory_budget_bytes,
        threads_per_copy, /*spill_available=*/!options.run.spill_dir.empty());
    setup.table = plan.table;
    setup.engine_copies = plan.engine_copies;
    setup.spill = plan.spill;
    setup.ladder_degraded = !plan.degradations.empty();
    setup.report.degradations = plan.degradations;
    setup.report.estimated_peak_bytes = plan.estimated_peak_bytes;
  }
  setup.report.table_used = setup.table;

  // Everything the per-iteration estimates depend on, so a checkpoint
  // from a different configuration is rejected instead of silently
  // blended.  The effective (post-ladder) table kind participates:
  // layouts sum in different orders, so mixing them would break the
  // bit-identical-resume guarantee.
  std::uint64_t fp = run::kFingerprintSeed;
  fp = run::fingerprint_mix(fp, std::uint64_t{run::Checkpoint::kKindCount});
  fp = run::fingerprint_mix(fp, tmpl.describe());
  fp = run::fingerprint_mix(fp,
                            static_cast<std::uint64_t>(graph.num_vertices()));
  fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(graph.num_edges()));
  fp = run::fingerprint_mix(fp, options.sampling.seed);
  fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(k));
  fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(options.root + 1));
  fp = run::fingerprint_mix(
      fp, static_cast<std::uint64_t>(options.execution.partition));
  fp = run::fingerprint_mix(
      fp, static_cast<std::uint64_t>(options.execution.share_tables));
  fp = run::fingerprint_mix(fp,
                            static_cast<std::uint64_t>(options.per_vertex));
  fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(setup.table));
  setup.fingerprint = fp;
  return setup;
}

std::string format_bool(bool value) { return value ? "true" : "false"; }

/// The observability document for one count_template-family run.
std::shared_ptr<const obs::RunReport> build_report(
    const char* kind, const Graph& graph, const TreeTemplate& tmpl,
    const CountOptions& options, int k, const CountResult& result,
    std::vector<obs::ReportStage> stages) {
  auto report = std::make_shared<obs::RunReport>();
  report->kind = kind;
  report->label = options.observability.label;

  report->options = {
      {"sampling.iterations", std::to_string(options.sampling.iterations)},
      {"sampling.num_colors", std::to_string(k)},
      {"sampling.seed", std::to_string(options.sampling.seed)},
      {"execution.table", table_kind_name(options.execution.table)},
      {"execution.partition",
       options.execution.partition == PartitionStrategy::kOneAtATime
           ? "one_at_a_time"
           : "balanced"},
      {"execution.share_tables", format_bool(options.execution.share_tables)},
      {"execution.mode", parallel_mode_name(options.execution.mode)},
      {"execution.threads", std::to_string(options.execution.threads)},
      {"execution.reorder", reorder_mode_name(options.execution.reorder)},
      {"execution.outer_copies",
       std::to_string(options.execution.outer_copies)},
      {"execution.reference_kernels",
       format_bool(options.execution.reference_kernels)},
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

  report->graph.vertices = static_cast<std::int64_t>(graph.num_vertices());
  report->graph.edges = static_cast<std::int64_t>(graph.num_edges());
  report->graph.max_degree = static_cast<std::int64_t>(graph.max_degree());
  report->graph.labeled = graph.has_labels();

  report->tmpl.vertices = tmpl.size();
  report->tmpl.root = options.root;
  report->tmpl.subtemplates = result.num_subtemplates;

  report->sampling.requested_iterations = result.run.requested_iterations;
  report->sampling.completed_iterations = result.run.completed_iterations;
  report->sampling.num_colors = k;
  report->sampling.seed = options.sampling.seed;
  report->sampling.estimate = result.estimate;
  report->sampling.relative_stderr = result.relative_stderr;
  report->sampling.colorful_probability = result.colorful_probability;
  report->sampling.automorphisms = result.automorphisms;
  report->sampling.trajectory = result.running_estimates();

  report->timing.total_seconds = result.seconds_total;
  report->timing.reorder_seconds = result.reorder_seconds;
  report->timing.per_iteration_seconds = result.seconds_per_iteration;

  report->memory.planned_peak_bytes = result.run.estimated_peak_bytes;
  report->memory.observed_peak_bytes = result.peak_table_bytes;
  report->memory.spilled_bytes = result.run.spilled_bytes;
  report->memory.spill_events = result.run.spill_events;
  report->memory.table = table_kind_name(result.run.table_used);
  report->memory.degradations = result.run.degradations;

  report->threads.mode = parallel_mode_name(options.execution.mode);
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

  report->stages = std::move(stages);
  return report;
}

/// The full Alg. 1 loop for a concrete table type, instrumented with
/// the resilient run layer: cooperative guard checks before every
/// iteration (and between DP stages inside the engine), periodic
/// checkpoints, and an honest partial result on early stop.
///
/// When `perm` is non-null, `graph` is the REORDERED graph and perm
/// maps between id spaces: colorings are drawn in original-id order
/// and scattered through perm (bit-identical estimates), while
/// per-vertex state crosses the checkpoint and result boundaries in
/// original ids.
template <class Table>
CountResult run_count(const Graph& graph, const TreeTemplate& tmpl,
                      const CountOptions& options,
                      const ResilientSetup& setup,
                      const Permutation* perm) {
  const int k = effective_colors(tmpl, options);
  validate(graph, tmpl, options, k);
  FASCIA_TRACE("count.run", tmpl.size(), k, Table::kName);

  const PartitionTree partition =
      partition_template(tmpl, options.execution.partition,
                         options.execution.share_tables, options.root);

  CountResult result;
  result.run = setup.report;
  result.automorphisms = automorphisms(tmpl);
  result.root_stabilizer = vertex_stabilizer(tmpl, partition.template_root());
  result.colorful_probability = colorful_probability(k, tmpl.size());
  result.dp_cost = partition.dp_cost(k);
  result.max_live_tables = partition.max_live_tables();
  result.num_subtemplates = partition.num_nodes();

  // Colorful-homomorphism total -> occurrence estimate (Alg. 2 l.23):
  // every occurrence contributes alpha rooted maps and survives
  // coloring with probability P.
  const double scale =
      1.0 / (result.colorful_probability *
             static_cast<double>(result.automorphisms));
  // Per-vertex rooted totals count each occurrence through v once per
  // stabilizer element of the root's orbit.
  const double vertex_scale =
      1.0 / (result.colorful_probability *
             static_cast<double>(result.root_stabilizer));

  const RunControls& controls = options.run;
  const bool controlled = controls.active();
  // A directory-valued checkpoint target resolves to a per-job file
  // named by the run fingerprint, so concurrent jobs sharing one work
  // directory (the server's preemption pool) never clobber each other.
  const std::string checkpoint_path = run::resolve_checkpoint_path(
      controls.checkpoint_path, run::Checkpoint::kKindCount,
      setup.fingerprint);
  const bool checkpointing = !checkpoint_path.empty();
  const int checkpoint_every = std::max(1, controls.checkpoint_every);
  RunGuard guard(controls);

  // Per-stage detail for the RunReport: collected only when
  // observability is live (the off path must stay free).
  const bool obs_on = obs::enabled();
  const bool collect_stages = obs_on && options.observability.collect_stages;
  std::vector<DpStageStats> all_stage_stats;

  const int iterations = options.sampling.iterations;
  result.per_iteration.assign(static_cast<std::size_t>(iterations), 0.0);
  result.seconds_per_iteration.assign(static_cast<std::size_t>(iterations),
                                      0.0);
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  std::vector<double> vertex_accumulator;
  if (options.per_vertex) vertex_accumulator.assign(n, 0.0);

  // Early-stopped multi-copy runs can only keep a contiguous iteration
  // prefix, but per-vertex sums cannot be un-merged per iteration —
  // demote to inner parallelism, whose accumulation is exact per
  // iteration.  (Estimates are mode-independent by construction.)
  ParallelMode mode = options.execution.mode;
  if (controlled && options.per_vertex &&
      (mode == ParallelMode::kOuterLoop || mode == ParallelMode::kHybrid)) {
    result.run.degradations.push_back(
        std::string("per-vertex resilient run: ") + parallel_mode_name(mode) +
        " mode demoted to inner");
    mode = ParallelMode::kInnerLoop;
  }
  const bool hybrid = mode == ParallelMode::kHybrid;
  int threads = resolve_threads(options.execution.threads);
  if (mode == ParallelMode::kOuterLoop && setup.engine_copies > 0) {
    threads = std::min(threads, setup.engine_copies);
  }
  // The static modes are layout corners; hybrid starts at the inner
  // corner and re-splits after the probe iteration below measures the
  // frontier occupancy.
  ThreadLayout layout;
  switch (mode) {
    case ParallelMode::kSerial:
      layout = {1, 1};
      break;
    case ParallelMode::kInnerLoop:
    case ParallelMode::kHybrid:
      layout = {1, threads};
      break;
    case ParallelMode::kOuterLoop:
      layout = {threads, 1};
      break;
  }

  // ---- resume -----------------------------------------------------------
  int start = 0;
  if (checkpointing && controls.resume) {
    std::string why;
    if (auto loaded = run::load_checkpoint(checkpoint_path, &why)) {
      const run::Checkpoint& ck = *loaded;
      if (ck.kind != run::Checkpoint::kKindCount) {
        why = "checkpoint kind mismatch";
      } else if (ck.fingerprint != setup.fingerprint) {
        why = "checkpoint fingerprint mismatch";
      } else if (ck.per_job.empty() ||
                 ck.per_job[0].size() != ck.iterations_done) {
        why = "checkpoint arrays inconsistent";
      } else if (options.per_vertex &&
                 (ck.per_job.size() < 2 || ck.per_job[1].size() != n)) {
        why = "checkpoint lacks per-vertex state";
      } else {
        start = std::min(static_cast<int>(ck.iterations_done), iterations);
        std::copy_n(ck.per_job[0].begin(),
                    static_cast<std::size_t>(start),
                    result.per_iteration.begin());
        if (options.per_vertex) {
          // Checkpoints key per-vertex state by original ids, so a
          // resume may use a different (or no) reorder mode.
          vertex_accumulator =
              perm != nullptr
                  ? scatter_vertex_values(ck.per_job[1], perm->to_new)
                  : ck.per_job[1];
        }
        result.run.resumed = true;
        result.run.resumed_iterations = start;
        why.clear();
      }
      if (!why.empty()) result.run.resume_rejected = why;
    } else if (why != "cannot open checkpoint") {
      // A missing file is a fresh start, not a problem; anything else
      // (corrupt, truncated, foreign) is reported.
      result.run.resume_rejected = why;
    }
  }

  std::vector<char> completed(static_cast<std::size_t>(iterations), 0);
  std::fill(completed.begin(), completed.begin() + start, char{1});
  int prefix = start;      // contiguous completed iterations
  int last_saved = start;  // prefix length in the newest checkpoint

  const auto advance_prefix = [&]() {
    while (prefix < iterations &&
           completed[static_cast<std::size_t>(prefix)] != 0) {
      ++prefix;
    }
  };

  const auto save_checkpoint = [&]() {
    FASCIA_TRACE("checkpoint.save", prefix);
    run::Checkpoint ck;
    ck.kind = run::Checkpoint::kKindCount;
    ck.seed = options.sampling.seed;
    ck.num_colors = static_cast<std::uint32_t>(k);
    ck.fingerprint = setup.fingerprint;
    ck.iterations_done = static_cast<std::uint32_t>(prefix);
    ck.per_job.emplace_back(
        result.per_iteration.begin(),
        result.per_iteration.begin() + prefix);
    if (options.per_vertex) {
      ck.per_job.push_back(
          perm != nullptr
              ? scatter_vertex_values(vertex_accumulator, perm->to_old)
              : vertex_accumulator);
    }
    try {
      run::save_checkpoint(checkpoint_path, ck);
      ++result.run.checkpoints_written;
      last_saved = prefix;
    } catch (const Error&) {
      // Checkpoints are best-effort: a failed write (disk full,
      // injected fault) must not kill a healthy run.  The previous
      // file is still intact thanks to the temp+rename protocol.
      ++result.run.checkpoint_failures;
    }
  };

  // Kernel configuration shared by every engine copy: the per-label
  // frontier lists are graph-global, so outer mode builds them once
  // instead of once per thread.
  DpEngineOptions engine_opts;
  engine_opts.reference_kernels = options.execution.reference_kernels;
  engine_opts.collect_stats = collect_stages;
  if (graph.has_labels()) {
    engine_opts.label_frontiers = LabelFrontiers::build(graph);
  }
  // Out-of-core rung: the plan decided the tables cannot all stay
  // resident, so each engine pages completed tables against its share
  // of the budget (the single-copy share; divided again once the
  // layout fixes the outer copy count below).
  const bool spilling = setup.spill && !controls.spill_dir.empty() &&
                        controls.memory_budget_bytes > 0;
  if (spilling) {
    engine_opts.spill_dir = controls.spill_dir;
    engine_opts.spill_budget_bytes = controls.memory_budget_bytes;
  }
  std::size_t spilled_bytes_total = 0;
  int spill_events_total = 0;

  // Iteration i's coloring depends only on (seed, i) and is drawn in
  // ORIGINAL id order; under reorder the stream scatters through the
  // permutation, so estimates match the unreordered run bit for bit.
  const auto make_colors = [&](int iter) {
    colorings_metric().add();
    const std::uint64_t iter_seed = iteration_seed(options.sampling.seed, iter);
    return perm != nullptr
               ? random_coloring_permuted(k, iter_seed, perm->to_new)
               : random_coloring(graph, k, iter_seed);
  };

  std::size_t peak_bytes = 0;
  WallTimer total_timer;
  {
    PeakMemScope peak_scope(peak_bytes);

    int resume_at = start;
    if (hybrid && resume_at < iterations && !guard.stopped()) {
      // Probe: run the first pending iteration inner-parallel with
      // stage stats on.  It is a real iteration — its estimate is
      // kept — and its measured frontier occupancy feeds the layout
      // cost model for the remaining iterations.
      double occupancy = 1.0;
      {
        DpEngineOptions probe_opts = engine_opts;
        probe_opts.collect_stats = true;
        probe_opts.inner_threads = threads;
        probe_opts.guided_schedule = true;
        DpEngine<Table> engine(graph, tmpl, partition, k, probe_opts);
        engine.set_guard(&guard);
        const int iter = resume_at;
        if (fault::fire("run.crash")) throw fault::Injected("run.crash");
        WallTimer timer;
        try {
          FASCIA_TRACE("iteration", iter);
          const ColorArray colors = make_colors(iter);
          const double raw =
              engine.run(colors, threads > 1,
                         options.per_vertex ? &vertex_accumulator : nullptr);
          if (!guard.stopped()) {
            result.per_iteration[static_cast<std::size_t>(iter)] =
                raw * scale;
            const double secs = timer.elapsed_s();
            result.seconds_per_iteration[static_cast<std::size_t>(iter)] =
                secs;
            iteration_seconds_metric().observe(secs);
            completed[static_cast<std::size_t>(iter)] = 1;
            ++resume_at;
          }
        } catch (const std::bad_alloc&) {
          guard.stop(RunStatus::kMemDegraded);
        } catch (const Error& error) {
          if (error.category() != ErrorCategory::kResource) throw;
          guard.stop(RunStatus::kMemDegraded);
        }
        const auto& stats = engine.stage_stats();
        if (!stats.empty() && n > 0) {
          double sum = 0.0;
          for (const DpStageStats& stage : stats) {
            sum += static_cast<double>(stage.candidates) /
                   static_cast<double>(n);
          }
          occupancy = std::clamp(
              sum / static_cast<double>(stats.size()), 0.0, 1.0);
        }
        if (collect_stages) {
          all_stage_stats.insert(all_stage_stats.end(), stats.begin(),
                                 stats.end());
        }
        spilled_bytes_total += engine.spilled_bytes();
        spill_events_total += engine.spill_events();
      }
      advance_prefix();
      if (checkpointing && prefix - last_saved >= checkpoint_every) {
        save_checkpoint();
      }

      LayoutInputs inputs;
      inputs.threads = threads;
      inputs.iterations = iterations - resume_at;
      inputs.num_vertices = graph.num_vertices();
      inputs.frontier_occupancy = occupancy;
      inputs.table_bytes_per_copy = run::estimate_peak_bytes(
          partition, k, graph.num_vertices(), setup.table,
          graph.has_labels());
      inputs.memory_budget_bytes = controls.memory_budget_bytes;
      inputs.forced_outer_copies = options.execution.outer_copies;
      layout = choose_layout(inputs);
      if (setup.engine_copies > 0 &&
          layout.outer_copies > setup.engine_copies) {
        layout.outer_copies = setup.engine_copies;
        layout.inner_threads = std::max(1, threads / layout.outer_copies);
      }
    }
    result.layout = layout;
    result.run.engine_copies = layout.outer_copies;
    if (spilling && layout.outer_copies > 1) {
      engine_opts.spill_budget_bytes =
          controls.memory_budget_bytes /
          static_cast<std::size_t>(layout.outer_copies);
    }
    const bool outer = layout.outer_copies > 1;
    const bool parallel_inner = layout.inner_threads > 1;
    // Every engine copy sweeps its stages over its thread share; the
    // guided (reverse) schedule keeps a hub-first vertex order from
    // serializing one chunk.
    engine_opts.inner_threads = layout.inner_threads;
    engine_opts.guided_schedule = hybrid;

    if (outer) {
#ifdef _OPENMP
      if (parallel_inner) omp_set_max_active_levels(2);
#endif
      // Rounds bound checkpoint staleness; one round when not
      // checkpointing (identical to the legacy single parallel
      // region).  Iterations within a round are dynamically
      // scheduled; determinism holds because iteration i's coloring
      // depends only on (seed, i).
      const int round_length = checkpointing
                                   ? checkpoint_every
                                   : std::max(1, iterations - resume_at);
      std::exception_ptr first_error;
      int begin = resume_at;
      while (begin < iterations && !guard.stopped()) {
        if (fault::fire("run.crash")) throw fault::Injected("run.crash");
        const int end = std::min(iterations, begin + round_length);
#ifdef _OPENMP
#pragma omp parallel num_threads(layout.outer_copies)
#endif
        {
          // Each thread owns a private engine (and thus private
          // tables: memory scales with the copy count, §III-E).
          DpEngine<Table> engine(graph, tmpl, partition, k, engine_opts);
          engine.set_guard(&guard);
          std::vector<double> local_vertex;
          if (options.per_vertex) local_vertex.assign(n, 0.0);
#ifdef _OPENMP
#pragma omp for schedule(dynamic, 1)
#endif
          for (int iter = begin; iter < end; ++iter) {
            if (guard.poll()) continue;
            WallTimer timer;
            try {
              FASCIA_TRACE("iteration", iter);
              const ColorArray colors = make_colors(iter);
              const double raw =
                  engine.run(colors, parallel_inner,
                             options.per_vertex ? &local_vertex : nullptr);
              if (!guard.stopped()) {
                result.per_iteration[static_cast<std::size_t>(iter)] =
                    raw * scale;
                const double secs = timer.elapsed_s();
                result.seconds_per_iteration[static_cast<std::size_t>(
                    iter)] = secs;
                iteration_seconds_metric().observe(secs);
                completed[static_cast<std::size_t>(iter)] = 1;
              }
            } catch (const std::bad_alloc&) {
              guard.stop(RunStatus::kMemDegraded);
            } catch (const Error& error) {
              if (error.category() == ErrorCategory::kResource) {
                guard.stop(RunStatus::kMemDegraded);
              } else {
#ifdef _OPENMP
#pragma omp critical(fascia_run_error)
#endif
                if (first_error == nullptr) {
                  first_error = std::current_exception();
                }
                guard.stop(RunStatus::kCancelled);
              }
            }
          }
          if (options.per_vertex) {
#ifdef _OPENMP
#pragma omp critical(fascia_vertex_merge)
#endif
            for (std::size_t v = 0; v < n; ++v) {
              vertex_accumulator[v] += local_vertex[v];
            }
          }
          if (collect_stages) {
#ifdef _OPENMP
#pragma omp critical(fascia_stage_merge)
#endif
            all_stage_stats.insert(all_stage_stats.end(),
                                   engine.stage_stats().begin(),
                                   engine.stage_stats().end());
          }
          if (spilling) {
#ifdef _OPENMP
#pragma omp critical(fascia_spill_merge)
#endif
            {
              spilled_bytes_total += engine.spilled_bytes();
              spill_events_total += engine.spill_events();
            }
          }
        }
        advance_prefix();
        if (checkpointing && prefix > last_saved) save_checkpoint();
        begin = end;
      }
      if (first_error != nullptr) std::rethrow_exception(first_error);
    } else {
      DpEngine<Table> engine(graph, tmpl, partition, k, engine_opts);
      engine.set_guard(&guard);
      for (int iter = resume_at; iter < iterations; ++iter) {
        if (guard.poll()) break;
        if (fault::fire("run.crash")) throw fault::Injected("run.crash");
        WallTimer timer;
        try {
          FASCIA_TRACE("iteration", iter);
          const ColorArray colors = make_colors(iter);
          const double raw = engine.run(
              colors, parallel_inner,
              options.per_vertex ? &vertex_accumulator : nullptr);
          if (guard.stopped()) break;  // aborted mid-pass: discard
          result.per_iteration[static_cast<std::size_t>(iter)] = raw * scale;
          const double secs = timer.elapsed_s();
          result.seconds_per_iteration[static_cast<std::size_t>(iter)] = secs;
          iteration_seconds_metric().observe(secs);
          completed[static_cast<std::size_t>(iter)] = 1;
        } catch (const std::bad_alloc&) {
          guard.stop(RunStatus::kMemDegraded);
          break;
        } catch (const Error& error) {
          if (error.category() != ErrorCategory::kResource) throw;
          guard.stop(RunStatus::kMemDegraded);
          break;
        }
        advance_prefix();
        if (checkpointing && prefix - last_saved >= checkpoint_every) {
          save_checkpoint();
        }
      }
      if (collect_stages) {
        all_stage_stats.insert(all_stage_stats.end(),
                               engine.stage_stats().begin(),
                               engine.stage_stats().end());
      }
      spilled_bytes_total += engine.spilled_bytes();
      spill_events_total += engine.spill_events();
    }
  }
  advance_prefix();

  result.run.spilled_bytes = spilled_bytes_total;
  result.run.spill_events = spill_events_total;
  result.peak_table_bytes = peak_bytes;
  result.seconds_total = total_timer.elapsed_s();
  run_seconds_metric().observe(result.seconds_total);
  peak_bytes_metric().set(static_cast<double>(peak_bytes));

  // Honest partial result: the estimate covers exactly the contiguous
  // completed prefix (stragglers past a gap are discarded — they are
  // unbiased too, but resuming needs a counter-mode prefix).
  result.run.completed_iterations = prefix;
  if (prefix < iterations) {
    result.per_iteration.resize(static_cast<std::size_t>(prefix));
    result.seconds_per_iteration.resize(static_cast<std::size_t>(prefix));
  }
  result.estimate = mean(result.per_iteration);
  result.relative_stderr = relative_mean_stderr(result.per_iteration);
  if (options.per_vertex) {
    result.vertex_counts.assign(n, 0.0);
    const double denominator = prefix > 0 ? static_cast<double>(prefix) : 1.0;
    for (std::size_t v = 0; v < n; ++v) {
      // Reported counts are keyed by ORIGINAL vertex ids.
      const auto out = perm != nullptr
                           ? static_cast<std::size_t>(perm->to_old[v])
                           : v;
      result.vertex_counts[out] =
          vertex_accumulator[v] * vertex_scale / denominator;
    }
  }
  if (checkpointing && prefix > last_saved) save_checkpoint();

  if (guard.stopped()) {
    result.run.status = guard.status();
  } else if (setup.ladder_degraded) {
    result.run.status = RunStatus::kMemDegraded;
  } else {
    result.run.status = RunStatus::kCompleted;
  }

  std::vector<obs::ReportStage> stages;
  merge_stage_stats(all_stage_stats, Table::kName, &stages);
  result.report = build_report("count_template", graph, tmpl, options, k,
                               result, std::move(stages));
  return result;
}

CountResult dispatch_count(const Graph& graph, const TreeTemplate& tmpl,
                           const CountOptions& options,
                           const Permutation* perm) {
  const ResilientSetup setup = resolve_setup(graph, tmpl, options);
  switch (setup.table) {
    case TableKind::kNaive:
      return run_count<NaiveTable>(graph, tmpl, options, setup, perm);
    case TableKind::kCompact:
      return run_count<CompactTable>(graph, tmpl, options, setup, perm);
    case TableKind::kHash:
      return run_count<HashTable>(graph, tmpl, options, setup, perm);
    case TableKind::kSuccinct:
      return run_count<SuccinctTable>(graph, tmpl, options, setup, perm);
  }
  throw internal_error("count_template: bad TableKind");
}

/// Clone-and-patch the attached report (it is shared as const).
void patch_report(CountResult* result,
                  const std::function<void(obs::RunReport&)>& edit) {
  if (!result->report) return;
  auto patched = std::make_shared<obs::RunReport>(*result->report);
  edit(*patched);
  result->report = std::move(patched);
}

}  // namespace

int effective_colors(const TreeTemplate& tmpl, const CountOptions& options) {
  return options.sampling.num_colors > 0 ? options.sampling.num_colors
                                         : tmpl.size();
}

CountResult count_template(const Graph& graph, const TreeTemplate& tmpl,
                           const CountOptions& options) {
  if (options.execution.incremental) {
    throw usage_error(
        "count_template does not retain DP state; use begin_incremental "
        "(core/incremental.hpp) for incremental recounting");
  }
  if (options.observability.enabled) obs::set_enabled(true);
  if (options.execution.reorder == ReorderMode::kNone) {
    return dispatch_count(graph, tmpl, options, nullptr);
  }
  // The locality pass runs once up front; everything downstream sees
  // the reordered graph, while colorings, checkpoints, and per-vertex
  // outputs stay keyed by original ids (run_count's perm plumbing), so
  // the estimate is bit-identical to the unreordered run.
  WallTimer timer;
  const Permutation perm = reorder_permutation(graph, options.execution.reorder);
  const Graph reordered = apply_permutation(graph, perm);
  const double reorder_seconds = timer.elapsed_s();
  CountResult result = dispatch_count(reordered, tmpl, options, &perm);
  result.reorder_seconds = reorder_seconds;
  result.reorder_gap_before = avg_neighbor_gap(graph);
  result.reorder_gap_after = avg_neighbor_gap(reordered);
  patch_report(&result, [&](obs::RunReport& report) {
    report.timing.reorder_seconds = reorder_seconds;
  });
  return result;
}

CountResult graphlet_degrees(const Graph& graph, const TreeTemplate& tmpl,
                             int orbit_vertex, CountOptions options) {
  options.root = orbit_vertex;
  options.per_vertex = true;
  CountResult result = count_template(graph, tmpl, options);
  patch_report(&result,
               [](obs::RunReport& report) { report.kind = "graphlet_degrees"; });
  return result;
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
