#pragma once
// Batch counting engine: adaptive multi-template scheduling with
// cross-template DP reuse.
//
// The motif-finding workload (§V-E) counts *every* free tree of size k
// — 11 templates at k = 7, 106 at k = 10 — and a serial loop of
// count_template() calls pays for the same small rooted subtemplates
// once per template and cannot trade iterations between easy and hard
// templates.  run_batch() executes the whole template set as one
// planned workload instead:
//
//   * the planner (plan.hpp) partitions every template up front and
//     deduplicates rooted-isomorphic subtemplates *across* templates
//     into a single DP stage DAG;
//   * each batch iteration draws ONE shared coloring and walks the
//     merged DAG bottom-up, so a stage shared by several templates is
//     computed once per coloring and its table reused by every
//     consumer;
//   * per job, an adaptive controller keeps running iterations until
//     the relative standard error of the running mean meets the
//     requested target (or a cap) — easy templates retire early and
//     the remaining iterations shrink to the stages hard templates
//     still need;
//   * iterations are the outer OpenMP work units (private tables per
//     thread, as in ParallelMode::kOuterLoop), each spanning all still
//     active templates.
//
// The plan runs on the library's one iteration driver (driver.hpp).
// A single-template count_template is a one-job, fixed-budget plan on
// that same driver, built with cross-template reuse off; the planner
// picks its partition strategy and root unless the caller pins them.
//
// Determinism: job j's iteration i always uses the coloring derived
// from (options.seed, i), and its root total is summed as an exact
// integer, so fixed-budget estimates are bit-identical to
// count_template(graph, tmpl, {seed, iterations, num_colors}) whenever
// every DP entry of both runs is at most 2^53 (BatchJobResult::exact)
// — independent of thread count, of the other jobs in the batch, of
// whether cross-template reuse is enabled, and of the root the planner
// picks for the job.  Past 2^53 a re-rooted job sums its entries along
// other stages and may differ in its last bits.  Adaptive
// stopping points additionally depend on round_iterations (explicitly
// set it for cross-machine reproducibility; the default follows the
// thread count).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/count_options.hpp"
#include "dp/count_table.hpp"
#include "graph/graph.hpp"
#include "run/controls.hpp"
#include "treelet/partition.hpp"
#include "treelet/tree_template.hpp"

namespace fascia::sched {

/// One counting job: a template plus its iteration budget.  A job is
/// *fixed* (exactly `iterations` rounds) unless target_relative_stderr
/// is positive, in which case it is *adaptive*: it runs until the
/// relative standard error of its running mean is <= the target or
/// max_iterations is reached.
struct BatchJob {
  TreeTemplate tmpl;
  int iterations = 1;                   ///< fixed budget (target == 0)
  double target_relative_stderr = 0.0;  ///< > 0: adaptive mode
  int max_iterations = 1000;            ///< adaptive cap
};

struct BatchOptions {
  /// Colors shared by the whole batch; 0 = largest template size.
  /// Every job must fit (template size <= num_colors).
  int num_colors = 0;

  TableKind table = TableKind::kCompact;

  /// Unset (the default): a one-job plan picks the strategy and root
  /// with the fewest stages whose modeled table peak is at most the
  /// one-at-a-time default's (plan.hpp); a multi-job plan partitions
  /// one-at-a-time.  Set: every job uses this strategy.
  std::optional<PartitionStrategy> partition;

  /// Share DP tables between rooted-isomorphic subtemplates within one
  /// template (§III-C), as in CountOptions.
  bool share_tables = true;

  /// Deduplicate rooted-isomorphic subtemplates *across* templates
  /// into shared stages — the batch engine's main lever — and let the
  /// planner root each template where its subtemplates are already
  /// planned (plan.hpp).  Disable to make the execution structurally
  /// identical to the per-template path (bit-identical estimates
  /// either way while entries are exact; see header comment).
  bool cross_template_reuse = true;

  /// kOuterLoop parallelizes over iterations (each spanning all active
  /// jobs, private tables per thread); kInnerLoop parallelizes the
  /// per-vertex loop inside each stage; kSerial is single-threaded.
  /// kHybrid splits the pool into outer_copies x inner_threads with the
  /// cost model (choose_layout), fed by the measured frontier occupancy
  /// of a first inner-parallel probe iteration, as in count_template.
  ParallelMode mode = ParallelMode::kOuterLoop;

  /// OpenMP threads; 0 = runtime default.
  int num_threads = 0;

  std::uint64_t seed = 1;

  /// Iterations adaptive jobs run before their first convergence
  /// check, and the granularity of later checks; >= 2.
  int min_iterations = 4;

  /// Convergence-check cadence (iterations between controller
  /// checkpoints); 0 = max(4, resolved thread count), which keeps all
  /// threads fed between checkpoints.
  int round_iterations = 0;

  /// Greedy cross-template budget reallocation (Motivo-style).  Off
  /// (default): every unconverged adaptive job is granted another
  /// round at each controller checkpoint — the uniform allocation,
  /// bit-identical to previous releases.  On: the adaptive jobs'
  /// max_iterations budgets POOL after their warm-up round, and each
  /// controller checkpoint grants the next round only to the
  /// unconverged job with the highest relative standard error; the
  /// other adaptive jobs pause (their stages drop out of the shared
  /// DP), so hard templates can consume budget easy templates never
  /// needed.  Fixed-budget jobs are unaffected.  Incompatible with
  /// checkpoint/resume (per-job sample streams decouple from the
  /// global coloring counter).
  bool adaptive_batch = false;

  /// Optional partition-tree source: when set, the planner calls this
  /// instead of running partition_template itself, so a host with a
  /// memoization layer (the service's GraphRegistry) can serve cached
  /// trees.  Must return exactly what partition_template(tmpl,
  /// strategy, share_tables, root) would.  The planner asks only for
  /// the strategy and root it keeps (one per job); the searches read
  /// candidate shapes they build themselves.  Partition trees are
  /// graph-independent, which is why this cache survives graph
  /// mutations (mutate_graph) that invalidate reorder permutations.
  /// Never serialized: the host injects it at execution time.
  PartitionProvider partition_provider;

  /// Resilience controls (deadline, memory budget, cancellation,
  /// checkpoint/resume).  Inert by default; see run/controls.hpp.
  /// Checkpoints store every job's completed per-iteration prefix;
  /// fixed-budget jobs resume to bit-identical estimates (adaptive
  /// stopping points may shift with the changed round boundaries).
  RunControls run;

  /// Observability knobs (as in CountOptions::observability): enabled
  /// latches obs::set_enabled(true) for the run; collect_stages adds
  /// per-stage detail to the attached report.
  ObservabilityOptions observability;
};

struct BatchJobResult {
  double estimate = 0.0;              ///< mean of per_iteration
  std::vector<double> per_iteration;  ///< unbiased per-coloring estimates
  int iterations = 0;                 ///< iterations actually consumed
  double relative_stderr = 0.0;       ///< at termination
  bool adaptive = false;
  bool converged = true;  ///< adaptive: met target before the cap

  /// Every DP entry behind this job's estimates was at most 2^53, so
  /// exact in a double: the engine's tracked per-stage maxima, over
  /// every stage the job reads in every pass.  False when a pass ran
  /// a delta recount (which tracks no maxima), or when iterations were
  /// restored from a checkpoint (their passes ran elsewhere).  While it
  /// holds, the job's estimates equal count_template's bit for bit (see
  /// the header comment).
  bool exact = true;

  /// Wall time attributed to this job: each iteration's measured time
  /// split across the jobs active in it, proportionally to their
  /// standalone DP cost (shared stages make exact separation
  /// impossible).
  double seconds = 0.0;

  // ---- algorithm constants (as in CountResult) ------------------------
  double colorful_probability = 0.0;
  std::uint64_t automorphisms = 0;
};

/// RunOutcome base: `estimate` is the sum over jobs, `relative_stderr`
/// the worst per-job error at termination, `run`/`report` the usual
/// status and observability document.
struct BatchResult : RunOutcome {
  std::vector<BatchJobResult> jobs;

  int num_colors = 0;
  long long iterations_total = 0;  ///< Σ per-job iterations (work units)
  int coloring_rounds = 0;         ///< distinct shared colorings drawn

  double seconds_total = 0.0;
  double seconds_plan = 0.0;  ///< partitioning + merging time
  std::vector<double> seconds_per_iteration;  ///< whole-batch, per coloring

  // ---- cross-template reuse statistics --------------------------------
  /// Plan-level: DP stages demanded by all jobs together vs stages in
  /// the merged DAG (counting within-template sharing once).
  std::size_t total_stage_instances = 0;
  std::size_t unique_stages = 0;

  /// Execution-level: stage computations the jobs demanded vs actually
  /// performed, summed over iterations (masked stages of retired jobs
  /// are excluded from both).
  std::size_t stage_requests = 0;
  std::size_t stage_evaluations = 0;

  /// Fraction of demanded stage computations served from a shared
  /// stage computed for another template: 1 - evaluations/requests.
  [[nodiscard]] double cache_hit_rate() const noexcept {
    if (stage_requests == 0) return 0.0;
    return 1.0 - static_cast<double>(stage_evaluations) /
                     static_cast<double>(stage_requests);
  }

  /// Thread layout the batch executed with (outer engine copies x
  /// inner sweep threads); {1, 1} for serial runs.
  ThreadLayout layout;
};

/// Executes all jobs against `graph` as one planned workload.  Throws
/// std::invalid_argument on an empty job list, inconsistent labeling,
/// num_colors smaller than a template, or bad budgets.
BatchResult run_batch(const Graph& graph, const std::vector<BatchJob>& jobs,
                      const BatchOptions& options = {});

}  // namespace fascia::sched
