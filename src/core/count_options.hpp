#pragma once
// Options and results for the FASCIA counter (Alg. 1 + 2).
//
// CountOptions groups its knobs into three sub-structs —
// SamplingOptions (how many samples, how biased), ExecutionOptions
// (how the DP runs), ObservabilityOptions (what gets recorded) — plus
// the RunControls resilience block.  The pre-grouping flat field
// spellings (`options.iterations`, `options.table`, ...) completed
// their one-release deprecation window and are gone; docs/API.md keeps
// the migration table.  Prefer the fluent builder:
//
//   auto options = CountOptions::builder()
//                      .iterations(16).threads(8)
//                      .mode(ParallelMode::kHybrid).outer_copies(2)
//                      .build();   // build() validates
//
// validate() rejects incoherent combinations (outer_copies without
// kHybrid, resume without a checkpoint path, ...) with the structured
// Error taxonomy (util/error.hpp, kind kUsage) instead of silently
// clamping.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dp/count_table.hpp"
#include "graph/reorder.hpp"
#include "run/controls.hpp"
#include "treelet/partition.hpp"

namespace fascia {

/// §III-E: the paper's two multithreading modes plus the adaptive
/// layout.  Inner parallelizes the per-vertex loop of each DP pass
/// (best for large graphs); outer runs whole iterations concurrently
/// with private tables (best for small graphs, memory grows with
/// thread count); hybrid probes one iteration and splits the threads
/// into outer_copies x inner_threads by a cost model (table bytes x
/// measured frontier occupancy — sched/thread_layout.hpp).
enum class ParallelMode {
  kSerial,
  kInnerLoop,
  kOuterLoop,
  kHybrid,
};

const char* parallel_mode_name(ParallelMode mode) noexcept;

/// How the thread pool is split: outer_copies engines each run whole
/// iterations with private tables, and each parallelizes its DP
/// stages over inner_threads.  The static modes are the corners:
/// outer = {threads, 1}, inner = {1, threads}, serial = {1, 1}.
struct ThreadLayout {
  int outer_copies = 1;
  int inner_threads = 1;
};

/// How many samples to draw and how they are colored.
struct SamplingOptions {
  /// Iterations of (random coloring + DP); Alg. 1 line 2 gives the
  /// theoretical e^k·log(1/δ)/ε² bound, but "the number necessary in
  /// practice is far lower" (§III-A) — Fig. 10 shows <1 % error after 3.
  int iterations = 1;

  /// Colors to use; 0 means "template size" (the paper's choice).
  /// More colors raise the colorful probability at the cost of wider
  /// tables.
  int num_colors = 0;

  /// Counter-mode RNG seed: iteration i's coloring depends only on
  /// (seed, i), which is what makes checkpoint/resume bit-identical.
  std::uint64_t seed = 1;
};

/// How the dynamic program executes: table layout, partition, thread
/// scheduling, locality.
struct ExecutionOptions {
  TableKind table = TableKind::kCompact;

  /// Unset (the default) means planned, as root = -1 means a planned
  /// root: the tree counters take the strategy and root with the
  /// fewest DP stages whose modeled table peak is at most the
  /// one-at-a-time default's (sched/plan.hpp; the RunReport's
  /// choices.partition says what was picked).  Set, it pins the
  /// strategy at its default root (or options.root), as the paper's
  /// §III-D comparison needs.  Extraction and mixed templates
  /// partition one-at-a-time when it is unset.
  std::optional<PartitionStrategy> partition;

  /// Share DP tables between rooted-isomorphic subtemplates (§III-C).
  bool share_tables = true;

  ParallelMode mode = ParallelMode::kInnerLoop;

  /// OpenMP threads; 0 = runtime default.
  int threads = 0;

  /// Locality pass applied to the graph before counting (graph/
  /// reorder.hpp).  Colorings are keyed on original vertex ids and
  /// root totals are summed as exact integers, so estimates are
  /// bit-identical under any mode while every DP entry stays at most
  /// 2^53; past it, entries summed in reordered neighbor order may
  /// differ in the last bits.  All
  /// reported per-vertex outputs stay keyed by original ids.  Deliberately
  /// excluded from checkpoint fingerprints: a run may resume under a
  /// different reorder mode.  Honored by count_template,
  /// graphlet_degrees, and the tree extraction routines;
  /// count_triangles, non-tree count_mixed_template, non-tree
  /// sample_mixed_embeddings and count_all_treelets reject a
  /// non-default value with a usage error (they never reorder).
  ReorderMode reorder = ReorderMode::kNone;

  /// Hybrid mode only: force this many outer engine copies instead of
  /// letting the cost model choose (0 = model decides).  validate()
  /// rejects a nonzero value under any other mode, and values outside
  /// [1, threads] when threads is pinned.
  int outer_copies = 0;

  /// Retain per-iteration DP state for incremental recounting after
  /// graph deltas (core/incremental.hpp: begin_incremental /
  /// RunHandle::recount).  Memory grows to iterations x the non-leaf
  /// table set, so it is opt-in.  validate() rejects it combined with
  /// kOuterLoop/kHybrid modes, a reorder pass, or any armed
  /// RunControls — the retained state must be a plain
  /// inner-parallel pass keyed on original vertex ids.
  /// count_template refuses the flag (use begin_incremental).
  bool incremental = false;
};

/// What the run records about itself (DESIGN.md §10).  Metrics and
/// trace spans are additionally gated on the process-global switch
/// (FASCIA_OBS=1 or obs::set_enabled) so release binaries pay one
/// predictable branch when everything is off.
struct ObservabilityOptions {
  /// Force the global observability switch on for the duration of
  /// this run (equivalent to FASCIA_OBS=1).
  bool enabled = false;

  /// Collect per-DP-stage detail (kernel kind, candidates, survivors,
  /// MACs, wall time) into the result's RunReport.  On by default;
  /// stage collection only happens when observability is on, so the
  /// off path stays free.
  bool collect_stages = true;

  /// Free-form label stamped into the RunReport ("nightly-k7", ...).
  std::string label;
};

struct CountOptions {
  SamplingOptions sampling;
  ExecutionOptions execution;
  ObservabilityOptions observability;

  /// Resilience controls (deadline, memory budget, cancellation,
  /// checkpoint/resume).  Inert by default; see run/controls.hpp.
  /// Prefer builder().checkpoint(path) / .resume_from(path) over
  /// poking the fields directly.
  RunControls run;

  /// Template root override (-1 = planned; see
  /// ExecutionOptions::partition).  Graphlet-degree runs root the
  /// template at the orbit vertex.
  int root = -1;

  /// Collect per-vertex rooted counts (graphlet degrees at the orbit
  /// of the root), averaged across iterations.  Without a root, the
  /// count keeps the requested strategy's default root (one-at-a-time
  /// when unset), so the counts stay keyed by the same role.
  bool per_vertex = false;

  /// Rejects incoherent combinations with Error(kUsage):
  /// outer_copies without kHybrid (or out of range), negative thread
  /// counts, resume without a checkpoint path, a checkpoint path with
  /// a non-positive interval.  Called by every entry point and by
  /// builder().build().
  void validate() const;

  class Builder;
  [[nodiscard]] static Builder builder();
};

/// Fluent construction; build() validates.  Setter order is free.
class CountOptions::Builder {
 public:
  Builder& iterations(int n) {
    opts_.sampling.iterations = n;
    return *this;
  }
  Builder& colors(int n) {
    opts_.sampling.num_colors = n;
    return *this;
  }
  Builder& seed(std::uint64_t s) {
    opts_.sampling.seed = s;
    return *this;
  }
  Builder& table(TableKind kind) {
    opts_.execution.table = kind;
    return *this;
  }
  Builder& partition(PartitionStrategy strategy) {
    opts_.execution.partition = strategy;
    return *this;
  }
  Builder& share_tables(bool on) {
    opts_.execution.share_tables = on;
    return *this;
  }
  Builder& mode(ParallelMode m) {
    opts_.execution.mode = m;
    return *this;
  }
  Builder& threads(int n) {
    opts_.execution.threads = n;
    return *this;
  }
  Builder& reorder(ReorderMode m) {
    opts_.execution.reorder = m;
    return *this;
  }
  Builder& outer_copies(int n) {
    opts_.execution.outer_copies = n;
    return *this;
  }
  Builder& incremental(bool on) {
    opts_.execution.incremental = on;
    return *this;
  }
  Builder& root(int vertex) {
    opts_.root = vertex;
    return *this;
  }
  Builder& per_vertex(bool on) {
    opts_.per_vertex = on;
    return *this;
  }
  Builder& deadline(double seconds) {
    opts_.run.deadline_seconds = seconds;
    return *this;
  }
  Builder& memory_budget(std::size_t bytes) {
    opts_.run.memory_budget_bytes = bytes;
    return *this;
  }
  /// Directory for out-of-core table pages — arms the memory ladder's
  /// last rung (run/controls.hpp: RunControls::spill_dir).  Only
  /// engages together with memory_budget().
  Builder& spill(std::string dir) {
    opts_.run.spill_dir = std::move(dir);
    return *this;
  }
  Builder& cancel_flag(const std::atomic<bool>* flag) {
    opts_.run.cancel = flag;
    return *this;
  }
  /// Write checkpoints to `path` every `every` completed iterations.
  Builder& checkpoint(std::string path, int every = 16) {
    opts_.run.checkpoint_path = std::move(path);
    opts_.run.checkpoint_every = every;
    return *this;
  }
  /// Resume from `path` when it holds a matching checkpoint (and keep
  /// checkpointing there) — the one-stop replacement for the old
  /// "set checkpoint_path + resume" pair.
  Builder& resume_from(std::string path) {
    opts_.run.checkpoint_path = std::move(path);
    opts_.run.resume = true;
    return *this;
  }
  Builder& observability(bool on) {
    opts_.observability.enabled = on;
    return *this;
  }
  Builder& collect_stages(bool on) {
    opts_.observability.collect_stages = on;
    return *this;
  }
  Builder& label(std::string text) {
    opts_.observability.label = std::move(text);
    return *this;
  }

  /// Validates (Error, kind kUsage on incoherent combinations) and
  /// returns the finished options.
  [[nodiscard]] CountOptions build() const {
    opts_.validate();
    return opts_;
  }

 private:
  CountOptions opts_;
};

inline CountOptions::Builder CountOptions::builder() { return Builder(); }

/// Reject a reorder request on an entry point that never reorders
/// (count_triangles, non-tree count_mixed_template and
/// sample_mixed_embeddings, count_all_treelets) with Error(kUsage).
void reject_unsupported_reorder(const CountOptions& options, const char* api);

struct CountResult : RunOutcome {
  // RunOutcome provides: estimate, relative_stderr, run (RunReport),
  // report (obs::RunReport), status(), ok().

  /// Unbiased estimate from each iteration.
  std::vector<double> per_iteration;

  /// Graphlet degree of every vertex at the orbit of the template
  /// root, averaged over iterations (filled when
  /// CountOptions::per_vertex).
  std::vector<double> vertex_counts;

  // ---- instrumentation --------------------------------------------------
  double seconds_total = 0.0;
  std::vector<double> seconds_per_iteration;
  std::size_t peak_table_bytes = 0;

  // ---- algorithm constants (for reporting / verification) ---------------
  double colorful_probability = 0.0;  ///< P in Alg. 2 line 21
  std::uint64_t automorphisms = 0;    ///< alpha in Alg. 2 line 22
  std::uint64_t root_stabilizer = 0;  ///< |Aut| / |orbit(root)|
  double dp_cost = 0.0;               ///< Σ C(k,Sn)·C(Sn,an) (§III-D)
  int max_live_tables = 0;
  int num_subtemplates = 0;

  /// Thread split the run executed with (hybrid: cost-model choice;
  /// static modes: the corresponding corner).
  ThreadLayout layout;

  /// Locality-pass instrumentation (zero when reorder == kNone):
  /// bandwidth proxy before/after and the pass's wall time.
  double reorder_gap_before = 0.0;
  double reorder_gap_after = 0.0;
  double reorder_seconds = 0.0;

  /// Incremental-recount accounting (all zero outside the delta path —
  /// core/incremental.hpp fills it on every RunHandle::recount).
  struct DeltaStats {
    std::uint64_t applied_edges = 0;    ///< insertions + deletions
    std::uint64_t dirty_vertices = 0;   ///< outermost-ball size
    double dirty_fraction = 0.0;        ///< dirty_vertices / n
    std::uint64_t stages_recomputed = 0;  ///< non-leaf passes, all iters
    std::uint64_t rows_recomputed = 0;
    std::uint64_t rows_copied = 0;      ///< clean rows spliced verbatim
  };
  DeltaStats delta;

  /// Estimate after the first i+1 iterations (prefix means) — the
  /// error-vs-iterations curves of Figs. 10-11 read these.
  [[nodiscard]] std::vector<double> running_estimates() const;
};

}  // namespace fascia
