#pragma once
// Batch planner: merges every job's partition tree into one DP stage
// DAG with cross-template deduplication.
//
// Each template is partitioned with the existing single-edge-cut
// partitioner; nodes are then interned into a global stage list keyed
// by their rooted canonical form (treelet/canonical*), so a rooted
// subtemplate appearing in several templates becomes ONE stage whose
// table every consumer reads.  The merged node list is itself a valid
// PartitionTree (children precede parents; free_after lifetimes span
// all cross-template consumers), so the unmodified DpEngine executes
// it.  Per-template roots are pinned alive until the end of a pass —
// with mixed template sizes a whole job can be a shared sub-stage of a
// bigger one.
//
// Sharing-aware planning (DESIGN.md §14): a plan of two or more jobs
// with cross-template reuse and no caller-pinned root searches every
// job's root.  Coordinate descent from the default
// roots moves one job at a time to the root whose partition leaves the
// fewest distinct non-leaf stages in the plan (ties: fewer modeled
// MACs, then the smaller root id).  The jobs are then interned in the
// greedy order that keeps the merged DAG's modeled peak table bytes
// (run::estimate_peak_bytes) lowest.  The result is kept only when its
// modeled peak is at most the default plan's; otherwise the plan falls
// back to the default roots in input order.  Re-rooting a job changes
// which stages compute it, not its root total: every entry is an exact
// integer while it is at most 2^53, and root totals are summed exactly
// (dp/count_table.hpp), so a job's estimates match count_template's.
// These plans partition every job with the requested strategy, or
// one-at-a-time when it is unset.
//
// One-job plans (every count_template, graphlet_degrees and
// incremental count) are planned too.  The candidates are the
// partition shapes of both strategies at every template root, or only
// at the caller's root when it pins one; a pinned strategy pins the
// plan to that strategy at its default (or the pinned) root, as
// before.  Admissible are the candidates whose modeled peak
// (run::estimate_peak_bytes) is at most the default shape's —
// one-at-a-time at default_root, or at the pinned root.  Among them
// the plan takes the fewest non-leaf stages; ties go to the lower
// modeled peak, then the lower dp_cost, then one-at-a-time before
// balanced, then the smaller root.  So the planned modeled peak never
// rises above the default's.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sched/batch.hpp"
#include "treelet/partition.hpp"

namespace fascia::sched {

/// What a one-job plan chose, against the default shape it had to
/// beat: the RunReport's choices.partition.
struct PartitionChoice {
  PartitionStrategy strategy = PartitionStrategy::kOneAtATime;
  int root = 0;                         ///< template vertex, never -1
  std::size_t stages = 0;               ///< non-leaf stages
  std::size_t modeled_peak_bytes = 0;   ///< run::estimate_peak_bytes
  std::size_t default_stages = 0;
  std::size_t default_modeled_peak_bytes = 0;
  bool strategy_pinned = false;  ///< the caller set the strategy
  bool root_pinned = false;      ///< the caller set the root
};

struct BatchPlan {
  int num_colors = 0;

  /// The merged stage DAG (a PartitionTree over all templates).
  PartitionTree merged;

  /// Merged node id of each job's root stage.
  std::vector<int> job_root;

  /// Each job's template size and automorphism count: the driver's
  /// unbiasing constants.
  std::vector<int> job_size;
  std::vector<std::uint64_t> job_automorphisms;

  /// Template vertex each job's partition was requested at (-1 = the
  /// partitioner's default): the root handed to partition_provider.
  std::vector<int> job_partition_root;

  /// Strategy each job's partition was requested with: the planner's
  /// pick for a one-job plan, the requested one (one-at-a-time when
  /// unset) otherwise.
  std::vector<PartitionStrategy> job_partition_strategy;

  /// One-job plans only: the choice and the default it was held to.
  std::optional<PartitionChoice> partition_choice;

  /// Merged node ids reachable from each job's root (sorted) — the
  /// stages one iteration of this job demands.  Used to build the
  /// needed-stage mask once jobs start retiring.
  std::vector<std::vector<int>> job_nodes;

  /// Non-leaf stages each job demands per iteration (cache-hit
  /// accounting numerator).
  std::vector<std::size_t> job_stage_demand;

  /// Per-job standalone DP cost Σ C(k,h)·C(h,a) — the attribution
  /// weight for splitting measured iteration time across jobs.
  std::vector<double> job_dp_cost;

  std::size_t total_stage_instances = 0;  ///< Σ job_stage_demand
  std::size_t unique_stages = 0;          ///< non-leaf merged stages
  double seconds = 0.0;                   ///< planning wall time
};

/// Builds the merged plan.  Validates per-job template sizes against
/// the batch's color count and the jobs' iteration budgets.  `root`
/// is the template vertex every job's partition is rooted at; -1 lets
/// the planner choose (the one-job rule or the multi-job root search
/// above; the partitioner's default for multi-job plans without
/// cross-template reuse).  A single-template count passes its own.
BatchPlan plan_batch(const Graph& graph, const std::vector<BatchJob>& jobs,
                     const BatchOptions& options, int root = -1);

/// The merge step alone, without the search: job j partitioned with
/// the requested strategy (one-at-a-time when unset) at roots[j]
/// (-1 = the partitioner's default, as partition_template reads it),
/// interned in `order` (a permutation of the job indices).
/// Partitions come through options.partition_provider when set.  With
/// default roots in input order this is the plan the search starts
/// from and falls back to.
BatchPlan merge_plan(const Graph& graph, const std::vector<BatchJob>& jobs,
                     const BatchOptions& options, const std::vector<int>& roots,
                     const std::vector<std::size_t>& order);

/// A one-job plan over a partition built elsewhere — a mixed
/// template's (treelet/mixed_partition.hpp), which no planner search
/// covers — for a template of `template_size` vertices and
/// `automorphisms` automorphisms.  `root` is recorded as the job's
/// partition root (-1 = the partitioner's default).
BatchPlan plan_partition(PartitionTree partition, int num_colors,
                         int template_size, std::uint64_t automorphisms,
                         int root = -1);

}  // namespace fascia::sched
