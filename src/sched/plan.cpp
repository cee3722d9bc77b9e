#include "sched/plan.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "comb/binomial.hpp"
#include "comb/colorset.hpp"
#include "run/memory.hpp"
#include "treelet/canonical.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace fascia::sched {

namespace {

int resolve_colors(const std::vector<BatchJob>& jobs,
                   const BatchOptions& options) {
  if (options.num_colors > 0) return options.num_colors;
  int k = 1;
  for (const BatchJob& job : jobs) k = std::max(k, job.tmpl.size());
  return k;
}

void validate(const Graph& graph, const std::vector<BatchJob>& jobs,
              const BatchOptions& options, int k) {
  if (jobs.empty()) {
    throw usage_error("run_batch: empty job list");
  }
  if (k > kMaxTemplateSize) {
    throw usage_error("run_batch: too many colors");
  }
  if (options.min_iterations < 2) {
    throw usage_error("run_batch: min_iterations must be >= 2");
  }
  if (options.adaptive_batch &&
      (!options.run.checkpoint_path.empty() || options.run.resume)) {
    // Greedy grants decouple per-job sample streams from the global
    // coloring counter, which the checkpoint format indexes by.
    throw usage_error(
        "run_batch: adaptive_batch cannot be combined with "
        "checkpoint/resume");
  }
  for (const BatchJob& job : jobs) {
    if (job.tmpl.has_labels() != graph.has_labels()) {
      throw usage_error(
          "run_batch: every template and the graph must agree on labeling");
    }
    if (job.tmpl.size() > k) {
      throw usage_error(
          "run_batch: num_colors must cover every template");
    }
    if (job.target_relative_stderr > 0.0) {
      if (job.max_iterations < 2) {
        throw usage_error(
            "run_batch: adaptive jobs need max_iterations >= 2");
      }
    } else if (job.iterations < 1) {
      throw usage_error(
          "run_batch: fixed jobs need iterations >= 1");
    }
  }
}

/// Stage demand per job = non-leaf stages reachable from its root in
/// the *merged* DAG (a deduped node contributes its representative's
/// decomposition, which is what one iteration actually computes).
void fill_job_nodes(BatchPlan& plan) {
  const std::size_t num_jobs = plan.job_root.size();
  plan.job_nodes.assign(num_jobs, {});
  plan.job_stage_demand.assign(num_jobs, 0);
  for (std::size_t j = 0; j < num_jobs; ++j) {
    std::vector<char> seen(static_cast<std::size_t>(plan.merged.num_nodes()),
                           0);
    std::vector<int> stack = {plan.job_root[j]};
    seen[static_cast<std::size_t>(plan.job_root[j])] = 1;
    while (!stack.empty()) {
      const int id = stack.back();
      stack.pop_back();
      plan.job_nodes[j].push_back(id);
      const Subtemplate& stage = plan.merged.node(id);
      if (stage.is_leaf()) continue;
      ++plan.job_stage_demand[j];
      for (int child : {stage.active, stage.passive, stage.passive2}) {
        if (child >= 0 && !seen[static_cast<std::size_t>(child)]) {
          seen[static_cast<std::size_t>(child)] = 1;
          stack.push_back(child);
        }
      }
    }
    std::sort(plan.job_nodes[j].begin(), plan.job_nodes[j].end());
    plan.total_stage_instances += plan.job_stage_demand[j];
  }
}

/// Partitions job j with strategies[j] at roots[j] (through
/// options.partition_provider when set) and merges the partitions,
/// interned in `order`, into one plan.  With cross-template reuse, a
/// job's node whose rooted canonical form is already a stage IS that
/// stage, and the job's nodes below it are not added: the stage's own
/// children compute it.  Without reuse, every partition is appended
/// verbatim.
BatchPlan merge(const std::vector<BatchJob>& jobs, const BatchOptions& options,
                const std::vector<PartitionStrategy>& strategies,
                const std::vector<int>& roots,
                const std::vector<std::size_t>& order, int k) {
  BatchPlan plan;
  plan.num_colors = k;
  const std::size_t num_jobs = jobs.size();
  plan.job_root.assign(num_jobs, -1);
  plan.job_partition_root = roots;
  plan.job_partition_strategy = strategies;
  plan.job_dp_cost.assign(num_jobs, 0.0);
  for (const BatchJob& job : jobs) {
    plan.job_size.push_back(job.tmpl.size());
    plan.job_automorphisms.push_back(automorphisms(job.tmpl));
  }

  // The canon key is the rooted canonical form (labels included), so
  // two stages merge exactly when their DP tables would be equal for
  // every coloring.  Cross-template interning subsumes within-template
  // sharing; share_tables only shapes the per-template partitions when
  // reuse is off.
  std::vector<Subtemplate> nodes;
  std::unordered_map<std::string, int> intern;
  std::vector<int> local_to_merged;
  for (const std::size_t j : order) {
    std::shared_ptr<const PartitionTree> held;
    if (options.partition_provider) {
      held = options.partition_provider(jobs[j].tmpl, strategies[j],
                                        options.share_tables, roots[j]);
    }
    if (held == nullptr) {
      held = std::make_shared<const PartitionTree>(partition_template(
          jobs[j].tmpl, strategies[j], options.share_tables, roots[j]));
    }
    const PartitionTree& part = *held;
    plan.job_dp_cost[j] = part.dp_cost(k);
    if (!options.cross_template_reuse) {
      const int offset = static_cast<int>(nodes.size());
      for (Subtemplate stage : part.nodes()) {
        if (!stage.is_leaf()) {
          stage.active += offset;
          stage.passive += offset;
          if (stage.is_triangle_join()) stage.passive2 += offset;
        }
        nodes.push_back(std::move(stage));
      }
      plan.job_root[j] = offset + part.root_node();
      continue;
    }
    // Children before parents, in the partition's own (post-)order.
    local_to_merged.assign(static_cast<std::size_t>(part.num_nodes()), -1);
    const auto place = [&](const auto& self, int i) -> int {
      int& slot = local_to_merged[static_cast<std::size_t>(i)];
      if (slot >= 0) return slot;
      const Subtemplate& local = part.node(i);
      if (const auto it = intern.find(local.canon); it != intern.end()) {
        slot = it->second;
        return slot;
      }
      Subtemplate stage = local;
      if (!stage.is_leaf()) {
        stage.active = self(self, local.active);
        stage.passive = self(self, local.passive);
      }
      nodes.push_back(std::move(stage));
      slot = static_cast<int>(nodes.size()) - 1;
      intern.emplace(local.canon, slot);
      return slot;
    };
    plan.job_root[j] = place(place, part.root_node());
  }

  // Per-template roots stay alive until the end of a pass: with mixed
  // sizes a job's root can double as another job's internal stage.
  plan.merged = PartitionTree::from_nodes(std::move(nodes), plan.job_root);

  for (int i = 0; i < plan.merged.num_nodes(); ++i) {
    if (!plan.merged.node(i).is_leaf()) ++plan.unique_stages;
  }

  fill_job_nodes(plan);
  return plan;
}

/// Modeled bytes of one table of each size h = 2..k, at [h - 2].
std::vector<std::size_t> modeled_table_bytes(int k, VertexId n, TableKind kind,
                                             bool labeled) {
  std::vector<std::size_t> bytes;
  for (int h = 2; h <= k; ++h) {
    bytes.push_back(run::estimate_table_bytes(kind, n,
                                              num_rooted_colorsets(k, h),
                                              labeled));
  }
  return bytes;
}

/// PartitionTree::dp_cost of a shape.
double shape_cost(const PartitionShape& shape, int k) {
  double cost = 0.0;
  for (const ShapeNode& node : shape) {
    if (node.is_leaf()) continue;
    const int a = shape[static_cast<std::size_t>(node.active)].size;
    cost += static_cast<double>(choose(k, node.size)) *
            static_cast<double>(choose(node.size, a));
  }
  return cost;
}

// ---- one-job plans ---------------------------------------------------------

/// A one-job candidate: its shape's non-leaf stages, modeled peak
/// (run::estimate_peak_bytes of the tree it materializes) and dp_cost.
struct Shaped {
  PartitionStrategy strategy = PartitionStrategy::kOneAtATime;
  int root = 0;
  std::size_t stages = 0;
  std::size_t peak = 0;
  double cost = 0.0;
};

Shaped measure(const PartitionShape& shape, PartitionStrategy strategy,
               int root, const std::vector<std::size_t>& table_bytes, int k) {
  Shaped out;
  out.strategy = strategy;
  out.root = root;
  out.cost = shape_cost(shape, k);
  // A table lives from its node through its last consumer; the root's
  // to the end of the pass.
  std::vector<std::size_t> freed(shape.size(), 0);
  std::vector<int> last(shape.size(), -1);
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (shape[i].is_leaf()) continue;
    ++out.stages;
    for (const int child : {shape[i].active, shape[i].passive}) {
      last[static_cast<std::size_t>(child)] = static_cast<int>(i);
    }
  }
  const auto bytes = [&](const ShapeNode& node) {
    return node.is_leaf()
               ? std::size_t{0}
               : table_bytes[static_cast<std::size_t>(node.size - 2)];
  };
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (last[i] >= 0) {
      freed[static_cast<std::size_t>(last[i])] += bytes(shape[i]);
    }
  }
  std::size_t current = 0;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    current += bytes(shape[i]);
    out.peak = std::max(out.peak, current);
    current -= freed[i];
  }
  return out;
}

/// The one-job rule (header comment): the admissible candidate with
/// the fewest stages, ties broken by peak, dp_cost, strategy order and
/// root id.  `root` is the caller's (-1 = every root).
PartitionChoice choose_partition(const TreeTemplate& tmpl,
                                 const BatchOptions& options, int root, int k,
                                 VertexId n, bool labeled) {
  const std::vector<std::size_t> table_bytes =
      modeled_table_bytes(k, n, options.table, labeled);
  // One job with cross-template reuse interns equal canons, which is
  // what sharing tables within the template does.
  const bool share = options.share_tables || options.cross_template_reuse;
  // The default shape: the requested strategy (one-at-a-time when
  // unset) at the caller's root or that strategy's default root.  A
  // pinned strategy is planned exactly so; otherwise every candidate
  // root of both strategies competes with it.
  const PartitionStrategy base_strategy =
      options.partition.value_or(PartitionStrategy::kOneAtATime);
  const int base_root = root >= 0 ? root : default_root(tmpl, base_strategy);
  const bool one_root = root >= 0 || options.partition.has_value();

  CanonIds ids;
  std::vector<Shaped> shapes;
  const auto add_candidates = [&](PartitionStrategy strategy) {
    PartitionShaper shaper(tmpl, strategy, share, ids);
    for (int r = one_root ? base_root : 0;
         r <= (one_root ? base_root : tmpl.size() - 1); ++r) {
      shapes.push_back(measure(shaper.build(r), strategy, r, table_bytes, k));
    }
  };
  add_candidates(base_strategy);
  if (!options.partition) add_candidates(PartitionStrategy::kBalanced);
  const Shaped base = *std::find_if(
      shapes.begin(), shapes.end(), [&](const Shaped& shape) {
        return shape.root == base_root && shape.strategy == base_strategy;
      });
  const Shaped* best = &base;
  for (const Shaped& shape : shapes) {
    if (shape.peak > base.peak) continue;
    // Candidates come one-at-a-time first, roots ascending, so a strict
    // comparison leaves ties to the earlier one.
    if (std::tie(shape.stages, shape.peak, shape.cost) <
        std::tie(best->stages, best->peak, best->cost)) {
      best = &shape;
    }
  }

  PartitionChoice choice;
  choice.strategy = best->strategy;
  choice.root = best->root;
  choice.stages = best->stages;
  choice.modeled_peak_bytes = best->peak;
  choice.default_stages = base.stages;
  choice.default_modeled_peak_bytes = base.peak;
  choice.strategy_pinned = options.partition.has_value();
  choice.root_pinned = root >= 0;
  return choice;
}

// ---- root search ----------------------------------------------------------

/// One job's root candidates.
struct Candidates {
  std::vector<PartitionShape> shapes;    ///< [root]
  std::vector<std::vector<int>> stages;  ///< [root] -> distinct non-leaf ids
  std::vector<double> cost;              ///< [root] -> PartitionTree::dp_cost
  int default_root = 0;
};

/// Coordinate descent over the jobs' roots, from the defaults: each
/// job in turn moves to the root whose stages add the fewest distinct
/// non-leaf stages to the rest of the plan (ties: fewer modeled MACs,
/// then the smaller root id), accepting strict improvements only,
/// until a sweep moves nothing.  Every move lowers (distinct stages,
/// Σ cost), so the descent ends.
std::vector<int> search_roots(const std::vector<Candidates>& jobs,
                              std::size_t num_canons) {
  std::vector<int> refs(num_canons, 0);
  std::vector<int> root(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    root[j] = jobs[j].default_root;
    for (const int id : jobs[j].stages[static_cast<std::size_t>(root[j])]) {
      ++refs[static_cast<std::size_t>(id)];
    }
  }
  for (bool moved = true; moved;) {
    moved = false;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const Candidates& job = jobs[j];
      const auto stages = [&](int r) -> const std::vector<int>& {
        return job.stages[static_cast<std::size_t>(r)];
      };
      for (const int id : stages(root[j])) {
        --refs[static_cast<std::size_t>(id)];
      }
      // Stages the plan gains by rooting job j at r, the others fixed.
      const auto added = [&](int r) {
        int count = 0;
        for (const int id : stages(r)) {
          count += refs[static_cast<std::size_t>(id)] == 0 ? 1 : 0;
        }
        return count;
      };
      int best = root[j];
      int best_added = added(best);
      for (int r = 0; r < static_cast<int>(job.shapes.size()); ++r) {
        const int gain = added(r);
        const auto cost = [&](int root_id) {
          return job.cost[static_cast<std::size_t>(root_id)];
        };
        if (gain < best_added || (gain == best_added && cost(r) < cost(best))) {
          best = r;
          best_added = gain;
        }
      }
      for (const int id : stages(best)) ++refs[static_cast<std::size_t>(id)];
      if (best != root[j]) {
        root[j] = best;
        moved = true;
      }
    }
  }
  return root;
}

/// run::estimate_peak_bytes of a merged DAG that grows one job at a
/// time, kept incrementally: the modeled peak of the plan with a job
/// appended (peak_with) and the append itself, without rebuilding the
/// merged PartitionTree.  Positions are merged node ids, placed as
/// merge() places them; a table lives from its position through its
/// last consumer, or to the end of the pass if it is a job's root.
class PeakModel {
 public:
  PeakModel(std::size_t num_canons, int k, VertexId n, TableKind kind,
            bool labeled)
      : table_bytes_(modeled_table_bytes(k, n, kind, labeled)),
        position_(num_canons, -1) {}

  /// Modeled peak of the plan with `shape` appended.
  [[nodiscard]] std::size_t peak_with(const PartitionShape& shape) {
    return simulate(shape, /*commit=*/false);
  }

  /// Appends `shape`; returns the plan's modeled peak.
  std::size_t append(const PartitionShape& shape) {
    return simulate(shape, /*commit=*/true);
  }

 private:
  [[nodiscard]] std::size_t bytes_of(const ShapeNode& node) const {
    return node.is_leaf()
               ? 0
               : table_bytes_[static_cast<std::size_t>(node.size - 2)];
  }

  std::size_t simulate(const PartitionShape& shape, bool commit) {
    const int base = static_cast<int>(bytes_.size());
    // Place the job as merge() does; fresh[t] is the local node at
    // position base + t.
    local_.assign(shape.size(), -1);
    fresh_.clear();
    const auto place = [&](const auto& self, int i) -> int {
      int& slot = local_[static_cast<std::size_t>(i)];
      if (slot >= 0) return slot;
      const ShapeNode& node = shape[static_cast<std::size_t>(i)];
      const int pos = position_[static_cast<std::size_t>(node.canon)];
      if (pos >= 0) {
        slot = pos;
        return slot;
      }
      if (!node.is_leaf()) {
        self(self, node.active);
        self(self, node.passive);
      }
      slot = base + static_cast<int>(fresh_.size());
      position_[static_cast<std::size_t>(node.canon)] = slot;
      fresh_.push_back(i);
      return slot;
    };
    const int root = place(place, static_cast<int>(shape.size()) - 1);
    const auto added = fresh_.size();

    // Last consumers: existing tables a new stage reads live on until
    // that stage (pinned ones already live to the end); new tables
    // until their last new consumer, the job's root to the end.
    fresh_last_.assign(added, -1);
    extended_.clear();
    for (std::size_t t = 0; t < added; ++t) {
      const ShapeNode& node = shape[static_cast<std::size_t>(fresh_[t])];
      if (node.is_leaf()) continue;
      for (const int child : {node.active, node.passive}) {
        const int pos = local_[static_cast<std::size_t>(child)];
        if (pos >= base) {
          fresh_last_[static_cast<std::size_t>(pos - base)] =
              static_cast<int>(t);
        } else if (!pinned_[static_cast<std::size_t>(pos)] &&
                   bytes_[static_cast<std::size_t>(pos)] > 0) {
          extend(pos, static_cast<int>(t));
        }
      }
    }
    // A job whose root is already an unpinned stage pins it.
    if (root < base && !pinned_[static_cast<std::size_t>(root)]) {
      extend(root, kToEnd);
    }

    // Existing positions: live bytes rise from each extended table's
    // old last use to the end of the prefix.
    int low = base;
    std::size_t carried = pinned_bytes_;
    for (const Extension& ext : extended_) {
      low = std::min(low, last_use_[static_cast<std::size_t>(ext.pos)] + 1);
      carried += bytes_[static_cast<std::size_t>(ext.pos)];
    }
    rise_.assign(static_cast<std::size_t>(base - low) + 1, 0);
    for (const Extension& ext : extended_) {
      const int from = last_use_[static_cast<std::size_t>(ext.pos)] + 1;
      rise_[static_cast<std::size_t>(from - low)] +=
          bytes_[static_cast<std::size_t>(ext.pos)];
    }
    std::size_t peak =
        low > 0 ? prefix_peak_[static_cast<std::size_t>(low - 1)] : 0;
    std::size_t rise = 0;
    for (int i = low; i < base; ++i) {
      rise += rise_[static_cast<std::size_t>(i - low)];
      if (is_table_[static_cast<std::size_t>(i)]) {
        peak = std::max(peak, live_[static_cast<std::size_t>(i)] + rise);
      }
    }

    // New positions.
    freed_.assign(added, 0);
    for (const Extension& ext : extended_) {
      if (ext.until < static_cast<int>(added)) {
        freed_[static_cast<std::size_t>(ext.until)] +=
            bytes_[static_cast<std::size_t>(ext.pos)];
      }
    }
    const auto fresh_bytes = [&](std::size_t t) {
      return bytes_of(shape[static_cast<std::size_t>(fresh_[t])]);
    };
    for (std::size_t t = 0; t < added; ++t) {
      const int last = fresh_last_[t];
      if (last >= 0) freed_[static_cast<std::size_t>(last)] += fresh_bytes(t);
    }
    fresh_live_.assign(added, 0);
    std::size_t current = carried;
    for (std::size_t t = 0; t < added; ++t) {
      const std::size_t bytes = fresh_bytes(t);
      current += bytes;
      if (bytes > 0) peak = std::max(peak, current);
      fresh_live_[t] = current;
      current -= freed_[t];
    }

    if (!commit) {
      for (const int i : fresh_) {
        position_[static_cast<std::size_t>(
            shape[static_cast<std::size_t>(i)].canon)] = -1;
      }
      for (const Extension& ext : extended_) {
        ext_slot_[static_cast<std::size_t>(ext.pos)] = -1;
      }
      return peak;
    }

    rise = 0;
    for (int i = low; i < base; ++i) {
      rise += rise_[static_cast<std::size_t>(i - low)];
      live_[static_cast<std::size_t>(i)] += rise;
    }
    for (const Extension& ext : extended_) {
      const auto p = static_cast<std::size_t>(ext.pos);
      ext_slot_[p] = -1;
      if (ext.until == kToEnd) {
        pinned_[p] = 1;
        pinned_bytes_ += bytes_[p];
      } else {
        last_use_[p] = base + ext.until;
      }
    }
    for (std::size_t t = 0; t < added; ++t) {
      const std::size_t bytes = fresh_bytes(t);
      const bool is_root = base + static_cast<int>(t) == root;
      bytes_.push_back(bytes);
      is_table_.push_back(bytes > 0 ? 1 : 0);
      last_use_.push_back(is_root ? base + static_cast<int>(t)
                                  : base + fresh_last_[t]);
      pinned_.push_back(is_root ? 1 : 0);
      live_.push_back(fresh_live_[t]);
      ext_slot_.push_back(-1);
      if (is_root) pinned_bytes_ += bytes;
    }
    prefix_peak_.resize(bytes_.size());
    for (std::size_t i = static_cast<std::size_t>(low); i < bytes_.size();
         ++i) {
      const std::size_t here = is_table_[i] != 0 ? live_[i] : 0;
      prefix_peak_[i] = i > 0 ? std::max(prefix_peak_[i - 1], here) : here;
    }
    return peak;
  }

  /// Records that existing table `pos` must live until new position
  /// base + `until` (kToEnd: a job root, to the end of the pass).
  void extend(int pos, int until) {
    int& slot = ext_slot_[static_cast<std::size_t>(pos)];
    if (slot >= 0) {
      Extension& ext = extended_[static_cast<std::size_t>(slot)];
      ext.until = std::max(ext.until, until);
      return;
    }
    slot = static_cast<int>(extended_.size());
    extended_.push_back({pos, until});
  }

  static constexpr int kToEnd = std::numeric_limits<int>::max();

  /// An existing table a new stage reads: it now lives until new
  /// position base + `until` (kToEnd: a job root, to the end).
  struct Extension {
    int pos;
    int until;
  };

  std::vector<std::size_t> table_bytes_;  ///< [h - 2] -> modeled bytes
  std::vector<int> position_;             ///< canon id -> position, -1

  // Per position of the merged prefix.
  std::vector<std::size_t> bytes_;
  std::vector<char> is_table_;
  std::vector<int> last_use_;  ///< last consumer position
  std::vector<char> pinned_;   ///< a job's root: live to the end
  std::vector<std::size_t> live_;         ///< bytes live right after it
  std::vector<std::size_t> prefix_peak_;  ///< max live_ over tables <= i
  std::vector<int> ext_slot_;  ///< index into extended_, -1 (scratch)
  std::size_t pinned_bytes_ = 0;

  // Scratch reused across simulations.
  std::vector<int> local_;
  std::vector<int> fresh_;
  std::vector<int> fresh_last_;
  std::vector<Extension> extended_;
  std::vector<std::size_t> rise_;
  std::vector<std::size_t> freed_;
  std::vector<std::size_t> fresh_live_;
};

}  // namespace

BatchPlan merge_plan(const Graph& graph, const std::vector<BatchJob>& jobs,
                     const BatchOptions& options, const std::vector<int>& roots,
                     const std::vector<std::size_t>& order) {
  const int k = resolve_colors(jobs, options);
  validate(graph, jobs, options, k);
  if (roots.size() != jobs.size() || order.size() != jobs.size()) {
    throw usage_error("merge_plan: one root and one order slot per job");
  }
  std::vector<char> seen(jobs.size(), 0);
  for (const std::size_t j : order) {
    if (j >= jobs.size() || seen[j] != 0) {
      throw usage_error("merge_plan: order must be a permutation of the jobs");
    }
    seen[j] = 1;
  }
  return merge(jobs, options,
               std::vector<PartitionStrategy>(
                   jobs.size(),
                   options.partition.value_or(PartitionStrategy::kOneAtATime)),
               roots, order, k);
}

BatchPlan plan_batch(const Graph& graph, const std::vector<BatchJob>& jobs,
                     const BatchOptions& options, int root) {
  WallTimer timer;
  const int k = resolve_colors(jobs, options);
  validate(graph, jobs, options, k);
  const std::size_t num_jobs = jobs.size();
  const PartitionStrategy requested =
      options.partition.value_or(PartitionStrategy::kOneAtATime);
  std::vector<PartitionStrategy> strategies(num_jobs, requested);
  std::vector<int> roots(num_jobs, root);
  std::vector<std::size_t> order(num_jobs);
  std::iota(order.begin(), order.end(), std::size_t{0});

  std::optional<PartitionChoice> choice;
  if (num_jobs == 1) {
    const TreeTemplate& tmpl = jobs.front().tmpl;
    choice = choose_partition(tmpl, options, root, k, graph.num_vertices(),
                              graph.has_labels());
    strategies[0] = choice->strategy;
    // An unpinned root that is the chosen strategy's default stays -1,
    // as partition_template reads it.
    if (root < 0 && choice->root != default_root(tmpl, choice->strategy)) {
      roots[0] = choice->root;
    }
  } else if (options.cross_template_reuse && root < 0) {
    // Every job's partition shape at every root.
    CanonIds ids;
    std::vector<Candidates> cands(num_jobs);
    for (std::size_t j = 0; j < num_jobs; ++j) {
      const TreeTemplate& tmpl = jobs[j].tmpl;
      Candidates& job = cands[j];
      PartitionShaper shaper(tmpl, requested, options.share_tables, ids);
      for (int r = 0; r < tmpl.size(); ++r) {
        const PartitionShape& shape = job.shapes.emplace_back(shaper.build(r));
        std::vector<int> stages;
        for (const ShapeNode& node : shape) {
          if (!node.is_leaf()) stages.push_back(node.canon);
        }
        std::sort(stages.begin(), stages.end());
        stages.erase(std::unique(stages.begin(), stages.end()), stages.end());
        job.stages.push_back(std::move(stages));
        job.cost.push_back(shape_cost(shape, k));
      }
      job.default_root = default_root(tmpl, requested);
    }
    const std::vector<int> chosen = search_roots(cands, ids.size());
    const auto shape = [&](std::size_t j, int r) -> const PartitionShape& {
      return cands[j].shapes[static_cast<std::size_t>(r)];
    };

    // Emission order: greedily append the job that keeps the merged
    // prefix's modeled peak lowest (ties: input order).
    const auto model = [&]() {
      return PeakModel(ids.size(), k, graph.num_vertices(), options.table,
                       graph.has_labels());
    };
    PeakModel greedy = model();
    std::vector<std::size_t> picked;
    std::vector<char> placed(num_jobs, 0);
    std::size_t chosen_peak = 0;
    while (picked.size() < num_jobs) {
      std::size_t best = num_jobs;
      std::size_t best_peak = 0;
      for (std::size_t j = 0; j < num_jobs; ++j) {
        if (placed[j] != 0) continue;
        const std::size_t peak = greedy.peak_with(shape(j, chosen[j]));
        if (best == num_jobs || peak < best_peak) {
          best = j;
          best_peak = peak;
        }
      }
      chosen_peak = greedy.append(shape(best, chosen[best]));
      placed[best] = 1;
      picked.push_back(best);
    }

    // Keep the choice only if its modeled peak is at most the default
    // plan's (default roots, input order).
    PeakModel fallback = model();
    std::size_t default_peak = 0;
    for (std::size_t j = 0; j < num_jobs; ++j) {
      default_peak = fallback.append(shape(j, cands[j].default_root));
    }
    if (chosen_peak <= default_peak) {
      order = std::move(picked);
      for (std::size_t j = 0; j < num_jobs; ++j) {
        if (chosen[j] != cands[j].default_root) roots[j] = chosen[j];
      }
    }
  }

  // Only the chosen partitions are materialized (through the provider
  // when set), so a host cache holds one partition per job, no
  // candidates.
  BatchPlan plan = merge(jobs, options, strategies, roots, order, k);
  plan.partition_choice = choice;
  plan.seconds = timer.elapsed_s();
  return plan;
}

BatchPlan plan_partition(PartitionTree partition, int num_colors,
                         int template_size, std::uint64_t automorphisms,
                         int root) {
  BatchPlan plan;
  plan.num_colors = num_colors;
  plan.job_dp_cost = {partition.dp_cost(num_colors)};
  plan.merged = std::move(partition);
  plan.job_root = {plan.merged.root_node()};
  plan.job_size = {template_size};
  plan.job_automorphisms = {automorphisms};
  plan.job_partition_root = {root};
  plan.job_partition_strategy = {PartitionStrategy::kOneAtATime};
  for (const Subtemplate& node : plan.merged.nodes()) {
    if (!node.is_leaf()) ++plan.unique_stages;
  }
  fill_job_nodes(plan);
  return plan;
}

}  // namespace fascia::sched
