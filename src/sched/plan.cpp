#include "sched/plan.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "util/timer.hpp"

#include "util/error.hpp"

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

}  // namespace

BatchPlan plan_batch(const Graph& graph, const std::vector<BatchJob>& jobs,
                     const BatchOptions& options, int root) {
  WallTimer timer;
  BatchPlan plan;
  plan.num_colors = resolve_colors(jobs, options);
  validate(graph, jobs, options, plan.num_colors);

  // Intern every partition node into the global stage list.  The canon
  // key is the rooted canonical form (labels included), so two stages
  // merge exactly when their DP tables would be equal for every
  // coloring.  Cross-template interning subsumes within-template
  // sharing; share_tables only shapes the per-template partitions when
  // reuse is off.
  std::vector<Subtemplate> nodes;
  std::map<std::string, int> intern;
  for (const BatchJob& job : jobs) {
    const std::shared_ptr<const PartitionTree> cached =
        options.partition_provider
            ? options.partition_provider(job.tmpl, options.partition,
                                         options.share_tables, root)
            : nullptr;
    const PartitionTree part =
        cached ? *cached
               : partition_template(job.tmpl, options.partition,
                                    options.share_tables, root);
    plan.job_dp_cost.push_back(part.dp_cost(plan.num_colors));

    std::vector<int> local_to_merged(
        static_cast<std::size_t>(part.num_nodes()), -1);
    for (int i = 0; i < part.num_nodes(); ++i) {
      const Subtemplate& local = part.node(i);
      if (options.cross_template_reuse) {
        if (auto it = intern.find(local.canon); it != intern.end()) {
          local_to_merged[static_cast<std::size_t>(i)] = it->second;
          continue;
        }
      }
      Subtemplate stage = local;
      if (!stage.is_leaf()) {
        stage.active =
            local_to_merged[static_cast<std::size_t>(local.active)];
        stage.passive =
            local_to_merged[static_cast<std::size_t>(local.passive)];
      }
      nodes.push_back(std::move(stage));
      const int id = static_cast<int>(nodes.size()) - 1;
      local_to_merged[static_cast<std::size_t>(i)] = id;
      if (options.cross_template_reuse) intern.emplace(local.canon, id);
    }
    plan.job_root.push_back(
        local_to_merged[static_cast<std::size_t>(part.root_node())]);
  }

  // Per-template roots stay alive until the end of a pass: with mixed
  // sizes a job's root can double as another job's internal stage.
  plan.merged = PartitionTree::from_nodes(std::move(nodes), plan.job_root);

  for (int i = 0; i < plan.merged.num_nodes(); ++i) {
    if (!plan.merged.node(i).is_leaf()) ++plan.unique_stages;
  }

  // Stage demand per job = non-leaf stages reachable from its root in
  // the *merged* DAG (a deduped node contributes its representative's
  // decomposition, which is what one iteration actually computes).
  plan.job_nodes.resize(jobs.size());
  plan.job_stage_demand.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
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
      for (int child : {stage.active, stage.passive}) {
        if (!seen[static_cast<std::size_t>(child)]) {
          seen[static_cast<std::size_t>(child)] = 1;
          stack.push_back(child);
        }
      }
    }
    std::sort(plan.job_nodes[j].begin(), plan.job_nodes[j].end());
    plan.total_stage_instances += plan.job_stage_demand[j];
  }

  plan.seconds = timer.elapsed_s();
  return plan;
}

}  // namespace fascia::sched
