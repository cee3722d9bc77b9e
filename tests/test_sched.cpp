#include "sched/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/counter.hpp"
#include "core/mixed_counter.hpp"
#include "core/motifs.hpp"
#include "exact/backtrack.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/labels.hpp"
#include "obs/report.hpp"
#include "run/memory.hpp"
#include "sched/plan.hpp"
#include "treelet/catalog.hpp"
#include "treelet/free_trees.hpp"
#include "treelet/mixed_template.hpp"
#include "util/stats.hpp"
#include "util/error.hpp"

namespace fascia {
namespace {

Graph test_graph() {
  static const Graph g = largest_component(erdos_renyi_gnm(60, 150, 7));
  return g;
}

std::vector<sched::BatchJob> fixed_jobs(int k, int iterations) {
  std::vector<sched::BatchJob> jobs;
  for (const TreeTemplate& tree : all_free_trees(k)) {
    sched::BatchJob job;
    job.tmpl = tree;
    job.iterations = iterations;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// The per-template reference: count_template under the batch's shared
/// coloring seed and color count.
CountResult reference(const Graph& g, const TreeTemplate& tree,
                      int iterations, std::uint64_t seed, int num_colors) {
  CountOptions options;
  options.sampling.iterations = iterations;
  options.sampling.seed = seed;
  options.sampling.num_colors = num_colors;
  options.execution.mode = ParallelMode::kSerial;
  return count_template(g, tree, options);
}

TEST(Sched, BatchMatchesPerTemplatePathWithReuse) {
  const Graph g = test_graph();
  const auto jobs = fixed_jobs(5, 4);
  sched::BatchOptions options;
  options.seed = 11;
  const sched::BatchResult batch = sched::run_batch(g, jobs, options);
  ASSERT_EQ(batch.jobs.size(), jobs.size());
  EXPECT_EQ(batch.num_colors, 5);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const CountResult ref = reference(g, jobs[j].tmpl, 4, 11, 5);
    EXPECT_EQ(batch.jobs[j].per_iteration, ref.per_iteration)
        << "job " << j;
    EXPECT_EQ(batch.jobs[j].estimate, ref.estimate) << "job " << j;
    EXPECT_EQ(batch.jobs[j].iterations, 4);
    EXPECT_TRUE(batch.jobs[j].converged);
    EXPECT_FALSE(batch.jobs[j].adaptive);
  }
  EXPECT_EQ(batch.iterations_total, 4 * static_cast<long long>(jobs.size()));
  EXPECT_EQ(batch.coloring_rounds, 4);
}

TEST(Sched, ReuseDisabledBitIdentical) {
  const Graph g = test_graph();
  const auto jobs = fixed_jobs(5, 3);
  sched::BatchOptions options;
  options.seed = 23;
  options.cross_template_reuse = false;
  const sched::BatchResult batch = sched::run_batch(g, jobs, options);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const CountResult ref = reference(g, jobs[j].tmpl, 3, 23, 5);
    EXPECT_EQ(batch.jobs[j].per_iteration, ref.per_iteration)
        << "job " << j;
    EXPECT_EQ(batch.jobs[j].estimate, ref.estimate) << "job " << j;
  }
  // No sharing: every demanded stage is evaluated.
  EXPECT_EQ(batch.unique_stages, batch.total_stage_instances);
  EXPECT_EQ(batch.stage_evaluations, batch.stage_requests);
  EXPECT_DOUBLE_EQ(batch.cache_hit_rate(), 0.0);
}

TEST(Sched, DeterministicAcrossModesAndThreads) {
  const Graph g = test_graph();
  const auto jobs = fixed_jobs(5, 3);
  sched::BatchOptions serial;
  serial.seed = 5;
  serial.mode = ParallelMode::kSerial;
  sched::BatchOptions outer = serial;
  outer.mode = ParallelMode::kOuterLoop;
  outer.num_threads = 4;
  sched::BatchOptions inner = serial;
  inner.mode = ParallelMode::kInnerLoop;
  inner.num_threads = 2;
  const auto a = sched::run_batch(g, jobs, serial);
  const auto b = sched::run_batch(g, jobs, outer);
  const auto c = sched::run_batch(g, jobs, inner);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].per_iteration, b.jobs[j].per_iteration);
    EXPECT_EQ(a.jobs[j].per_iteration, c.jobs[j].per_iteration);
  }
}

TEST(Sched, CrossTemplateReuseSharesStages) {
  const Graph g = test_graph();
  const auto jobs = fixed_jobs(5, 2);
  sched::BatchOptions options;
  const sched::BatchResult batch = sched::run_batch(g, jobs, options);
  // The 3 size-5 trees share small rooted subtemplates (every one-at-
  // a-time partition contains the rooted pair, for a start).
  EXPECT_LT(batch.unique_stages, batch.total_stage_instances);
  EXPECT_LT(batch.stage_evaluations, batch.stage_requests);
  EXPECT_GT(batch.cache_hit_rate(), 0.0);
}

TEST(Sched, PlanDeduplicatesByRootedCanonicalForm) {
  const auto jobs = fixed_jobs(5, 1);
  sched::BatchOptions options;
  const sched::BatchPlan plan = sched::plan_batch(test_graph(), jobs, options);
  ASSERT_EQ(plan.job_root.size(), jobs.size());
  // Merged DAG is a valid bottom-up DAG covering every job.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(plan.merged.node(plan.job_root[j]).size(), 5);
    EXPECT_EQ(plan.merged.node(plan.job_root[j]).free_after, -1);
    EXPECT_GT(plan.job_stage_demand[j], 0u);
    EXPECT_GT(plan.job_dp_cost[j], 0.0);
  }
  for (int i = 0; i < plan.merged.num_nodes(); ++i) {
    const Subtemplate& node = plan.merged.node(i);
    if (node.is_leaf()) continue;
    EXPECT_LT(node.active, i);
    EXPECT_LT(node.passive, i);
  }
}

TEST(Sched, MixedTemplateSizesPinSharedRoots) {
  // A size-3 job's root stage is also an internal stage of the size-5
  // path's partition; the planner must pin it so its table is still
  // live when the small job reads its total.
  const Graph g = test_graph();
  std::vector<sched::BatchJob> jobs;
  jobs.push_back({TreeTemplate::path(3), 3, 0.0, 1000});
  jobs.push_back({TreeTemplate::path(5), 3, 0.0, 1000});
  sched::BatchOptions options;
  options.seed = 9;
  const sched::BatchResult batch = sched::run_batch(g, jobs, options);
  EXPECT_EQ(batch.num_colors, 5);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const CountResult ref = reference(g, jobs[j].tmpl, 3, 9, 5);
    EXPECT_EQ(batch.jobs[j].per_iteration, ref.per_iteration)
        << "job " << j;
  }
}

TEST(Sched, SingleVertexTemplateCountsVertices) {
  const Graph g = test_graph();
  std::vector<sched::BatchJob> jobs;
  jobs.push_back({TreeTemplate::from_edges(1, {}), 2, 0.0, 1000});
  const sched::BatchResult batch = sched::run_batch(g, jobs, {});
  EXPECT_DOUBLE_EQ(batch.jobs[0].estimate,
                   static_cast<double>(g.num_vertices()));
}

TEST(Sched, AdaptiveStopsWithinCapAndTracksExact) {
  const Graph g = largest_component(erdos_renyi_gnm(40, 80, 13));
  std::vector<sched::BatchJob> jobs;
  for (const TreeTemplate& tree : all_free_trees(4)) {
    sched::BatchJob job;
    job.tmpl = tree;
    job.target_relative_stderr = 0.05;
    job.max_iterations = 600;
    jobs.push_back(std::move(job));
  }
  sched::BatchOptions options;
  options.mode = ParallelMode::kSerial;
  options.round_iterations = 16;
  options.seed = 3;
  const sched::BatchResult batch = sched::run_batch(g, jobs, options);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const sched::BatchJobResult& job = batch.jobs[j];
    EXPECT_TRUE(job.adaptive);
    EXPECT_LE(job.iterations, 600);
    EXPECT_GE(job.iterations, 2);
    if (job.converged) {
      EXPECT_LE(job.relative_stderr, 0.05);
    } else {
      EXPECT_EQ(job.iterations, 600);
    }
    const double exact = exact::count_embeddings(g, jobs[j].tmpl);
    EXPECT_NEAR(job.estimate, exact, exact * 0.25 + 1.0) << "job " << j;
  }
}

TEST(Sched, AdaptiveLooseTargetRetiresEarly) {
  const Graph g = test_graph();
  std::vector<sched::BatchJob> jobs;
  sched::BatchJob job;
  job.tmpl = TreeTemplate::path(4);
  job.target_relative_stderr = 0.9;  // any 2+ iterations satisfy this
  job.max_iterations = 500;
  jobs.push_back(std::move(job));
  sched::BatchOptions options;
  options.round_iterations = 4;
  const sched::BatchResult batch = sched::run_batch(g, jobs, options);
  EXPECT_TRUE(batch.jobs[0].converged);
  EXPECT_LT(batch.jobs[0].iterations, 500);
}

TEST(Sched, AdaptiveBatchSingleJobMatchesUniform) {
  // With one adaptive job the greedy controller has nobody to steal
  // from or donate to: grants land on the same global coloring rounds
  // the uniform allocation would run, so the sample stream — and every
  // per-iteration estimate — must match bit for bit.
  const Graph g = largest_component(erdos_renyi_gnm(40, 80, 13));
  std::vector<sched::BatchJob> jobs;
  sched::BatchJob job;
  job.tmpl = TreeTemplate::path(4);
  job.target_relative_stderr = 0.05;
  job.max_iterations = 600;
  jobs.push_back(std::move(job));
  sched::BatchOptions uniform;
  uniform.mode = ParallelMode::kSerial;
  uniform.round_iterations = 16;
  uniform.seed = 3;
  sched::BatchOptions greedy = uniform;
  greedy.adaptive_batch = true;

  const sched::BatchResult a = sched::run_batch(g, jobs, uniform);
  const sched::BatchResult b = sched::run_batch(g, jobs, greedy);
  EXPECT_EQ(a.jobs[0].converged, b.jobs[0].converged);
  EXPECT_EQ(a.jobs[0].per_iteration, b.jobs[0].per_iteration);
  EXPECT_EQ(a.jobs[0].estimate, b.jobs[0].estimate);
}

TEST(Sched, AdaptiveBatchReallocatesBudgetToHardJob) {
  // Motivo-style cross-template reallocation: an easy job (loose
  // target) converges in its warm-up round and donates its unused
  // budget to the pool; a hard job (unreachable target) then draws
  // grants PAST its own max_iterations.  Fixed-budget jobs ride the
  // same shared colorings either way and must stay bit-identical to
  // the uniform run.
  const Graph g = test_graph();
  std::vector<sched::BatchJob> jobs;
  sched::BatchJob easy;
  easy.tmpl = TreeTemplate::path(4);
  easy.target_relative_stderr = 0.9;  // any 2+ iterations satisfy this
  easy.max_iterations = 400;
  jobs.push_back(std::move(easy));
  sched::BatchJob hard;
  hard.tmpl = TreeTemplate::star(4);
  hard.target_relative_stderr = 1e-9;  // unreachable on purpose
  hard.max_iterations = 12;
  jobs.push_back(std::move(hard));
  sched::BatchJob fixed;
  fixed.tmpl = TreeTemplate::path(3);
  fixed.iterations = 10;
  jobs.push_back(std::move(fixed));

  sched::BatchOptions uniform;
  uniform.mode = ParallelMode::kSerial;
  uniform.round_iterations = 8;
  uniform.seed = 11;
  sched::BatchOptions greedy = uniform;
  greedy.adaptive_batch = true;

  const sched::BatchResult base = sched::run_batch(g, jobs, uniform);
  const sched::BatchResult pooled = sched::run_batch(g, jobs, greedy);

  EXPECT_TRUE(pooled.jobs[0].converged);
  // Uniform honors the per-job cap; greedy spends the pooled budget on
  // the worst job instead.
  EXPECT_LE(base.jobs[1].iterations, 12);
  EXPECT_GT(pooled.jobs[1].iterations, 12);
  EXPECT_FALSE(pooled.jobs[1].converged);
  // The fixed job is untouched by the controller mode.
  EXPECT_EQ(base.jobs[2].iterations, 10);
  EXPECT_EQ(pooled.jobs[2].iterations, 10);
  EXPECT_EQ(base.jobs[2].per_iteration, pooled.jobs[2].per_iteration);
}

TEST(Sched, AdaptiveBatchRejectsCheckpointing) {
  // Greedy grants decouple per-job sample streams from the global
  // coloring counter that the checkpoint format indexes by.
  const Graph g = test_graph();
  std::vector<sched::BatchJob> jobs;
  sched::BatchJob job;
  job.tmpl = TreeTemplate::path(4);
  job.target_relative_stderr = 0.1;
  job.max_iterations = 100;
  jobs.push_back(std::move(job));
  sched::BatchOptions options;
  options.adaptive_batch = true;
  options.run.checkpoint_path = "unused.ckpt";
  EXPECT_THROW(sched::run_batch(g, jobs, options), fascia::Error);
}

TEST(Sched, EntryPointsLeaveTheCallersThreadCountAlone) {
#ifndef _OPENMP
  GTEST_SKIP() << "built without OpenMP";
#else
  // A service worker runs job after job on one thread.  If an entry
  // point changed that thread's default team size (nthreads-var), the
  // next job asking for the default would sweep on whatever thread
  // count the previous job requested.
  const Graph g = test_graph();
  int base = 0;
  std::vector<std::pair<std::string, int>> after;
  std::thread worker([&] {
    base = omp_get_max_threads();
    const int requested = base + 1;

    sched::BatchOptions batch;
    batch.mode = ParallelMode::kInnerLoop;
    batch.num_threads = requested;
    (void)sched::run_batch(g, fixed_jobs(4, 2), batch);
    after.emplace_back("run_batch", omp_get_max_threads());

    CountOptions options;
    options.sampling.iterations = 2;
    options.execution.mode = ParallelMode::kInnerLoop;
    options.execution.threads = requested;
    (void)count_template(g, TreeTemplate::path(4), options);
    after.emplace_back("count_template", omp_get_max_threads());

    (void)count_mixed_template(
        g, MixedTemplate::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}}),
        options);
    after.emplace_back("count_mixed_template", omp_get_max_threads());
  });
  worker.join();
  ASSERT_EQ(after.size(), 3u);
  for (const auto& [entry_point, threads] : after) {
    EXPECT_EQ(threads, base) << entry_point;
  }
#endif
}

TEST(Sched, ValidationErrors) {
  const Graph g = test_graph();
  EXPECT_THROW(sched::run_batch(g, {}, {}), fascia::Error);

  std::vector<sched::BatchJob> jobs;
  jobs.push_back({TreeTemplate::path(5), 2, 0.0, 1000});
  sched::BatchOptions narrow;
  narrow.num_colors = 4;  // smaller than the template
  EXPECT_THROW(sched::run_batch(g, jobs, narrow), fascia::Error);

  jobs[0].iterations = 0;
  EXPECT_THROW(sched::run_batch(g, jobs, {}), fascia::Error);

  jobs[0].target_relative_stderr = 0.1;
  jobs[0].max_iterations = 1;
  EXPECT_THROW(sched::run_batch(g, jobs, {}), fascia::Error);
}

TEST(Sched, MotifProfileMatchesSharedSeedPath) {
  const Graph g = test_graph();
  CountOptions options;
  options.sampling.iterations = 3;
  options.sampling.seed = 31;
  options.execution.mode = ParallelMode::kSerial;
  const MotifProfile profile = count_all_treelets(g, 5, options);
  ASSERT_EQ(profile.counts.size(), 3u);
  ASSERT_EQ(profile.iterations.size(), 3u);
  ASSERT_EQ(profile.seconds.size(), 3u);
  for (std::size_t i = 0; i < profile.trees.size(); ++i) {
    const CountResult ref = reference(g, profile.trees[i], 3, 31, 5);
    EXPECT_EQ(profile.counts[i], ref.estimate) << "shape " << i;
    EXPECT_EQ(profile.iterations[i], 3);
  }
}

// ---- sharing-aware planning ----------------------------------------------

Graph power_law_graph() {
  static const Graph g = largest_component(chung_lu(400, 1600, 2.3, 40, 3));
  return g;
}

/// The plan the search starts from: default roots, input order.
sched::BatchPlan default_plan(const Graph& g,
                              const std::vector<sched::BatchJob>& jobs,
                              const sched::BatchOptions& options) {
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) order[j] = j;
  return sched::merge_plan(g, jobs, options,
                           std::vector<int>(jobs.size(), -1), order);
}

TEST(Sched, RerootedJobsMatchCountTemplateBitForBit) {
  // The planner roots most motif templates away from their default
  // leaf; exact root sums keep every job on count_template's bits.
  const Graph g = power_law_graph();
  for (const int k : {6, 7, 8}) {
    const auto jobs = fixed_jobs(k, 2);
    sched::BatchOptions options;
    options.seed = 19;
    options.mode = ParallelMode::kSerial;
    const sched::BatchPlan plan = sched::plan_batch(g, jobs, options);
    EXPECT_GT(std::count_if(plan.job_partition_root.begin(),
                            plan.job_partition_root.end(),
                            [](int root) { return root >= 0; }),
              0)
        << "k=" << k;
    const sched::BatchResult batch = sched::run_batch(g, jobs, options);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const CountResult ref = reference(g, jobs[j].tmpl, 2, 19, k);
      EXPECT_EQ(batch.jobs[j].per_iteration, ref.per_iteration)
          << "k=" << k << " job " << j;
      EXPECT_TRUE(batch.jobs[j].exact) << "k=" << k << " job " << j;
    }
  }
}

TEST(Sched, OddProfileFullJoinsKeepTheirBits) {
  // At k = 7 five of the profile's roots are general joins over every
  // color (3 + 4 halves): their totals come from per-edge dots over all
  // directed edges, with no root rows committed.  The per-iteration
  // estimates are pinned to the values the row-committing kernel gave.
  const Graph g = power_law_graph();
  const auto jobs = fixed_jobs(7, 3);
  sched::BatchOptions options;
  options.seed = 43;
  options.mode = ParallelMode::kOuterLoop;
  options.num_threads = 4;
  const sched::BatchPlan plan = sched::plan_batch(g, jobs, options);
  int full_joins = 0;
  for (int i = 0; i < plan.merged.num_nodes(); ++i) {
    const Subtemplate& node = plan.merged.node(i);
    if (node.is_leaf() || node.size() != 7) continue;
    if (plan.merged.node(node.active).size() > 1 &&
        plan.merged.node(node.passive).size() > 1) {
      ++full_joins;
    }
  }
  EXPECT_EQ(full_joins, 5);
  const std::vector<std::vector<double>> pinned = {
      {0x1.adcbb7ac305bp+30, 0x1.a744be27c71c6p+30, 0x1.f03457ebeeeeep+30},
      {0x1.2ca7cdc1782d8p+31, 0x1.11fd6d6edbbbbp+31, 0x1.3f98d3e500b6p+31},
      {0x1.615954535ddddp+30, 0x1.4a51257151111p+30, 0x1.7ca389609c71cp+30},
      {0x1.57d9d60db60b6p+32, 0x1.43bfb8ddaf49fp+32, 0x1.794171a65b60bp+32},
      {0x1.f171a6d649f49p+29, 0x1.e1996b6f93e93p+29, 0x1.1b9d5e5e305bp+30},
      {0x1.b6bb0d7c57777p+31, 0x1.91ee0a8465b05p+31, 0x1.db4cf3f428888p+31},
      {0x1.191d62f1b05bp+27, 0x1.a133df005b05ap+26, 0x1.00a5f58a44443p+27},
      {0x1.861b32271a4fap+31, 0x1.763698d980b6p+31, 0x1.b3de6f28a38e3p+31},
      {0x1.7d66ace24ffffp+32, 0x1.6fde64f3beeeep+32, 0x1.ad1dd25e52221p+32},
      {0x1.7dc847e47bbbbp+30, 0x1.413375e1582d8p+30, 0x1.810ccba00fa4fp+30},
      {0x1.0d6e98347a4fap+31, 0x1.e186243409f49p+30, 0x1.1b8650c4f27d2p+31},
  };
  const sched::BatchResult batch = sched::run_batch(g, jobs, options);
  ASSERT_EQ(batch.jobs.size(), pinned.size());
  for (std::size_t j = 0; j < pinned.size(); ++j) {
    EXPECT_EQ(batch.jobs[j].per_iteration, pinned[j]) << "job " << j;
    EXPECT_TRUE(batch.jobs[j].exact) << "job " << j;
  }
}

TEST(Sched, MotifProfilePlanSharesMoreStages) {
  const auto jobs = fixed_jobs(7, 1);
  const sched::BatchOptions options;
  const sched::BatchPlan chosen =
      sched::plan_batch(test_graph(), jobs, options);
  const sched::BatchPlan fallback = default_plan(test_graph(), jobs, options);
  EXPECT_LE(chosen.unique_stages, 27u);
  EXPECT_LT(chosen.unique_stages, fallback.unique_stages);
  EXPECT_LT(chosen.total_stage_instances, fallback.total_stage_instances);
}

TEST(Sched, PlanIsDeterministicAndJobOrderFree) {
  const Graph g = power_law_graph();
  auto jobs = fixed_jobs(7, 2);
  sched::BatchOptions options;
  options.seed = 3;
  const sched::BatchPlan first = sched::plan_batch(g, jobs, options);
  const sched::BatchPlan second = sched::plan_batch(g, jobs, options);
  EXPECT_EQ(first.job_root, second.job_root);
  EXPECT_EQ(first.job_partition_root, second.job_partition_root);
  ASSERT_EQ(first.merged.num_nodes(), second.merged.num_nodes());
  for (int i = 0; i < first.merged.num_nodes(); ++i) {
    EXPECT_EQ(first.merged.node(i).canon, second.merged.node(i).canon);
  }

  const sched::BatchResult forward = sched::run_batch(g, jobs, options);
  std::reverse(jobs.begin(), jobs.end());
  const sched::BatchResult backward = sched::run_batch(g, jobs, options);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::size_t mirror = jobs.size() - 1 - j;
    EXPECT_EQ(backward.jobs[j].per_iteration,
              forward.jobs[mirror].per_iteration)
        << "job " << mirror;
  }
}

TEST(Sched, ChosenPlanPeakNeverAboveDefault) {
  const Graph g = power_law_graph();
  for (int k = 5; k <= 9; ++k) {
    const auto jobs = fixed_jobs(k, 1);
    const sched::BatchOptions options;
    const auto peak = [&](const sched::BatchPlan& plan) {
      return run::estimate_peak_bytes(plan.merged, k, g.num_vertices(),
                                      options.table, false);
    };
    EXPECT_LE(peak(sched::plan_batch(g, jobs, options)),
              peak(default_plan(g, jobs, options)))
        << "k=" << k;
  }
}

TEST(Sched, SearchOnlyRunsOnSharedMultiJobPlans) {
  const auto jobs = fixed_jobs(7, 1);
  sched::BatchOptions options;
  // A caller's root pins every job.
  EXPECT_EQ(sched::plan_batch(test_graph(), jobs, options, 0)
                .job_partition_root,
            std::vector<int>(jobs.size(), 0));
  // One-job plans with a pinned strategy keep the partitioner's
  // default (unpinned ones follow the one-job rule, tested below).
  const std::vector<sched::BatchJob> one(jobs.begin(), jobs.begin() + 1);
  options.partition = PartitionStrategy::kOneAtATime;
  EXPECT_EQ(sched::plan_batch(test_graph(), one, options).job_partition_root,
            std::vector<int>{-1});
  options.partition.reset();
  // Without cross-template reuse there is nothing to share.
  options.cross_template_reuse = false;
  EXPECT_EQ(sched::plan_batch(test_graph(), jobs, options).job_partition_root,
            std::vector<int>(jobs.size(), -1));
}

// ---- one-job plans ---------------------------------------------------------

/// The one-job plan count_template builds for `tree`.
sched::BatchPlan tree_count_plan(const Graph& g, const TreeTemplate& tree,
                                 const CountOptions& options = {}) {
  return detail::plan_tree_count(g, tree, options);
}

/// run::estimate_peak_bytes of one partition on `g`.
std::size_t modeled_peak(const Graph& g, const PartitionTree& partition,
                         int k) {
  return run::estimate_peak_bytes(partition, k, g.num_vertices(),
                                  TableKind::kCompact, g.has_labels());
}

TEST(Sched, OneJobPlanCutsU10OneAtItsCentre) {
  // Both halves of a balanced cut at the centre are the same rooted
  // 5-path, so table sharing leaves 5 stages instead of 9.
  const Graph g = power_law_graph();
  const sched::BatchPlan plan =
      tree_count_plan(g, catalog_entry("U10-1").tree);
  ASSERT_TRUE(plan.partition_choice.has_value());
  const sched::PartitionChoice& choice = *plan.partition_choice;
  EXPECT_EQ(choice.strategy, PartitionStrategy::kBalanced);
  EXPECT_TRUE(choice.root == 4 || choice.root == 5) << choice.root;
  EXPECT_EQ(choice.stages, 5u);
  EXPECT_EQ(choice.default_stages, 9u);
  EXPECT_LT(choice.modeled_peak_bytes, choice.default_modeled_peak_bytes);
  EXPECT_EQ(plan.job_partition_strategy,
            std::vector<PartitionStrategy>{PartitionStrategy::kBalanced});
  EXPECT_EQ(plan.unique_stages, 5u);
  EXPECT_EQ(plan.merged.template_root(), choice.root);
  EXPECT_FALSE(choice.strategy_pinned);
  EXPECT_FALSE(choice.root_pinned);
}

TEST(Sched, OneJobPlanPeakNeverAboveDefault) {
  // Every catalog tree and every free tree up to k = 10, unlabeled and
  // labeled: the choice's figures are those of the tree it
  // materializes, and its modeled peak is at most the default's.
  std::vector<TreeTemplate> trees;
  for (const CatalogEntry& entry : template_catalog()) {
    if (!entry.is_triangle) trees.push_back(entry.tree);
  }
  for (int k = 2; k <= 10; ++k) {
    for (TreeTemplate& tree : all_free_trees(k)) trees.push_back(tree);
  }
  const Graph unlabeled = power_law_graph();
  Graph labeled = unlabeled;
  assign_random_labels(labeled, 3, 9);
  for (const bool with_labels : {false, true}) {
    const Graph& g = with_labels ? labeled : unlabeled;
    std::size_t improved = 0;
    for (TreeTemplate tree : trees) {
      if (with_labels) {
        std::vector<std::uint8_t> labels;
        for (int v = 0; v < tree.size(); ++v) {
          labels.push_back(static_cast<std::uint8_t>(v % 3));
        }
        tree.set_labels(labels);
      }
      const int k = tree.size();
      const sched::BatchPlan plan = tree_count_plan(g, tree);
      ASSERT_TRUE(plan.partition_choice.has_value());
      const sched::PartitionChoice& choice = *plan.partition_choice;
      const PartitionTree fallback =
          partition_template(tree, PartitionStrategy::kOneAtATime);
      const std::size_t planned = modeled_peak(g, plan.merged, k);
      const std::size_t base = modeled_peak(g, fallback, k);
      EXPECT_LE(planned, base) << tree.describe();
      EXPECT_EQ(choice.modeled_peak_bytes, planned) << tree.describe();
      EXPECT_EQ(choice.default_modeled_peak_bytes, base) << tree.describe();
      EXPECT_EQ(choice.stages, plan.unique_stages) << tree.describe();
      EXPECT_LE(choice.stages, choice.default_stages) << tree.describe();
      EXPECT_EQ(plan.merged.template_root(), choice.root) << tree.describe();
      if (choice.stages < choice.default_stages) ++improved;
    }
    EXPECT_GT(improved, 0u) << "labeled=" << with_labels;
  }
}

TEST(Sched, PinnedStrategyOrRootIsHonoured) {
  const Graph g = power_law_graph();
  const TreeTemplate& u10 = catalog_entry("U10-1").tree;

  // A pinned strategy is today's plan: that strategy at its default.
  CountOptions oaat;
  oaat.execution.partition = PartitionStrategy::kOneAtATime;
  const sched::BatchPlan pinned = tree_count_plan(g, u10, oaat);
  EXPECT_EQ(pinned.job_partition_strategy.front(),
            PartitionStrategy::kOneAtATime);
  EXPECT_EQ(pinned.job_partition_root.front(), -1);
  EXPECT_EQ(pinned.merged.template_root(),
            default_root(u10, PartitionStrategy::kOneAtATime));
  EXPECT_EQ(pinned.unique_stages, 9u);
  EXPECT_TRUE(pinned.partition_choice->strategy_pinned);

  // A pinned root: both strategies, at that root only.
  CountOptions rooted;
  rooted.root = 2;
  const sched::BatchPlan at_two = tree_count_plan(g, u10, rooted);
  EXPECT_EQ(at_two.merged.template_root(), 2);
  EXPECT_EQ(at_two.job_partition_root.front(), 2);
  EXPECT_TRUE(at_two.partition_choice->root_pinned);
  EXPECT_FALSE(at_two.partition_choice->strategy_pinned);

  // Graphlet degrees root the template at the orbit vertex.
  const TreeTemplate& u52 = catalog_entry("U5-2").tree;
  const int orbit = u52_central_vertex();
  CountOptions gdd;
  gdd.sampling.iterations = 1;
  gdd.execution.mode = ParallelMode::kSerial;
  const CountResult degrees = graphlet_degrees(g, u52, orbit, gdd);
  ASSERT_TRUE(degrees.report->choices.partition.has_value());
  EXPECT_EQ(degrees.report->choices.partition->root, orbit);
  EXPECT_EQ(degrees.report->tmpl.root, orbit);
  EXPECT_EQ(degrees.report->choices.partition->pinned,
            std::vector<std::string>{"root"});

  // Per-vertex counts without a root keep the default root's role.
  CountOptions per_vertex;
  per_vertex.per_vertex = true;
  EXPECT_EQ(tree_count_plan(g, u10, per_vertex).merged.template_root(),
            default_root(u10, PartitionStrategy::kOneAtATime));
}

}  // namespace
}  // namespace fascia
