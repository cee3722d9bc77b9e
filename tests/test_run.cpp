// Resilient run layer: guard semantics, memory planning, checkpoint
// format, and (in FASCIA_FAULT_INJECTION builds) crash/alloc-failure
// recovery.  The acceptance bar throughout is *bit-identical* resumed
// estimates — colorings are counter-mode in (seed, iteration), so a
// resumed run must reproduce the uninterrupted one exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/counter.hpp"
#include "core/incremental.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "helpers.hpp"
#include "run/checkpoint.hpp"
#include "run/controls.hpp"
#include "run/guard.hpp"
#include "run/memory.hpp"
#include "run/spill.hpp"
#include "sched/batch.hpp"
#include "sched/plan.hpp"
#include "treelet/catalog.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace fascia {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

Graph test_graph() { return testing::complete_graph(9); }

CountOptions base_options() {
  CountOptions options;
  options.sampling.iterations = 10;
  options.execution.mode = ParallelMode::kSerial;
  options.sampling.seed = 123;
  return options;
}

// ---- RunGuard ------------------------------------------------------------

TEST(RunGuard, InertControlsNeverTrip) {
  const RunControls controls;
  EXPECT_FALSE(controls.active());
  const RunGuard guard(controls);
  EXPECT_FALSE(guard.poll());
  EXPECT_FALSE(guard.stopped());
}

TEST(RunGuard, CancelFlagLatchesCancelled) {
  std::atomic<bool> cancel{true};
  RunControls controls;
  controls.cancel = &cancel;
  EXPECT_TRUE(controls.active());
  const RunGuard guard(controls);
  EXPECT_TRUE(guard.poll());
  EXPECT_TRUE(guard.stopped());
  EXPECT_EQ(guard.status(), RunStatus::kCancelled);
}

TEST(RunGuard, TinyDeadlineTrips) {
  RunControls controls;
  controls.deadline_seconds = 1e-9;
  const RunGuard guard(controls);
  EXPECT_TRUE(guard.poll());
  EXPECT_EQ(guard.status(), RunStatus::kDeadline);
}

TEST(RunGuard, FirstStopReasonWins) {
  const RunControls controls;
  const RunGuard guard(controls);
  guard.stop(RunStatus::kDeadline);
  guard.stop(RunStatus::kCancelled);  // late; must not overwrite
  EXPECT_EQ(guard.status(), RunStatus::kDeadline);
}

TEST(RunStatusName, NamesAreStable) {
  EXPECT_STREQ(run_status_name(RunStatus::kCompleted), "completed");
  EXPECT_STREQ(run_status_name(RunStatus::kDeadline), "deadline");
  EXPECT_STREQ(run_status_name(RunStatus::kCancelled), "cancelled");
  EXPECT_STREQ(run_status_name(RunStatus::kMemDegraded), "mem-degraded");
}

// ---- memory planning -----------------------------------------------------

TEST(MemoryPlan, ZeroBudgetDisablesPlanning) {
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  const auto part =
      partition_template(tree, PartitionStrategy::kOneAtATime, true);
  const auto plan =
      run::plan_memory(part, 5, 1000, false, TableKind::kNaive, 4, 0);
  EXPECT_EQ(plan.table, TableKind::kNaive);
  EXPECT_EQ(plan.engine_copies, 4);
  EXPECT_TRUE(plan.fits);
  EXPECT_TRUE(plan.degradations.empty());
}

TEST(MemoryPlan, LadderDegradesNaiveUnderTightBudget) {
  const TreeTemplate& tree = catalog_entry("U7-1").tree;
  const auto part =
      partition_template(tree, PartitionStrategy::kOneAtATime, true);
  const VertexId n = 100000;
  const auto naive = run::estimate_peak_bytes(part, 7, n, TableKind::kNaive,
                                              false);
  const auto compact = run::estimate_peak_bytes(part, 7, n,
                                                TableKind::kCompact, false);
  ASSERT_LT(compact, naive);
  // A budget below naive's estimate but at/above compact's must step
  // the ladder down without losing the single-copy configuration.
  const auto plan = run::plan_memory(part, 7, n, false, TableKind::kNaive, 1,
                                     (naive + compact) / 2);
  EXPECT_NE(plan.table, TableKind::kNaive);
  EXPECT_TRUE(plan.fits);
  EXPECT_FALSE(plan.degradations.empty());
  EXPECT_LE(plan.estimated_peak_bytes, (naive + compact) / 2);
}

TEST(MemoryPlan, EngineCopiesReducedBeforeGivingUp) {
  const TreeTemplate& tree = catalog_entry("U7-1").tree;
  const auto part =
      partition_template(tree, PartitionStrategy::kOneAtATime, true);
  const VertexId n = 100000;
  const auto naive = run::estimate_peak_bytes(part, 7, n, TableKind::kNaive,
                                              false);
  // Eight naive copies cannot fit in one naive copy's budget; the
  // ladder must shed copies (and possibly the layout) until it fits.
  const auto plan =
      run::plan_memory(part, 7, n, false, TableKind::kNaive, 8, naive);
  EXPECT_TRUE(plan.fits);
  EXPECT_LT(plan.engine_copies, 8);
  EXPECT_FALSE(plan.degradations.empty());
}

TEST(MemoryPlan, WorkspaceBytesScaleWithSweepThreads) {
  const TreeTemplate& tree = catalog_entry("U7-1").tree;
  const auto part =
      partition_template(tree, PartitionStrategy::kOneAtATime, true);
  EXPECT_GT(run::estimate_workspace_bytes(part, 7), 0u);
  const VertexId n = 50000;
  const auto one = run::plan_memory(part, 7, n, false, TableKind::kCompact,
                                    1, 0, /*threads_per_copy=*/1);
  const auto eight = run::plan_memory(part, 7, n, false, TableKind::kCompact,
                                      1, 0, /*threads_per_copy=*/8);
  EXPECT_GT(eight.estimated_peak_bytes, one.estimated_peak_bytes);
  EXPECT_EQ(eight.estimated_peak_bytes - one.estimated_peak_bytes,
            7 * run::estimate_workspace_bytes(part, 7));
  // Outer copies multiply the whole per-copy footprint, workspaces
  // included: 4 copies x 1 thread must model more than 1 x 4 when the
  // tables dominate.
  const auto outer4 = run::plan_memory(part, 7, n, false, TableKind::kCompact,
                                       4, 0, /*threads_per_copy=*/1);
  EXPECT_GT(outer4.estimated_peak_bytes, eight.estimated_peak_bytes);
}

TEST(MemoryPlan, EstimateCoversMeasuredNaivePeak) {
  // Naive tables have a closed-form size, so the planning estimate must
  // bracket the MemTracker-measured table peak of a real run: at least
  // the measured bytes (workspaces and frontiers only add), and within
  // a small factor of them (the free_after schedule is the same one the
  // engine executes).
  const Graph g = erdos_renyi_gnm(2000, 6000, 7);
  const TreeTemplate& tree = catalog_entry("U7-1").tree;
  const auto part =
      partition_template(tree, PartitionStrategy::kOneAtATime, true);
  const auto plan = run::plan_memory(part, 7, g.num_vertices(), false,
                                     TableKind::kNaive, 1, 0, 1);
  CountOptions options = base_options();
  options.sampling.iterations = 2;
  options.execution.table = TableKind::kNaive;
  const CountResult result = count_template(g, tree, options);
  ASSERT_GT(result.peak_table_bytes, 0u);
  EXPECT_GE(plan.estimated_peak_bytes, result.peak_table_bytes);
  EXPECT_LE(plan.estimated_peak_bytes, 3 * result.peak_table_bytes);
}

TEST(MemoryPlan, EstimateWithinProcessHighWaterRss) {
  // The modeled peak is a *planning* figure; sanity-check it against
  // the OS's view where /proc is available: real table allocations are
  // touched pages, so the process high-water RSS must be at least the
  // MemTracker peak, and the estimate must not exceed the whole
  // process footprint (generous bound — gtest and the graph also
  // occupy RSS).
  std::ifstream status("/proc/self/status");
  if (!status.is_open()) GTEST_SKIP() << "/proc/self/status not available";

  const Graph g = erdos_renyi_gnm(4000, 16000, 11);
  const TreeTemplate& tree = catalog_entry("U7-1").tree;
  CountOptions options = base_options();
  options.sampling.iterations = 2;
  options.execution.table = TableKind::kNaive;
  const CountResult result = count_template(g, tree, options);

  std::size_t hwm_kib = 0;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      hwm_kib = static_cast<std::size_t>(
          std::strtoull(line.c_str() + 6, nullptr, 10));
      break;
    }
  }
  if (hwm_kib == 0) GTEST_SKIP() << "VmHWM not reported";
  const std::size_t hwm_bytes = hwm_kib * 1024;
  EXPECT_GE(hwm_bytes, result.peak_table_bytes);
  ASSERT_GT(result.run.requested_iterations, 0);
  const auto part =
      partition_template(tree, PartitionStrategy::kOneAtATime, true);
  const auto plan = run::plan_memory(part, 7, g.num_vertices(), false,
                                     TableKind::kNaive, 1, 0, 1);
  EXPECT_LE(plan.estimated_peak_bytes, hwm_bytes);
}

TEST(MemoryPlan, ImpossibleBudgetReportsNotFitting) {
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  const auto part =
      partition_template(tree, PartitionStrategy::kOneAtATime, true);
  const auto plan =
      run::plan_memory(part, 5, 100000, false, TableKind::kCompact, 1, 16);
  EXPECT_FALSE(plan.fits);
  EXPECT_FALSE(plan.degradations.empty());
}

TEST(MemoryPlan, SuccinctRungBetweenCompactAndHash) {
  const TreeTemplate& tree = catalog_entry("U7-1").tree;
  const auto part =
      partition_template(tree, PartitionStrategy::kOneAtATime, true);
  const VertexId n = 100000;
  const auto compact = run::estimate_peak_bytes(part, 7, n,
                                                TableKind::kCompact, false);
  const auto succinct = run::estimate_peak_bytes(part, 7, n,
                                                 TableKind::kSuccinct, false);
  ASSERT_LT(succinct, compact);
  // Between the two estimates the ladder must stop on succinct — not
  // jump past it to hash (modeled larger on unselective instances) or
  // report not fitting.
  const auto plan = run::plan_memory(part, 7, n, false, TableKind::kCompact,
                                     1, (compact + succinct) / 2);
  EXPECT_EQ(plan.table, TableKind::kSuccinct);
  EXPECT_TRUE(plan.fits);
  EXPECT_FALSE(plan.spill);
  EXPECT_FALSE(plan.degradations.empty());
}

TEST(MemoryPlan, HashIsNotALadderRung) {
  // A labeled partition, where hash models smaller than succinct: a
  // budget between the two plans' estimates must not step onto hash.
  // The ladder takes its next rung (here out-of-core paging) instead;
  // hash is used only when requested.
  TreeTemplate tree = TreeTemplate::path(5);
  tree.set_labels({0, 1, 2, 1, 0});
  const auto part =
      partition_template(tree, PartitionStrategy::kOneAtATime, true);
  const VertexId n = 100000;
  const auto estimate = [&](TableKind kind) {
    return run::plan_memory(part, 5, n, true, kind, 1, 0, 1)
        .estimated_peak_bytes;
  };
  const std::size_t hash = estimate(TableKind::kHash);
  const std::size_t succinct = estimate(TableKind::kSuccinct);
  ASSERT_LT(hash, succinct);
  const std::size_t budget = (hash + succinct) / 2;
  for (const TableKind requested :
       {TableKind::kNaive, TableKind::kCompact, TableKind::kSuccinct}) {
    const auto plan = run::plan_memory(part, 5, n, true, requested, 1,
                                       budget, 1, /*spill_available=*/true);
    EXPECT_NE(plan.table, TableKind::kHash) << table_kind_name(requested);
    EXPECT_TRUE(plan.spill) << table_kind_name(requested);
  }
  const auto asked = run::plan_memory(part, 5, n, true, TableKind::kHash, 1,
                                      budget, 1, /*spill_available=*/true);
  EXPECT_EQ(asked.table, TableKind::kHash);
  EXPECT_FALSE(asked.spill);
  EXPECT_TRUE(asked.fits);
  EXPECT_TRUE(asked.degradations.empty());
}

TEST(MemoryPlan, SuccinctEstimateBracketsMeasuredPeak) {
  // Unlike naive's closed form, succinct bytes depend on run-time slot
  // occupancy (and slab rounding), so the contract is a factor
  // bracket: the planning estimate must land within 4x of the
  // MemTracker-measured table peak of a real run in either direction,
  // and stay below the dense model it degrades from.
  const Graph g = erdos_renyi_gnm(2000, 6000, 7);
  const TreeTemplate& tree = catalog_entry("U7-1").tree;
  const auto part =
      partition_template(tree, PartitionStrategy::kOneAtATime, true);
  const auto plan = run::plan_memory(part, 7, g.num_vertices(), false,
                                     TableKind::kSuccinct, 1, 0, 1);
  const auto naive = run::estimate_peak_bytes(part, 7, g.num_vertices(),
                                              TableKind::kNaive, false);
  CountOptions options = base_options();
  options.sampling.iterations = 2;
  options.execution.table = TableKind::kSuccinct;
  const CountResult result = count_template(g, tree, options);
  ASSERT_GT(result.peak_table_bytes, 0u);
  EXPECT_GE(4 * plan.estimated_peak_bytes, result.peak_table_bytes);
  EXPECT_LE(plan.estimated_peak_bytes, 4 * result.peak_table_bytes);
  EXPECT_LT(run::estimate_peak_bytes(part, 7, g.num_vertices(),
                                     TableKind::kSuccinct, false),
            naive);
}

TEST(MemoryPlan, SpillRungArmsOnlyWithDirectory) {
  // A budget below every in-memory layout but above the paged working
  // set: without a spill directory the plan honestly reports not
  // fitting; with one it takes the out-of-core rung and fits.  A
  // single template's one-at-a-time schedule already frees everything
  // outside the active triple, so this needs a merged multi-template
  // partition — the case paging exists for.
  const Graph g = erdos_renyi_gnm(2000, 6000, 7);
  std::vector<sched::BatchJob> jobs;
  for (TreeTemplate t : {TreeTemplate::path(10), TreeTemplate::star(10)}) {
    sched::BatchJob job;
    job.tmpl = std::move(t);
    job.iterations = 2;
    jobs.push_back(std::move(job));
  }
  const sched::BatchPlan plan = sched::plan_batch(g, jobs, {});
  const int k = plan.num_colors;
  const VertexId n = g.num_vertices();
  const auto succinct = run::estimate_peak_bytes(plan.merged, k, n,
                                                 TableKind::kSuccinct, false);
  const auto working = run::estimate_spill_working_set_bytes(
      plan.merged, k, n, TableKind::kSuccinct, false);
  ASSERT_LT(working, succinct);
  const std::size_t budget = (working + succinct) / 2;

  const auto no_spill = run::plan_memory(plan.merged, k, n, false,
                                         TableKind::kCompact, 1, budget, 1,
                                         /*spill_available=*/false);
  EXPECT_FALSE(no_spill.fits);
  EXPECT_FALSE(no_spill.spill);

  const auto paged = run::plan_memory(plan.merged, k, n, false,
                                      TableKind::kCompact, 1, budget, 1,
                                      /*spill_available=*/true);
  EXPECT_TRUE(paged.spill);
  EXPECT_TRUE(paged.fits);
  EXPECT_EQ(paged.table, TableKind::kSuccinct);
  EXPECT_LE(paged.estimated_peak_bytes, budget);
}

// ---- checkpoint file format ----------------------------------------------

TEST(Checkpoint, SaveLoadRoundTrip) {
  const std::string path = temp_path("fascia_ckpt_roundtrip.bin");
  run::Checkpoint out;
  out.kind = run::Checkpoint::kKindCount;
  out.seed = 7;
  out.num_colors = 5;
  out.fingerprint = 0xabcdef;
  out.iterations_done = 3;
  out.per_job = {{1.5, -2.25, 3.0}, {0.0, 42.0}};
  run::save_checkpoint(path, out);

  std::string why;
  const auto in = run::load_checkpoint(path, &why);
  ASSERT_TRUE(in.has_value()) << why;
  EXPECT_EQ(in->kind, out.kind);
  EXPECT_EQ(in->seed, out.seed);
  EXPECT_EQ(in->num_colors, out.num_colors);
  EXPECT_EQ(in->fingerprint, out.fingerprint);
  EXPECT_EQ(in->iterations_done, out.iterations_done);
  EXPECT_EQ(in->per_job, out.per_job);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileReturnsNullopt) {
  std::string why;
  EXPECT_FALSE(run::load_checkpoint("/no/such/ckpt.bin", &why).has_value());
  EXPECT_EQ(why, "cannot open checkpoint");
}

TEST(Checkpoint, CorruptByteRejectedByChecksum) {
  const std::string path = temp_path("fascia_ckpt_corrupt.bin");
  run::Checkpoint out;
  out.per_job = {{1.0, 2.0}};
  out.iterations_done = 2;
  run::save_checkpoint(path, out);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(20);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(20);
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
  }
  std::string why;
  EXPECT_FALSE(run::load_checkpoint(path, &why).has_value());
  EXPECT_FALSE(why.empty());
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedFileRejected) {
  const std::string path = temp_path("fascia_ckpt_trunc.bin");
  run::Checkpoint out;
  out.per_job = {{1.0, 2.0, 3.0}};
  out.iterations_done = 3;
  run::save_checkpoint(path, out);
  std::string all;
  {
    std::ifstream file(path, std::ios::binary);
    all.assign(std::istreambuf_iterator<char>(file), {});
  }
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(all.data(), static_cast<std::streamsize>(all.size() / 2));
  }
  std::string why;
  EXPECT_FALSE(run::load_checkpoint(path, &why).has_value());
  std::remove(path.c_str());
}

TEST(Checkpoint, GarbageFileRejectedNotCrashing) {
  const std::string path = temp_path("fascia_ckpt_garbage.bin");
  {
    std::ofstream file(path, std::ios::binary);
    file << "this is not a checkpoint at all, not even close.....";
  }
  std::string why;
  EXPECT_FALSE(run::load_checkpoint(path, &why).has_value());
  EXPECT_FALSE(why.empty());
  std::remove(path.c_str());
}

// ---- spill page file format ----------------------------------------------

TEST(SpillFile, WriterReaderRoundTrip) {
  const std::string path = temp_path("fascia_spill_page.bin");
  std::remove(path.c_str());
  {
    run::SpillWriter writer(path, 10, 4);
    const std::vector<double> first = {1.0, 0.0, 2.5, 3.0};
    const std::vector<double> second = {0.0, 4.0, 0.0, 0.25};
    writer.write_row(2, first);
    writer.write_row(7, second);
    EXPECT_GT(writer.finalize(), 0u);
  }
  const run::SpillReader reader(path);
  EXPECT_EQ(reader.num_vertices(), 10);
  EXPECT_EQ(reader.num_colorsets(), 4u);
  ASSERT_EQ(reader.num_rows(), 2u);
  EXPECT_EQ(reader.row_vertex(0), 2);
  EXPECT_EQ(reader.row_vertex(1), 7);
  ASSERT_EQ(reader.row(0).size(), 4u);
  EXPECT_EQ(reader.row(0)[0], 1.0);
  EXPECT_EQ(reader.row(0)[2], 2.5);
  EXPECT_EQ(reader.row(1)[1], 4.0);
  EXPECT_EQ(reader.row(1)[3], 0.25);
  std::remove(path.c_str());
}

TEST(SpillFile, CorruptByteRejectedByChecksum) {
  // A damaged page cannot be consumed bit-identically, so unlike a
  // checkpoint the reader must throw instead of degrading silently.
  const std::string path = temp_path("fascia_spill_corrupt.bin");
  std::remove(path.c_str());
  {
    run::SpillWriter writer(path, 6, 3);
    const std::vector<double> row = {1.0, 2.0, 3.0};
    writer.write_row(1, row);
    writer.finalize();
  }
  {
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(20);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(20);
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
  }
  EXPECT_THROW(run::SpillReader reader(path), Error);
  std::remove(path.c_str());
}

TEST(SpillFile, AbandonedWriterLeavesNoFiles) {
  const std::string path = temp_path("fascia_spill_abandoned.bin");
  std::remove(path.c_str());
  {
    run::SpillWriter writer(path, 4, 2);
    const std::vector<double> row = {1.0, 2.0};
    writer.write_row(0, row);
    // no finalize(): destructor must remove the temp file
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// ---- count_template under controls ---------------------------------------

TEST(ResilientCount, DeadlineYieldsHonestPartial) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  CountOptions options = base_options();
  options.sampling.iterations = 200;
  options.run.deadline_seconds = 1e-9;
  const CountResult result = count_template(g, tree, options);
  EXPECT_EQ(result.run.status, RunStatus::kDeadline);
  EXPECT_LT(result.run.completed_iterations, 200);
  EXPECT_EQ(result.per_iteration.size(),
            static_cast<std::size_t>(result.run.completed_iterations));
  EXPECT_EQ(result.run.requested_iterations, 200);
}

TEST(ResilientCount, PresetCancelStopsBeforeWork) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  std::atomic<bool> cancel{true};
  CountOptions options = base_options();
  options.run.cancel = &cancel;
  const CountResult result = count_template(g, tree, options);
  EXPECT_EQ(result.run.status, RunStatus::kCancelled);
  EXPECT_EQ(result.run.completed_iterations, 0);
  EXPECT_EQ(result.estimate, 0.0);
}

TEST(ResilientCount, TinyBudgetDegradesNotAborts) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  CountOptions options = base_options();
  options.execution.table = TableKind::kNaive;
  options.run.memory_budget_bytes = 1;  // impossible on purpose
  const CountResult result = count_template(g, tree, options);
  EXPECT_EQ(result.run.status, RunStatus::kMemDegraded);
  EXPECT_FALSE(result.run.degradations.empty());
  EXPECT_NE(result.run.table_used, TableKind::kNaive);
}

TEST(ResilientCount, GenerousBudgetCompletesWithoutDegradation) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  CountOptions options = base_options();
  options.run.memory_budget_bytes = std::size_t{1} << 33;  // 8 GiB
  const CountResult result = count_template(g, tree, options);
  EXPECT_EQ(result.run.status, RunStatus::kCompleted);
  EXPECT_EQ(result.run.completed_iterations, options.sampling.iterations);
  EXPECT_TRUE(result.run.degradations.empty());
  EXPECT_GT(result.run.estimated_peak_bytes, 0u);
}

// ---- checkpoint / resume bit-identity (no faults needed) -----------------

TEST(ResilientCount, ResumeExtendsToBitIdenticalEstimates) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  const std::string path = temp_path("fascia_resume_count.bin");
  std::remove(path.c_str());

  CountOptions reference_options = base_options();
  reference_options.sampling.iterations = 10;
  const CountResult reference = count_template(g, tree, reference_options);

  // Phase 1: run only the first 4 iterations, checkpointing as we go.
  CountOptions first = reference_options;
  first.sampling.iterations = 4;
  first.run.checkpoint_path = path;
  first.run.checkpoint_every = 2;
  const CountResult partial = count_template(g, tree, first);
  EXPECT_EQ(partial.run.status, RunStatus::kCompleted);
  EXPECT_GE(partial.run.checkpoints_written, 2);

  // Phase 2: resume and extend to the full 10.  Same seed + counter
  // -mode colorings => the estimates must match bit for bit.
  CountOptions second = reference_options;
  second.run.checkpoint_path = path;
  second.run.resume = true;
  const CountResult resumed = count_template(g, tree, second);
  EXPECT_TRUE(resumed.run.resumed);
  EXPECT_EQ(resumed.run.resumed_iterations, 4);
  EXPECT_TRUE(resumed.run.resume_rejected.empty());
  ASSERT_EQ(resumed.per_iteration.size(), reference.per_iteration.size());
  for (std::size_t i = 0; i < reference.per_iteration.size(); ++i) {
    EXPECT_EQ(resumed.per_iteration[i], reference.per_iteration[i]) << i;
  }
  EXPECT_EQ(resumed.estimate, reference.estimate);
  std::remove(path.c_str());
}

TEST(ResilientCount, PerVertexResumeBitIdentical) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-1").tree;
  const std::string path = temp_path("fascia_resume_gdd.bin");
  std::remove(path.c_str());

  CountOptions reference_options = base_options();
  reference_options.sampling.iterations = 6;
  reference_options.per_vertex = true;
  const CountResult reference = count_template(g, tree, reference_options);

  CountOptions first = reference_options;
  first.sampling.iterations = 3;
  first.run.checkpoint_path = path;
  first.run.checkpoint_every = 1;
  count_template(g, tree, first);

  CountOptions second = reference_options;
  second.run.checkpoint_path = path;
  second.run.resume = true;
  const CountResult resumed = count_template(g, tree, second);
  EXPECT_TRUE(resumed.run.resumed);
  ASSERT_EQ(resumed.vertex_counts.size(), reference.vertex_counts.size());
  for (std::size_t v = 0; v < reference.vertex_counts.size(); ++v) {
    EXPECT_EQ(resumed.vertex_counts[v], reference.vertex_counts[v]) << v;
  }
  std::remove(path.c_str());
}

TEST(ResilientCount, OuterModeResumeBitIdentical) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  const std::string path = temp_path("fascia_resume_outer.bin");
  std::remove(path.c_str());

  CountOptions reference_options = base_options();
  reference_options.sampling.iterations = 8;
  reference_options.execution.mode = ParallelMode::kOuterLoop;
  reference_options.execution.threads = 2;
  const CountResult reference = count_template(g, tree, reference_options);

  CountOptions first = reference_options;
  first.sampling.iterations = 3;
  first.run.checkpoint_path = path;
  first.run.checkpoint_every = 1;
  count_template(g, tree, first);

  CountOptions second = reference_options;
  second.run.checkpoint_path = path;
  second.run.resume = true;
  const CountResult resumed = count_template(g, tree, second);
  EXPECT_TRUE(resumed.run.resumed);
  ASSERT_EQ(resumed.per_iteration.size(), reference.per_iteration.size());
  for (std::size_t i = 0; i < reference.per_iteration.size(); ++i) {
    EXPECT_EQ(resumed.per_iteration[i], reference.per_iteration[i]) << i;
  }
  std::remove(path.c_str());
}

TEST(ResilientCount, SuccinctResumeBitIdentical) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  const std::string path = temp_path("fascia_resume_succinct.bin");
  std::remove(path.c_str());

  CountOptions reference_options = base_options();
  reference_options.sampling.iterations = 10;
  reference_options.execution.table = TableKind::kSuccinct;
  const CountResult reference = count_template(g, tree, reference_options);

  CountOptions first = reference_options;
  first.sampling.iterations = 4;
  first.run.checkpoint_path = path;
  first.run.checkpoint_every = 2;
  const CountResult partial = count_template(g, tree, first);
  EXPECT_EQ(partial.run.status, RunStatus::kCompleted);

  CountOptions second = reference_options;
  second.run.checkpoint_path = path;
  second.run.resume = true;
  const CountResult resumed = count_template(g, tree, second);
  EXPECT_TRUE(resumed.run.resumed);
  EXPECT_EQ(resumed.run.resumed_iterations, 4);
  ASSERT_EQ(resumed.per_iteration.size(), reference.per_iteration.size());
  for (std::size_t i = 0; i < reference.per_iteration.size(); ++i) {
    EXPECT_EQ(resumed.per_iteration[i], reference.per_iteration[i]) << i;
  }
  EXPECT_EQ(resumed.estimate, reference.estimate);
  std::remove(path.c_str());
}

TEST(ResilientBatch, PagedRunSpillsAndStaysBitIdentical) {
  // The out-of-core rung end to end: a k = 10 multi-template batch
  // whose budget sits between the paged working set and the cheapest
  // in-memory estimate must page tables out (spilled bytes > 0),
  // finish every requested coloring, and reproduce the unconstrained
  // run bit for bit — pages store rows as verbatim doubles, so a
  // spill/restore round trip is exact.
  const Graph g = erdos_renyi_gnm(2000, 6000, 7);
  std::vector<sched::BatchJob> jobs;
  for (TreeTemplate t : {TreeTemplate::path(10), TreeTemplate::star(10)}) {
    sched::BatchJob job;
    job.tmpl = std::move(t);
    job.iterations = 2;
    jobs.push_back(std::move(job));
  }
  sched::BatchOptions batch;
  batch.table = TableKind::kSuccinct;
  batch.mode = ParallelMode::kSerial;
  batch.seed = 123;
  const sched::BatchResult reference = sched::run_batch(g, jobs, batch);

  const sched::BatchPlan plan = sched::plan_batch(g, jobs, batch);
  const auto succinct = run::estimate_peak_bytes(
      plan.merged, plan.num_colors, g.num_vertices(), TableKind::kSuccinct,
      false);
  // Well under the floor layout's estimate, so planning arms the spill
  // rung — and under the real resident peak too (the model's slot
  // density understates this instance, and its 8-byte entries overstate
  // the stages stored as int32), so eviction actually fires.
  const std::string spill_dir = temp_path("fascia_paged_batch");
  std::filesystem::create_directories(spill_dir);
  sched::BatchOptions paged = batch;
  paged.run.memory_budget_bytes = succinct * 2 / 5;
  paged.run.spill_dir = spill_dir;
  const sched::BatchResult spilled = sched::run_batch(g, jobs, paged);

  EXPECT_EQ(spilled.run.status, RunStatus::kMemDegraded);
  EXPECT_EQ(spilled.run.completed_iterations,
            reference.run.completed_iterations);
  EXPECT_GT(spilled.run.spilled_bytes, 0u);
  EXPECT_GT(spilled.run.spill_events, 0);
  ASSERT_EQ(spilled.jobs.size(), reference.jobs.size());
  for (std::size_t j = 0; j < reference.jobs.size(); ++j) {
    EXPECT_EQ(spilled.jobs[j].per_iteration, reference.jobs[j].per_iteration)
        << "job " << j;
    EXPECT_EQ(spilled.jobs[j].estimate, reference.jobs[j].estimate);
  }

  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
}

TEST(ResilientCount, PagedNarrowStagesStayBitIdentical) {
  // The CI paging smoke's 4 MiB budget on a count whose stages store
  // int32 entries: completed tables must page out (spilled bytes > 0),
  // come back at their recorded width, and reproduce the unconstrained
  // estimate bit for bit.
  struct ObsOff {
    ~ObsOff() { obs::set_enabled(false); }
  } off;
  const Graph g = erdos_renyi_gnm(8000, 40000, 5);
  const TreeTemplate& tree = catalog_entry("U10-1").tree;
  CountOptions options = base_options();
  options.sampling.iterations = 2;
  options.execution.table = TableKind::kSuccinct;
  options.observability.enabled = true;
  const CountResult reference = count_template(g, tree, options);
  ASSERT_NE(reference.report, nullptr);
  int narrow = 0;
  for (const obs::ReportStage& stage : reference.report->stages) {
    narrow += stage.narrow_passes;
  }
  EXPECT_GT(narrow, 0);

  const std::string spill_dir = temp_path("fascia_paged_narrow");
  std::filesystem::create_directories(spill_dir);
  CountOptions paged = options;
  paged.run.memory_budget_bytes = std::size_t{4} << 20;
  paged.run.spill_dir = spill_dir;
  const CountResult spilled = count_template(g, tree, paged);
  EXPECT_EQ(spilled.run.completed_iterations,
            reference.run.completed_iterations);
  EXPECT_GT(spilled.run.spilled_bytes, 0u);
  EXPECT_EQ(spilled.per_iteration, reference.per_iteration);
  EXPECT_EQ(spilled.estimate, reference.estimate);

  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
}

TEST(ResilientCount, MismatchedCheckpointRejectedNotBlended) {
  const Graph g = test_graph();
  const std::string path = temp_path("fascia_resume_mismatch.bin");
  std::remove(path.c_str());

  CountOptions first = base_options();
  first.sampling.iterations = 4;
  first.run.checkpoint_path = path;
  count_template(g, catalog_entry("U5-2").tree, first);

  // Same file, different template: the fingerprint must reject it and
  // the run must start fresh (and still be correct).
  CountOptions second = base_options();
  second.sampling.iterations = 4;
  second.run.checkpoint_path = path;
  second.run.resume = true;
  const CountResult other =
      count_template(g, catalog_entry("U5-1").tree, second);
  EXPECT_FALSE(other.run.resumed);
  EXPECT_EQ(other.run.resume_rejected, "checkpoint fingerprint mismatch");
  EXPECT_EQ(other.run.completed_iterations, 4);

  CountOptions clean = base_options();
  clean.sampling.iterations = 4;
  const CountResult reference =
      count_template(g, catalog_entry("U5-1").tree, clean);
  EXPECT_EQ(other.estimate, reference.estimate);
  std::remove(path.c_str());
}

TEST(ResilientCount, CheckpointFromAnotherPlanIsRejected) {
  // The fingerprint keys the partition a count runs, not the options
  // it was asked with: a checkpoint of the pinned one-at-a-time plan
  // does not resume under the planned (balanced) one, and does resume
  // under the same pin.
  const Graph g = erdos_renyi_gnm(120, 400, 4);
  const TreeTemplate& tree = catalog_entry("U10-1").tree;
  const std::string path = temp_path("fascia_resume_other_plan.bin");
  std::remove(path.c_str());

  CountOptions pinned = base_options();
  pinned.sampling.iterations = 2;
  pinned.execution.partition = PartitionStrategy::kOneAtATime;
  pinned.run.checkpoint_path = path;
  pinned.run.checkpoint_every = 1;
  count_template(g, tree, pinned);

  CountOptions planned = pinned;
  planned.execution.partition.reset();
  planned.sampling.iterations = 4;
  planned.run.resume = true;
  const CountResult other = count_template(g, tree, planned);
  EXPECT_NE(other.report->choices.partition->strategy, "one_at_a_time");
  EXPECT_FALSE(other.run.resumed);
  EXPECT_EQ(other.run.resume_rejected, "checkpoint fingerprint mismatch");

  // The planned run overwrote the file with its own plan's prefix;
  // write the pinned one again and resume it under the same pin.
  std::remove(path.c_str());
  count_template(g, tree, pinned);
  CountOptions same = pinned;
  same.sampling.iterations = 4;
  same.run.resume = true;
  const CountResult resumed = count_template(g, tree, same);
  EXPECT_TRUE(resumed.run.resumed) << resumed.run.resume_rejected;
  EXPECT_EQ(resumed.run.resumed_iterations, 2);
  std::remove(path.c_str());
}

TEST(ResilientCount, ResumesCheckpointWrittenByPreviousRelease) {
  // A kKindCount checkpoint exactly as the previous release wrote it:
  // count_template with per_vertex, reorder=degree and 2 iterations on
  // the graph below.  Layout: [per-iteration prefix, per-vertex sums
  // keyed by original ids].  Resuming it to 4 iterations must match an
  // uninterrupted 4-iteration run bit for bit.
  static const char* const kHex =
      "4653434b50543031000000000b00000000000000050000006cd1157f302a59f6"
      "020000000200000002000000000000006036be40565555552572c14018000000"
      "0000000000003e400000000000c0504000000000000040400000000000001c40"
      "00000000000050400000000000c0524000000000004052400000000000002040"
      "00000000000049400000000000804d4000000000000041400000000000003440"
      "0000000000c059400000000000c055400000000000004e400000000000003e40"
      "0000000000805b400000000000804c4000000000000030400000000000004540"
      "000000000080574000000000004060400000000000002c400000000000003240"
      "c4440588196dd6c1";
  const Graph g = erdos_renyi_gnm(24, 60, 3);
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  const std::string path = temp_path("fascia_previous_release.ckpt");
  {
    const std::string hex = kHex;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
      out.put(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
    }
  }

  CountOptions options;
  options.sampling.iterations = 4;
  options.sampling.seed = 11;
  options.execution.mode = ParallelMode::kSerial;
  options.execution.reorder = ReorderMode::kDegree;
  options.per_vertex = true;
  const CountResult uninterrupted = count_template(g, tree, options);

  options.run.checkpoint_path = path;
  options.run.resume = true;
  const CountResult resumed = count_template(g, tree, options);
  EXPECT_TRUE(resumed.run.resumed) << resumed.run.resume_rejected;
  EXPECT_EQ(resumed.run.resumed_iterations, 2);
  EXPECT_EQ(resumed.per_iteration, uninterrupted.per_iteration);
  EXPECT_EQ(resumed.estimate, uninterrupted.estimate);
  EXPECT_EQ(resumed.vertex_counts, uninterrupted.vertex_counts);
  std::remove(path.c_str());
}

// ---- run_batch under controls --------------------------------------------

TEST(ResilientBatch, DeadlineYieldsHonestPartial) {
  const Graph g = test_graph();
  std::vector<sched::BatchJob> jobs(1);
  jobs[0].tmpl = catalog_entry("U5-2").tree;
  jobs[0].iterations = 100;
  sched::BatchOptions options;
  options.mode = ParallelMode::kSerial;
  options.seed = 5;
  options.run.deadline_seconds = 1e-9;
  const sched::BatchResult result = sched::run_batch(g, jobs, options);
  EXPECT_EQ(result.run.status, RunStatus::kDeadline);
  EXPECT_LT(result.run.completed_iterations, 100);
}

TEST(ResilientBatch, ResumeExtendsToBitIdenticalEstimates) {
  const Graph g = test_graph();
  const std::string path = temp_path("fascia_resume_batch.bin");
  std::remove(path.c_str());

  std::vector<sched::BatchJob> full_jobs(2);
  full_jobs[0].tmpl = catalog_entry("U5-2").tree;
  full_jobs[0].iterations = 10;
  full_jobs[1].tmpl = catalog_entry("U3-1").tree;
  full_jobs[1].target_relative_stderr = 10.0;  // converges at first check
  full_jobs[1].max_iterations = 20;

  sched::BatchOptions options;
  options.mode = ParallelMode::kSerial;
  options.seed = 17;
  const sched::BatchResult reference = sched::run_batch(g, full_jobs, options);

  // Interrupted run: only 4 iterations of the fixed job's budget.
  std::vector<sched::BatchJob> short_jobs = full_jobs;
  short_jobs[0].iterations = 4;
  sched::BatchOptions first = options;
  first.run.checkpoint_path = path;
  first.run.checkpoint_every = 2;
  const sched::BatchResult partial = sched::run_batch(g, short_jobs, first);
  EXPECT_GE(partial.run.checkpoints_written, 1);

  sched::BatchOptions second = options;
  second.run.checkpoint_path = path;
  second.run.resume = true;
  const sched::BatchResult resumed = sched::run_batch(g, full_jobs, second);
  EXPECT_TRUE(resumed.run.resumed);
  EXPECT_TRUE(resumed.run.resume_rejected.empty());
  ASSERT_EQ(resumed.jobs.size(), reference.jobs.size());
  for (std::size_t j = 0; j < reference.jobs.size(); ++j) {
    ASSERT_EQ(resumed.jobs[j].per_iteration.size(),
              reference.jobs[j].per_iteration.size())
        << "job " << j;
    for (std::size_t i = 0; i < reference.jobs[j].per_iteration.size(); ++i) {
      EXPECT_EQ(resumed.jobs[j].per_iteration[i],
                reference.jobs[j].per_iteration[i])
          << "job " << j << " iter " << i;
    }
    EXPECT_EQ(resumed.jobs[j].estimate, reference.jobs[j].estimate);
    EXPECT_EQ(resumed.jobs[j].converged, reference.jobs[j].converged);
  }
  std::remove(path.c_str());
}

#ifdef FASCIA_FAULT_INJECTION

// ---- fault-injection recovery --------------------------------------------

class FaultFixture : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(FaultFixture, CountCrashThenResumeBitIdentical) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  const std::string path = temp_path("fascia_crash_count.bin");
  std::remove(path.c_str());

  CountOptions reference_options = base_options();
  reference_options.sampling.iterations = 8;
  const CountResult reference = count_template(g, tree, reference_options);

  CountOptions crashing = reference_options;
  crashing.run.checkpoint_path = path;
  crashing.run.checkpoint_every = 1;
  fault::arm("run.crash", 4);  // dies entering the 4th iteration
  EXPECT_THROW(count_template(g, tree, crashing), fault::Injected);
  EXPECT_GE(fault::hits("run.crash"), 4);

  CountOptions resuming = reference_options;
  resuming.run.checkpoint_path = path;
  resuming.run.resume = true;
  const CountResult resumed = count_template(g, tree, resuming);
  EXPECT_TRUE(resumed.run.resumed);
  EXPECT_GT(resumed.run.resumed_iterations, 0);
  ASSERT_EQ(resumed.per_iteration.size(), reference.per_iteration.size());
  for (std::size_t i = 0; i < reference.per_iteration.size(); ++i) {
    EXPECT_EQ(resumed.per_iteration[i], reference.per_iteration[i]) << i;
  }
  EXPECT_EQ(resumed.estimate, reference.estimate);
  std::remove(path.c_str());
}

TEST_F(FaultFixture, BatchCrashThenResumeBitIdentical) {
  const Graph g = test_graph();
  const std::string path = temp_path("fascia_crash_batch.bin");
  std::remove(path.c_str());

  std::vector<sched::BatchJob> jobs(1);
  jobs[0].tmpl = catalog_entry("U5-2").tree;
  jobs[0].iterations = 8;
  sched::BatchOptions options;
  options.mode = ParallelMode::kSerial;
  options.seed = 29;
  const sched::BatchResult reference = sched::run_batch(g, jobs, options);

  sched::BatchOptions crashing = options;
  crashing.run.checkpoint_path = path;
  crashing.run.checkpoint_every = 1;
  fault::arm("run.crash", 6);
  EXPECT_THROW(sched::run_batch(g, jobs, crashing), fault::Injected);

  sched::BatchOptions resuming = options;
  resuming.run.checkpoint_path = path;
  resuming.run.resume = true;
  const sched::BatchResult resumed = sched::run_batch(g, jobs, resuming);
  EXPECT_TRUE(resumed.run.resumed);
  ASSERT_EQ(resumed.jobs[0].per_iteration.size(),
            reference.jobs[0].per_iteration.size());
  for (std::size_t i = 0; i < reference.jobs[0].per_iteration.size(); ++i) {
    EXPECT_EQ(resumed.jobs[0].per_iteration[i],
              reference.jobs[0].per_iteration[i])
        << i;
  }
  EXPECT_EQ(resumed.jobs[0].estimate, reference.jobs[0].estimate);
  std::remove(path.c_str());
}

TEST_F(FaultFixture, DpAllocFailureDegradesGracefully) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  CountOptions options = base_options();
  fault::arm("dp.alloc", 1);
  const CountResult result = count_template(g, tree, options);
  EXPECT_EQ(result.run.status, RunStatus::kMemDegraded);
  EXPECT_LT(result.run.completed_iterations, options.sampling.iterations);
  EXPECT_GE(fault::hits("dp.alloc"), 1);
}

TEST_F(FaultFixture, FailedIncrementalPassPoisonsTheHandle) {
  // The driver turns an allocation failure into a mem-degraded partial
  // result; for retained state that is fatal, never a shorter estimate.
  Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  const CountOptions options = base_options();
  RunHandle handle = begin_incremental(g, tree, options);

  GraphDelta delta;
  delta.remove(0, 1);
  g.apply(delta);
  fault::arm("dp.alloc", 3);  // fails mid-recount, state half advanced
  try {
    handle.recount(g, delta);
    ADD_FAILURE() << "recount survived an allocation failure";
  } catch (const Error& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kResource);
  }
  EXPECT_GE(fault::hits("dp.alloc"), 3);

  fault::disarm_all();
  const GraphDelta empty;
  g.apply(empty);
  try {
    handle.recount(g, empty);
    ADD_FAILURE() << "a poisoned handle recounted";
  } catch (const Error& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kUsage);
  }

  fault::arm("dp.alloc", 2);
  EXPECT_THROW(begin_incremental(g, tree, options), Error);
  EXPECT_GE(fault::hits("dp.alloc"), 2);
}

TEST_F(FaultFixture, CheckpointWriteFailureDoesNotKillRun) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  const std::string path = temp_path("fascia_ckpt_fail.bin");
  std::remove(path.c_str());
  CountOptions options = base_options();
  options.sampling.iterations = 6;
  options.run.checkpoint_path = path;
  options.run.checkpoint_every = 1;
  fault::arm("checkpoint.write", 2);  // the 2nd write fails
  const CountResult result = count_template(g, tree, options);
  EXPECT_EQ(result.run.status, RunStatus::kCompleted);
  EXPECT_EQ(result.run.completed_iterations, 6);
  EXPECT_EQ(result.run.checkpoint_failures, 1);
  EXPECT_GE(result.run.checkpoints_written, 1);
  // Later successful writes must have left a loadable file behind.
  std::string why;
  const auto checkpoint = run::load_checkpoint(path, &why);
  ASSERT_TRUE(checkpoint.has_value()) << why;
  EXPECT_EQ(checkpoint->iterations_done, 6u);
  std::remove(path.c_str());
}

TEST_F(FaultFixture, EnvironmentArmsSites) {
  fault::disarm_all();
  ::setenv("FASCIA_FAULT", "run.crash:1", 1);
  fault::reload_from_env();
  ::unsetenv("FASCIA_FAULT");
  const Graph g = test_graph();
  CountOptions options = base_options();
  options.run.deadline_seconds = 3600;  // any control activates the layer
  EXPECT_THROW(count_template(g, catalog_entry("U5-2").tree, options),
               fault::Injected);
}

#endif  // FASCIA_FAULT_INJECTION

}  // namespace
}  // namespace fascia
