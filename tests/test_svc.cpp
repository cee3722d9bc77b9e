// Counting service (src/svc/): graph registry semantics (LRU eviction
// under a byte budget, running jobs surviving eviction), per-job
// cancellation isolation, concurrent multi-session use of the shared
// obs registry, priority scheduling with preemption, and the
// checkpoint-namespacing contract that makes one work directory safe
// for concurrent jobs.  The recurring acceptance bar: everything the
// service does must be invisible in the numbers — a job through the
// service is bit-identical to the direct library call.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/counter.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "run/checkpoint.hpp"
#include "run/memory.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "sched/plan.hpp"
#include "treelet/catalog.hpp"
#include "treelet/free_trees.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fascia {
namespace {

std::string temp_dir(const char* tag) {
  std::string path = ::testing::TempDir() + "fascia_svc_" + tag;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

svc::JobSpec count_spec(const std::string& graph, const TreeTemplate& tmpl,
                        int iterations, std::uint64_t seed = 7) {
  svc::JobSpec spec;
  spec.kind = svc::JobKind::kCount;
  spec.graph = graph;
  spec.tmpl = tmpl;
  spec.options.sampling.iterations = iterations;
  spec.options.sampling.seed = seed;
  spec.options.execution.mode = ParallelMode::kSerial;
  return spec;
}

// ---- registry --------------------------------------------------------------

TEST(SvcRegistry, PutGetEraseRoundTrip) {
  svc::GraphRegistry registry;
  EXPECT_EQ(registry.get("g"), nullptr);
  registry.put("g", erdos_renyi_gnm(100, 300, 1));
  auto graph = registry.get("g");
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(graph->num_vertices(), 100);
  EXPECT_TRUE(registry.contains("g"));
  EXPECT_TRUE(registry.erase("g"));
  EXPECT_FALSE(registry.contains("g"));
  EXPECT_FALSE(registry.erase("g"));
  // The handle we took out survives the erase.
  EXPECT_EQ(graph->num_vertices(), 100);
}

TEST(SvcRegistry, LruEvictionUnderBytePressure) {
  const Graph probe = erdos_renyi_gnm(400, 1200, 1);
  // Budget fits two graphs of this size but not three.
  svc::GraphRegistry registry(probe.bytes() * 2 + probe.bytes() / 2);
  registry.put("a", erdos_renyi_gnm(400, 1200, 1));
  registry.put("b", erdos_renyi_gnm(400, 1200, 2));
  EXPECT_TRUE(registry.contains("a"));
  EXPECT_TRUE(registry.contains("b"));

  // Touch "a" so "b" is the least recently used, then overflow.
  ASSERT_NE(registry.get("a"), nullptr);
  registry.put("c", erdos_renyi_gnm(400, 1200, 3));
  EXPECT_TRUE(registry.contains("a"));
  EXPECT_FALSE(registry.contains("b"));
  EXPECT_TRUE(registry.contains("c"));
  EXPECT_GE(registry.stats().evictions, 1u);
  EXPECT_LE(registry.stats().resident_bytes, registry.stats().budget_bytes);
}

TEST(SvcRegistry, EvictedGraphStaysAliveForHolders) {
  const Graph probe = erdos_renyi_gnm(500, 1500, 1);
  svc::GraphRegistry registry(probe.bytes() + probe.bytes() / 2);
  auto held = registry.put("old", erdos_renyi_gnm(500, 1500, 1));
  registry.put("new1", erdos_renyi_gnm(500, 1500, 2));
  registry.put("new2", erdos_renyi_gnm(500, 1500, 3));
  EXPECT_FALSE(registry.contains("old"));
  // The shared_ptr keeps the evicted graph fully usable.
  EXPECT_EQ(held->num_vertices(), 500);
  EXPECT_GT(held->num_edges(), 0);
}

TEST(SvcRegistry, PartitionCacheHitsOnRepeat) {
  svc::GraphRegistry registry;
  const TreeTemplate tmpl = catalog_entry("U7-2").tree;
  auto first = registry.partition_of(tmpl, PartitionStrategy::kOneAtATime,
                                     true, -1);
  auto second = registry.partition_of(tmpl, PartitionStrategy::kOneAtATime,
                                      true, -1);
  EXPECT_EQ(first.get(), second.get());  // same cached object
  // A different root is a different plan.
  auto rooted = registry.partition_of(tmpl, PartitionStrategy::kOneAtATime,
                                      true, 0);
  EXPECT_NE(first.get(), rooted.get());
  EXPECT_GE(registry.stats().hits, 1u);
}

TEST(SvcRegistry, ReorderPermutationCachedPerMode) {
  svc::GraphRegistry registry;
  registry.put("g", chung_lu(600, 2400, 2.3, 60, 5));
  auto degree1 = registry.reorder_of("g", ReorderMode::kDegree);
  ASSERT_NE(degree1, nullptr);
  EXPECT_EQ(degree1->size(), 600);
  auto degree2 = registry.reorder_of("g", ReorderMode::kDegree);
  EXPECT_EQ(degree1.get(), degree2.get());
  EXPECT_EQ(registry.reorder_of("g", ReorderMode::kNone), nullptr);
  EXPECT_EQ(registry.reorder_of("absent", ReorderMode::kDegree), nullptr);
}

// ---- service: results match the direct library call ------------------------

TEST(SvcService, CountJobBitIdenticalToDirectCall) {
  const Graph graph = erdos_renyi_gnm(900, 3600, 11);
  const TreeTemplate tmpl = catalog_entry("U5-2").tree;

  CountOptions direct;
  direct.sampling.iterations = 6;
  direct.sampling.seed = 7;
  direct.execution.mode = ParallelMode::kSerial;
  const CountResult expected = count_template(graph, tmpl, direct);

  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(900, 3600, 11));
  svc::Session session(service);
  const CountResult got = session.count(count_spec("g", tmpl, 6));

  ASSERT_EQ(got.per_iteration.size(), expected.per_iteration.size());
  for (std::size_t i = 0; i < expected.per_iteration.size(); ++i) {
    EXPECT_EQ(got.per_iteration[i], expected.per_iteration[i]) << i;
  }
  EXPECT_EQ(got.estimate, expected.estimate);
  EXPECT_EQ(got.relative_stderr, expected.relative_stderr);
}

TEST(SvcService, GddJobMatchesDirectGraphletDegrees) {
  const Graph graph = erdos_renyi_gnm(300, 1200, 3);
  const TreeTemplate tmpl = catalog_entry("U5-2").tree;
  const int orbit = u52_central_vertex();

  CountOptions direct;
  direct.sampling.iterations = 4;
  direct.sampling.seed = 5;
  direct.execution.mode = ParallelMode::kSerial;
  direct.root = orbit;
  const CountResult expected = graphlet_degrees(graph, tmpl, orbit, direct);

  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(300, 1200, 3));
  svc::Session session(service);
  svc::JobSpec spec = count_spec("g", tmpl, 4, 5);
  spec.kind = svc::JobKind::kGdd;
  spec.options.root = orbit;
  const CountResult got = session.count(std::move(spec));

  EXPECT_EQ(got.estimate, expected.estimate);
  ASSERT_EQ(got.vertex_counts.size(), expected.vertex_counts.size());
  for (std::size_t v = 0; v < expected.vertex_counts.size(); ++v) {
    ASSERT_EQ(got.vertex_counts[v], expected.vertex_counts[v]) << v;
  }
}

TEST(SvcService, BatchJobMatchesDirectRunBatch) {
  const Graph graph = erdos_renyi_gnm(500, 2000, 17);
  std::vector<sched::BatchJob> jobs;
  for (const char* name : {"U5-1", "U5-2"}) {
    sched::BatchJob job;
    job.tmpl = catalog_entry(name).tree;
    job.iterations = 4;
    jobs.push_back(std::move(job));
  }
  sched::BatchOptions options;
  options.seed = 23;
  options.mode = ParallelMode::kSerial;
  const sched::BatchResult expected = sched::run_batch(graph, jobs, options);

  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(500, 2000, 17));
  svc::Session session(service);
  svc::JobSpec spec;
  spec.graph = "g";
  spec.batch_jobs = jobs;
  spec.batch_options = options;
  spec.preemptible = false;
  const sched::BatchResult got = session.run_batch(std::move(spec));

  ASSERT_EQ(got.jobs.size(), expected.jobs.size());
  for (std::size_t j = 0; j < expected.jobs.size(); ++j) {
    EXPECT_EQ(got.jobs[j].estimate, expected.jobs[j].estimate) << j;
    EXPECT_EQ(got.jobs[j].iterations, expected.jobs[j].iterations) << j;
  }
  EXPECT_EQ(got.estimate, expected.estimate);
}

TEST(SvcService, BatchRegistryHoldsOnlyChosenPartitions) {
  // The planner partitions every root of every template while it
  // searches, but only the roots it picks go through the registry:
  // one partition per job, whether admission or the run asked first.
  const Graph graph = erdos_renyi_gnm(300, 1200, 5);
  std::vector<sched::BatchJob> jobs;
  for (const TreeTemplate& tree : all_free_trees(7)) {
    sched::BatchJob job;
    job.tmpl = tree;
    job.iterations = 2;
    jobs.push_back(std::move(job));
  }
  ASSERT_EQ(jobs.size(), 11u);
  sched::BatchOptions options;
  options.seed = 5;
  options.mode = ParallelMode::kSerial;
  const sched::BatchPlan plan = sched::plan_batch(graph, jobs, options);
  EXPECT_GT(std::count_if(plan.job_partition_root.begin(),
                          plan.job_partition_root.end(),
                          [](int root) { return root >= 0; }),
            0);
  const sched::BatchResult expected = sched::run_batch(graph, jobs, options);

  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(300, 1200, 5));
  svc::Session session(service);
  svc::JobSpec spec;
  spec.graph = "g";
  spec.batch_jobs = jobs;
  spec.batch_options = options;
  spec.preemptible = false;
  const sched::BatchResult got = session.run_batch(std::move(spec));
  ASSERT_EQ(got.jobs.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(got.jobs[j].per_iteration, expected.jobs[j].per_iteration) << j;
  }
  EXPECT_EQ(service.registry().stats().partitions, jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::uint64_t misses = service.registry().stats().misses;
    service.registry().partition_of(jobs[j].tmpl,
                                    plan.job_partition_strategy[j],
                                    options.share_tables,
                                    plan.job_partition_root[j]);
    EXPECT_EQ(service.registry().stats().misses, misses) << "job " << j;
  }
}

// ---- service: lifecycle, cancellation, admission ---------------------------

TEST(SvcService, SubmitRejectsUnknownGraphAndBadSpecs) {
  svc::Service service({});
  EXPECT_THROW(service.submit(count_spec("nope", TreeTemplate::path(3), 1)),
               Error);

  service.registry().put("g", erdos_renyi_gnm(50, 100, 1));
  svc::JobSpec gdd = count_spec("g", TreeTemplate::path(4), 1);
  gdd.kind = svc::JobKind::kGdd;  // missing orbit root
  EXPECT_THROW(service.submit(std::move(gdd)), Error);

  // Checked before the quote plans the count, in the count's words.
  TreeTemplate labeled = TreeTemplate::path(4);
  labeled.set_labels({0, 1, 0, 1});
  try {
    service.submit(count_spec("g", labeled, 1));
    ADD_FAILURE() << "a labeled template on an unlabeled graph was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("count job: template and graph"),
              std::string::npos)
        << e.what();
  }

  svc::JobSpec batch;
  batch.kind = svc::JobKind::kBatch;
  batch.graph = "g";  // empty batch_jobs
  EXPECT_THROW(service.submit(std::move(batch)), Error);
}

TEST(SvcService, CancellingOneJobLeavesAnotherUntouched) {
  svc::Service::Config config;
  config.workers = 2;
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(2500, 20000, 3));

  // Long victim: enough iterations that cancel lands mid-run.
  svc::JobSpec victim = count_spec("g", catalog_entry("U7-2").tree, 4000);
  const svc::JobId victim_id = service.submit(std::move(victim));
  svc::JobSpec bystander = count_spec("g", catalog_entry("U5-1").tree, 5);
  const svc::JobId bystander_id = service.submit(std::move(bystander));

  EXPECT_TRUE(service.cancel(victim_id));
  const svc::JobInfo victim_done = service.wait(victim_id);
  const svc::JobInfo bystander_done = service.wait(bystander_id);

  EXPECT_EQ(victim_done.state, svc::JobState::kCancelled);
  ASSERT_EQ(bystander_done.state, svc::JobState::kCompleted);
  const CountResult result = service.count_result(bystander_id);
  EXPECT_EQ(result.run.completed_iterations, 5);
  EXPECT_EQ(result.status(), RunStatus::kCompleted);
}

TEST(SvcService, AdmissionRejectsJobsThatCanNeverFit) {
  svc::Service::Config config;
  config.memory_budget_bytes = 1024;  // absurdly tight
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(5000, 20000, 1));
  svc::JobSpec spec = count_spec("g", catalog_entry("U10-2").tree, 1);
  EXPECT_THROW(service.submit(std::move(spec)), Error);
}

TEST(SvcService, AdmissionRequotesSuccinctInsteadOfRejecting) {
  const TreeTemplate tmpl = catalog_entry("U7-1").tree;
  const Graph graph = erdos_renyi_gnm(5000, 20000, 1);

  // Learn both quotes from an unbounded service: admission records the
  // modeled peak for the requested encoding in JobInfo.
  std::size_t compact_quote = 0;
  std::size_t succinct_quote = 0;
  {
    svc::Service service({});
    service.registry().put("g", erdos_renyi_gnm(5000, 20000, 1));
    svc::JobSpec compact = count_spec("g", tmpl, 2);
    compact.options.execution.table = TableKind::kCompact;
    svc::JobSpec succinct = count_spec("g", tmpl, 2);
    succinct.options.execution.table = TableKind::kSuccinct;
    const svc::JobId a = service.submit(std::move(compact));
    const svc::JobId b = service.submit(std::move(succinct));
    compact_quote = service.info(a).estimated_peak_bytes;
    succinct_quote = service.info(b).estimated_peak_bytes;
    service.wait(a);
    service.wait(b);
  }
  ASSERT_LT(succinct_quote, compact_quote);

  // Under a budget only the succinct encoding satisfies, a compact job
  // must be admitted by re-quoting — the run layer's ladder would move
  // to succinct anyway — with the spec rewritten so the run uses the
  // encoding it was admitted under, and the numbers must match the
  // direct succinct call bit for bit.
  CountOptions direct;
  direct.sampling.iterations = 2;
  direct.sampling.seed = 7;
  direct.execution.mode = ParallelMode::kSerial;
  direct.execution.table = TableKind::kSuccinct;
  const CountResult expected = count_template(graph, tmpl, direct);

  svc::Service::Config config;
  config.memory_budget_bytes = (succinct_quote + compact_quote) / 2;
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(5000, 20000, 1));
  svc::JobSpec spec = count_spec("g", tmpl, 2);
  spec.options.execution.table = TableKind::kCompact;
  const svc::JobId id = service.submit(std::move(spec));
  EXPECT_EQ(service.info(id).estimated_peak_bytes, succinct_quote);
  EXPECT_EQ(service.wait(id).state, svc::JobState::kCompleted);
  const CountResult got = service.count_result(id);
  EXPECT_EQ(got.run.table_used, TableKind::kSuccinct);
  ASSERT_EQ(got.per_iteration.size(), expected.per_iteration.size());
  for (std::size_t i = 0; i < expected.per_iteration.size(); ++i) {
    EXPECT_EQ(got.per_iteration[i], expected.per_iteration[i]) << i;
  }
  EXPECT_EQ(got.estimate, expected.estimate);
}

TEST(SvcService, BatchQuoteCoversTheMergedPlan) {
  // The merged DAG pins every job's root and keeps shared stages
  // alive, so its modeled peak is above any one template's; the quote
  // is that peak (times engine copies, plus workspaces).
  const Graph graph = erdos_renyi_gnm(2000, 8000, 5);
  std::vector<sched::BatchJob> jobs;
  for (const TreeTemplate& tree : all_free_trees(7)) {
    sched::BatchJob job;
    job.tmpl = tree;
    job.iterations = 1;
    jobs.push_back(std::move(job));
  }
  ASSERT_EQ(jobs.size(), 11u);
  sched::BatchOptions options;
  options.mode = ParallelMode::kSerial;
  const sched::BatchPlan plan = sched::plan_batch(graph, jobs, options);
  const std::size_t merged = run::estimate_peak_bytes(
      plan.merged, plan.num_colors, graph.num_vertices(), options.table,
      false);
  std::size_t largest_single = 0;
  for (const sched::BatchJob& job : jobs) {
    largest_single = std::max(
        largest_single,
        run::estimate_peak_bytes(
            partition_template(job.tmpl, PartitionStrategy::kOneAtATime),
            plan.num_colors, graph.num_vertices(), options.table, false));
  }
  EXPECT_GT(merged, largest_single);

  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(2000, 8000, 5));
  svc::JobSpec spec;
  spec.kind = svc::JobKind::kBatch;
  spec.graph = "g";
  spec.batch_jobs = jobs;
  spec.batch_options = options;
  spec.preemptible = false;
  const svc::JobId id = service.submit(std::move(spec));
  EXPECT_GE(service.info(id).estimated_peak_bytes, merged);
  EXPECT_EQ(service.wait(id).state, svc::JobState::kCompleted);
}

TEST(SvcService, CountQuotePricesThePlannedPartition) {
  // A planned U10-1 count is quoted on the partition the planner
  // picks (balanced at the centre), which is the one the registry
  // then holds — and so is the retention of an incremental count.
  const Graph graph = erdos_renyi_gnm(3000, 12000, 2);
  const TreeTemplate& tmpl = catalog_entry("U10-1").tree;
  const sched::BatchPlan plan =
      detail::plan_tree_count(graph, tmpl, count_spec("g", tmpl, 2).options);
  ASSERT_EQ(plan.job_partition_strategy.front(), PartitionStrategy::kBalanced);
  const PartitionTree chosen = partition_template(
      tmpl, PartitionStrategy::kBalanced, true, plan.job_partition_root.front());
  const std::size_t peak = run::estimate_peak_bytes(
      chosen, 10, graph.num_vertices(), TableKind::kCompact, false);
  const std::size_t workspace = run::estimate_workspace_bytes(chosen, 10);

  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(3000, 12000, 2));
  const svc::JobId id = service.submit(count_spec("g", tmpl, 2));
  EXPECT_EQ(service.info(id).estimated_peak_bytes, peak + workspace);
  EXPECT_EQ(service.registry().stats().partitions, 1u);
  EXPECT_EQ(service.wait(id).state, svc::JobState::kCompleted);

  svc::JobSpec incremental = count_spec("g", tmpl, 2);
  incremental.options.execution.incremental = true;
  const svc::JobId kept = service.submit(std::move(incremental));
  EXPECT_EQ(service.info(kept).estimated_peak_bytes,
            peak + workspace +
                run::estimate_retained_bytes(chosen, 10, graph.num_vertices(),
                                             TableKind::kCompact, false, 2));
  EXPECT_EQ(service.wait(kept).state, svc::JobState::kCompleted);
  EXPECT_EQ(service.registry().stats().partitions, 1u);
}

// An unset partition strategy (planned) is not written; older clients
// and journals name one, which still parses and pins it.
TEST(SvcProtocol, UnsetPartitionIsOmittedAndNamedOnesStillParse) {
  const obs::Json count = svc::count_options_to_json(CountOptions{});
  EXPECT_EQ(count.find("partition"), nullptr);
  EXPECT_FALSE(svc::count_options_from_json(count).execution.partition);
  const obs::Json batch = svc::batch_options_to_json(sched::BatchOptions{});
  EXPECT_EQ(batch.find("partition"), nullptr);
  EXPECT_FALSE(svc::batch_options_from_json(batch).partition);

  for (const auto& [name, strategy] :
       {std::pair{"one", PartitionStrategy::kOneAtATime},
        std::pair{"balanced", PartitionStrategy::kBalanced}}) {
    obs::Json pinned = count;
    pinned["partition"] = name;
    const CountOptions parsed = svc::count_options_from_json(pinned);
    EXPECT_EQ(parsed.execution.partition, strategy) << name;
    EXPECT_EQ(svc::count_options_to_json(parsed).get_string("partition"),
              name);
    obs::Json pinned_batch = batch;
    pinned_batch["partition"] = name;
    EXPECT_EQ(svc::batch_options_from_json(pinned_batch).partition, strategy)
        << name;
  }
}

// ---- wire compatibility: "kernel_family" --------------------------------
// Journals and clients written before the SpMM kernel family was
// removed carry "kernel_family": "frontier" in every count job.  That
// value still parses (it names the one kernel path); any other value
// is a bad request.

TEST(SvcProtocol, KernelFamilyAcceptedOnlyAsFrontier) {
  const obs::Json written = svc::count_options_to_json(CountOptions{});
  EXPECT_EQ(written.find("kernel_family"), nullptr);
  const obs::Json capabilities = svc::capabilities_json();
  for (const obs::Json& capability : capabilities.elements()) {
    EXPECT_NE(capability.as_string(), "kernel_family");
  }

  obs::Json legacy = written;
  legacy["kernel_family"] = "frontier";
  const CountOptions parsed = svc::count_options_from_json(legacy);
  EXPECT_EQ(svc::count_options_to_json(parsed).dump(), written.dump());

  for (const char* family : {"spmm", "bogus"}) {
    obs::Json removed = written;
    removed["kernel_family"] = family;
    try {
      (void)svc::count_options_from_json(removed);
      ADD_FAILURE() << "kernel_family " << family << " was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kBadInput) << family;
      EXPECT_NE(std::string(e.what()).find("SpMM kernel family was removed"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SvcService, RecoversJournaledJobsThatNameAKernelFamily) {
  const std::string journal = temp_dir("kernel_family") + "/jobs.fjrn";
  const TreeTemplate tmpl = catalog_entry("U5-2").tree;
  svc::Service::Config config;
  config.workers = 1;
  config.journal_path = journal;
  {
    // Journals the graph registration; no job runs in this incarnation.
    svc::Service service(config);
    service.load_graph("g", "enron", "", 0.02, 1, /*reload=*/false);
  }
  // Accept records as the previous wire format wrote them: the full
  // request document with "kernel_family" in its options.
  const auto spec_with_id = [&](const char* request_id) {
    svc::JobSpec spec = count_spec("g", tmpl, 3);
    spec.request_id = request_id;
    return spec;
  };
  const auto accept_record = [&](const char* family, const char* request_id) {
    obs::Json doc = svc::job_spec_to_request_json(spec_with_id(request_id));
    doc["options"]["kernel_family"] = family;
    return doc.dump();
  };
  {
    svc::Journal appender = svc::Journal::open_append(journal);
    appender.append(svc::JournalKind::kAccepted, 41,
                    accept_record("frontier", "legacy-frontier"));
    appender.append(svc::JournalKind::kAccepted, 42,
                    accept_record("spmm", "legacy-spmm"));
  }

  svc::Service service(config);
  EXPECT_EQ(service.health().journal_replays, 1u);
  // The SpMM record stays visible as a failed job that says why.
  const std::vector<svc::JobInfo> recovered = service.jobs();
  ASSERT_EQ(recovered.size(), 2u);
  const auto failed = std::find_if(
      recovered.begin(), recovered.end(), [](const svc::JobInfo& info) {
        return info.state == svc::JobState::kFailed;
      });
  ASSERT_NE(failed, recovered.end());
  EXPECT_NE(failed->error.find("SpMM kernel family was removed"),
            std::string::npos)
      << failed->error;

  // The frontier record replays, and a retry of its request attaches
  // to it.
  const svc::JobId replayed = service.submit(spec_with_id("legacy-frontier"));
  ASSERT_EQ(service.wait(replayed).state, svc::JobState::kCompleted);
  CountOptions direct;
  direct.sampling.iterations = 3;
  direct.sampling.seed = 7;
  direct.execution.mode = ParallelMode::kSerial;
  const CountResult expected =
      count_template(load_or_make("enron", "", 0.02, 1), tmpl, direct);
  const CountResult got = service.count_result(replayed);
  ASSERT_EQ(got.per_iteration.size(), expected.per_iteration.size());
  for (std::size_t i = 0; i < expected.per_iteration.size(); ++i) {
    EXPECT_EQ(got.per_iteration[i], expected.per_iteration[i]) << i;
  }
}

TEST(SvcService, ShutdownCancelsQueuedJobs) {
  svc::Service::Config config;
  config.workers = 1;
  auto service = std::make_unique<svc::Service>(config);
  service->registry().put("g", erdos_renyi_gnm(2500, 20000, 3));
  const svc::JobId running =
      service->submit(count_spec("g", catalog_entry("U7-2").tree, 4000));
  const svc::JobId queued =
      service->submit(count_spec("g", catalog_entry("U5-1").tree, 3));
  service->shutdown();
  EXPECT_TRUE(job_state_terminal(service->info(running).state));
  EXPECT_TRUE(job_state_terminal(service->info(queued).state));
  service.reset();  // double-shutdown via destructor must be safe
}

// ---- preemption ------------------------------------------------------------

TEST(SvcService, PreemptedBatchJobResumesToBitIdenticalResult) {
  const int kIterations = 60;
  const TreeTemplate tmpl = catalog_entry("U10-2").tree;  // k = 10 >= 8
  const Graph graph = erdos_renyi_gnm(600, 2400, 19);

  CountOptions direct;
  direct.sampling.iterations = kIterations;
  direct.sampling.seed = 31;
  direct.execution.mode = ParallelMode::kSerial;
  const CountResult expected = count_template(graph, tmpl, direct);

  svc::Service::Config config;
  config.workers = 1;  // force contention
  config.work_dir = temp_dir("preempt");
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(600, 2400, 19));

  svc::JobSpec low = count_spec("g", tmpl, kIterations, 31);
  low.priority = svc::Priority::kBatch;
  low.preemptible = true;
  low.options.run.checkpoint_every = 1;  // checkpoint at every boundary
  const svc::JobId low_id = service.submit(std::move(low));

  // Wait until the batch job has written its first checkpoint before
  // demanding the worker: a preemption landing before any checkpoint
  // restarts from scratch (still bit-identical, but run.resumed would
  // be false and the resume path untested).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool checkpointed = false;
  while (!checkpointed && std::chrono::steady_clock::now() < deadline) {
    for (const auto& entry :
         std::filesystem::directory_iterator(config.work_dir)) {
      checkpointed =
          checkpointed || entry.path().extension() == ".ckpt";
    }
    if (!checkpointed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_TRUE(checkpointed) << "batch job never wrote a checkpoint";
  svc::JobSpec high = count_spec("g", catalog_entry("U5-1").tree, 3);
  high.priority = svc::Priority::kInteractive;
  const svc::JobId high_id = service.submit(std::move(high));

  const svc::JobInfo high_done = service.wait(high_id);
  EXPECT_EQ(high_done.state, svc::JobState::kCompleted);

  const svc::JobInfo low_done = service.wait(low_id);
  ASSERT_EQ(low_done.state, svc::JobState::kCompleted);
  EXPECT_GE(low_done.preemptions, 1);  // it really was preempted

  const CountResult got = service.count_result(low_id);
  EXPECT_TRUE(got.run.resumed);
  ASSERT_EQ(got.per_iteration.size(), expected.per_iteration.size());
  for (std::size_t i = 0; i < expected.per_iteration.size(); ++i) {
    ASSERT_EQ(got.per_iteration[i], expected.per_iteration[i]) << i;
  }
  EXPECT_EQ(got.estimate, expected.estimate);
}

// ---- checkpoint namespacing ------------------------------------------------

TEST(SvcCheckpoint, DirectoryPathsResolveToFingerprintedFiles) {
  const std::string dir = temp_dir("resolve");
  const std::string a =
      run::resolve_checkpoint_path(dir, run::Checkpoint::kKindCount, 0x1234);
  const std::string b =
      run::resolve_checkpoint_path(dir, run::Checkpoint::kKindCount, 0x9999);
  const std::string c =
      run::resolve_checkpoint_path(dir, run::Checkpoint::kKindBatch, 0x1234);
  EXPECT_NE(a, b);  // different fingerprints never collide
  EXPECT_NE(a, c);  // nor do count and batch checkpoints
  EXPECT_EQ(a.rfind(dir, 0), 0u) << "resolved inside the directory";
  EXPECT_NE(a.find("fascia_count_"), std::string::npos);
  EXPECT_NE(c.find("fascia_batch_"), std::string::npos);

  // A plain file path (existing or not) passes through untouched.
  EXPECT_EQ(run::resolve_checkpoint_path("/tmp/x.ckpt",
                                         run::Checkpoint::kKindCount, 1),
            "/tmp/x.ckpt");
  EXPECT_EQ(
      run::resolve_checkpoint_path("", run::Checkpoint::kKindCount, 1), "");
}

TEST(SvcCheckpoint, ConcurrentJobsShareAWorkDirWithoutCollisions) {
  const std::string dir = temp_dir("shared");
  const Graph graph = erdos_renyi_gnm(400, 1600, 3);

  auto run_with_checkpoint = [&](const std::string& name,
                                 std::uint64_t seed) {
    CountOptions options;
    options.sampling.iterations = 8;
    options.sampling.seed = seed;
    options.execution.mode = ParallelMode::kSerial;
    options.run.checkpoint_path = dir;  // a DIRECTORY, not a file
    options.run.checkpoint_every = 2;
    return count_template(graph, catalog_entry(name).tree, options);
  };
  const CountResult a = run_with_checkpoint("U5-1", 3);
  const CountResult b = run_with_checkpoint("U5-2", 4);
  EXPECT_GT(a.run.checkpoints_written, 0);
  EXPECT_GT(b.run.checkpoints_written, 0);

  // Two distinct checkpoint files: the jobs never overwrote each other.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().filename().string().find("fascia_count_"),
              std::string::npos);
    ++files;
  }
  EXPECT_EQ(files, 2u);

  // And each job resumes from ITS file despite the shared directory.
  CountOptions resume;
  resume.sampling.iterations = 8;
  resume.sampling.seed = 3;
  resume.execution.mode = ParallelMode::kSerial;
  resume.run.checkpoint_path = dir;
  resume.run.resume = true;
  const CountResult resumed =
      count_template(graph, catalog_entry("U5-1").tree, resume);
  EXPECT_TRUE(resumed.run.resumed);
  EXPECT_EQ(resumed.estimate, a.estimate);
}

// ---- dynamic graphs: mutate_graph / recount --------------------------------

/// One removable edge plus one insertable absent pair, valid against
/// the CURRENT state of `g` (regenerate after every apply).
GraphDelta simple_delta(const Graph& g, unsigned salt) {
  Xoshiro256 rng(1234 + salt);
  const EdgeList edges = edge_list(g);
  GraphDelta delta;
  const Edge gone =
      edges[rng.bounded(static_cast<std::uint32_t>(edges.size()))];
  delta.remove(gone.first, gone.second);
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  while (true) {
    const VertexId u = static_cast<VertexId>(rng.bounded(n));
    const VertexId v = static_cast<VertexId>(rng.bounded(n));
    if (u == v || g.has_edge(u, v)) continue;
    if (std::min(u, v) == gone.first && std::max(u, v) == gone.second) {
      continue;
    }
    delta.insert(u, v);
    break;
  }
  return delta;
}

svc::JobSpec incremental_spec(const std::string& graph,
                              const TreeTemplate& tmpl, int iterations,
                              std::uint64_t seed = 7) {
  svc::JobSpec spec = count_spec(graph, tmpl, iterations, seed);
  spec.options.execution.incremental = true;
  return spec;
}

svc::JobSpec recount_spec(svc::JobId of) {
  svc::JobSpec spec;
  spec.kind = svc::JobKind::kRecount;
  spec.recount_of = of;
  return spec;
}

TEST(SvcDelta, RecountAfterMutationMatchesDirectFullCount) {
  const TreeTemplate tmpl = catalog_entry("U5-1").tree;
  Graph mirror = erdos_renyi_gnm(800, 3200, 21);

  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(800, 3200, 21));

  const svc::JobId base_id =
      service.submit(incremental_spec("g", tmpl, 5, 13));
  ASSERT_EQ(service.wait(base_id).state, svc::JobState::kCompleted);
  EXPECT_EQ(service.health().retained_runs, 1u);
  EXPECT_EQ(service.graph_version("g"), 0u);

  const GraphDelta delta = simple_delta(mirror, 0);
  const svc::Service::Mutation mutation =
      service.mutate_graph("g", 0, delta);
  EXPECT_EQ(mutation.version, 1u);
  EXPECT_EQ(mutation.applied_edges, delta.size());
  EXPECT_EQ(service.graph_version("g"), 1u);

  const svc::JobId recount_id = service.submit(recount_spec(base_id));
  ASSERT_EQ(service.wait(recount_id).state, svc::JobState::kCompleted);
  const CountResult got = service.count_result(recount_id);
  EXPECT_EQ(got.delta.applied_edges, delta.size());
  EXPECT_GT(got.delta.dirty_vertices, 0u);
  EXPECT_GT(got.delta.stages_recomputed, 0u);

  // Same seed, full pass over the mutated graph: must be bit-identical.
  mirror.apply(delta);
  CountOptions direct;
  direct.sampling.iterations = 5;
  direct.sampling.seed = 13;
  direct.execution.mode = ParallelMode::kSerial;
  const CountResult expected = count_template(mirror, tmpl, direct);
  ASSERT_EQ(got.per_iteration.size(), expected.per_iteration.size());
  for (std::size_t i = 0; i < expected.per_iteration.size(); ++i) {
    EXPECT_EQ(got.per_iteration[i], expected.per_iteration[i]) << i;
  }
  EXPECT_EQ(got.estimate, expected.estimate);
}

TEST(SvcDelta, StaleExpectVersionRefusesWithoutMutating) {
  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(200, 600, 5));
  const Graph mirror = erdos_renyi_gnm(200, 600, 5);
  const GraphDelta delta = simple_delta(mirror, 1);

  try {
    service.mutate_graph("g", 7, delta);  // current version is 0
    FAIL() << "expected StaleVersionError";
  } catch (const svc::StaleVersionError& e) {
    EXPECT_EQ(e.current_version(), 0u);
    EXPECT_EQ(e.category(), ErrorCategory::kBadInput);
  }
  EXPECT_EQ(service.graph_version("g"), 0u);  // nothing mutated

  // The documented recovery: refresh the version and resend.
  EXPECT_EQ(service.mutate_graph("g", 0, delta).version, 1u);
  const GraphDelta next = simple_delta(*service.registry().get("g"), 2);
  EXPECT_EQ(service.mutate_graph("g", 1, next).version, 2u);

  EXPECT_THROW(service.mutate_graph("absent", 0, delta), Error);
}

TEST(SvcDelta, RecountComposesAcrossMultipleMutations) {
  const TreeTemplate tmpl = catalog_entry("U5-2").tree;
  Graph mirror = erdos_renyi_gnm(700, 2800, 9);

  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(700, 2800, 9));
  const svc::JobId base_id =
      service.submit(incremental_spec("g", tmpl, 4, 19));
  ASSERT_EQ(service.wait(base_id).state, svc::JobState::kCompleted);

  // Two mutations land before the handle recounts: the service must
  // compose the delta-log suffix, not just the last edit.
  for (unsigned round = 0; round < 2; ++round) {
    const GraphDelta delta = simple_delta(mirror, 10 + round);
    service.mutate_graph("g", round, delta);
    mirror.apply(delta);
  }

  const svc::JobId recount_id = service.submit(recount_spec(base_id));
  ASSERT_EQ(service.wait(recount_id).state, svc::JobState::kCompleted);
  const CountResult got = service.count_result(recount_id);

  CountOptions direct;
  direct.sampling.iterations = 4;
  direct.sampling.seed = 19;
  direct.execution.mode = ParallelMode::kSerial;
  const CountResult expected = count_template(mirror, tmpl, direct);
  ASSERT_EQ(got.per_iteration.size(), expected.per_iteration.size());
  for (std::size_t i = 0; i < expected.per_iteration.size(); ++i) {
    EXPECT_EQ(got.per_iteration[i], expected.per_iteration[i]) << i;
  }
  EXPECT_EQ(got.estimate, expected.estimate);

  // The handle advanced to the current version: a further mutation and
  // recount still work from the same retained run.
  const GraphDelta more = simple_delta(mirror, 30);
  service.mutate_graph("g", 2, more);
  mirror.apply(more);
  const svc::JobId again = service.submit(recount_spec(base_id));
  ASSERT_EQ(service.wait(again).state, svc::JobState::kCompleted);
  EXPECT_EQ(service.count_result(again).estimate,
            count_template(mirror, tmpl, direct).estimate);
}

TEST(SvcDelta, HandleBehindTruncatedDeltaLogFailsStale) {
  svc::Service::Config config;
  config.delta_log_limit = 1;  // only the latest mutation is replayable
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(300, 1200, 7));
  Graph mirror = erdos_renyi_gnm(300, 1200, 7);

  const svc::JobId base_id =
      service.submit(incremental_spec("g", catalog_entry("U5-1").tree, 3));
  ASSERT_EQ(service.wait(base_id).state, svc::JobState::kCompleted);

  for (unsigned round = 0; round < 2; ++round) {
    const GraphDelta delta = simple_delta(mirror, 40 + round);
    service.mutate_graph("g", round, delta);
    mirror.apply(delta);
  }

  // The handle is at version 0; the log only reaches back to version 1.
  const svc::JobId recount_id = service.submit(recount_spec(base_id));
  const svc::JobInfo done = service.wait(recount_id);
  EXPECT_EQ(done.state, svc::JobState::kFailed);
  EXPECT_NE(done.error.find("delta log"), std::string::npos) << done.error;

  // A stale handle is dropped, and a later recount says so at submit.
  EXPECT_EQ(service.health().retained_runs, 0u);
  try {
    service.submit(recount_spec(base_id));
    FAIL() << "expected a typed no-retained-run error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kBadInput);
    EXPECT_NE(std::string(e.what()).find("no retained run"),
              std::string::npos);
  }
}

TEST(SvcDelta, RetainedPoolEvictsLeastRecentlyUsed) {
  svc::Service::Config config;
  config.max_retained_runs = 1;
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(300, 1200, 3));

  const svc::JobId first =
      service.submit(incremental_spec("g", catalog_entry("U5-1").tree, 2));
  ASSERT_EQ(service.wait(first).state, svc::JobState::kCompleted);
  const svc::JobId second =
      service.submit(incremental_spec("g", catalog_entry("U5-2").tree, 2));
  ASSERT_EQ(service.wait(second).state, svc::JobState::kCompleted);

  // The pool holds one handle: the older run was evicted to make room.
  EXPECT_EQ(service.health().retained_runs, 1u);
  EXPECT_THROW(service.submit(recount_spec(first)), Error);

  const GraphDelta delta =
      simple_delta(*service.registry().get("g"), 50);
  service.mutate_graph("g", 0, delta);
  const svc::JobId recount_id = service.submit(recount_spec(second));
  EXPECT_EQ(service.wait(recount_id).state, svc::JobState::kCompleted);
}

TEST(SvcRegistry, ReRegisterResurrectsHeldEvictedGraph) {
  const Graph probe = erdos_renyi_gnm(500, 1500, 1);
  svc::GraphRegistry registry(probe.bytes() + probe.bytes() / 2);
  auto held = registry.put("g", erdos_renyi_gnm(500, 1500, 1));
  registry.put("other", erdos_renyi_gnm(500, 1500, 2));
  EXPECT_FALSE(registry.contains("g"));  // evicted; `held` keeps it alive

  // Re-registering the same graph must resurrect the held copy, not
  // admit a second allocation the byte accounting would undercount.
  auto back = registry.put("g", erdos_renyi_gnm(500, 1500, 1));
  EXPECT_EQ(back.get(), held.get());
  EXPECT_EQ(registry.stats().resurrections, 1u);
  EXPECT_TRUE(registry.contains("g"));
  EXPECT_LE(registry.stats().resident_bytes, registry.stats().budget_bytes);
}

// ---- concurrent sessions over the shared obs registry ----------------------

// Gauges ride along in every delta (they are last-set values, not
// rates), so "this session did work" means counter or histogram
// activity in the drained slice.
bool has_activity(const std::vector<obs::MetricSnapshot>& delta) {
  for (const obs::MetricSnapshot& snap : delta) {
    if (snap.kind != obs::InstrumentKind::kGauge) return true;
  }
  return false;
}

TEST(SvcSession, TwoSessionsScrapeWhileJobsWrite) {
  obs::set_enabled(true);
  svc::Service::Config config;
  config.workers = 2;
  svc::Service service(config);
  service.registry().put("g", erdos_renyi_gnm(800, 3200, 9));

  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    // Hammer the registry while both sessions' jobs are writing to it:
    // scrape() must stay consistent (counters never go backwards).
    double last_total = 0.0;
    while (!stop.load(std::memory_order_relaxed)) {
      double total = 0.0;
      for (const obs::MetricSnapshot& snap : obs::Registry::global().scrape()) {
        if (snap.kind == obs::InstrumentKind::kCounter) total += snap.value;
      }
      EXPECT_GE(total, last_total);
      last_total = total;
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  svc::Session session_a(service);
  svc::Session session_b(service);
  svc::JobSpec job_a = count_spec("g", catalog_entry("U7-1").tree, 30);
  job_a.options.observability.enabled = true;
  svc::JobSpec job_b = count_spec("g", catalog_entry("U7-2").tree, 30);
  job_b.options.observability.enabled = true;
  const svc::JobId id_a = session_a.submit(std::move(job_a));
  const svc::JobId id_b = session_b.submit(std::move(job_b));
  EXPECT_EQ(service.wait(id_a).state, svc::JobState::kCompleted);
  EXPECT_EQ(service.wait(id_b).state, svc::JobState::kCompleted);

  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0);

  // Each session drains real activity, and a quiet re-drain has none.
  EXPECT_TRUE(has_activity(session_a.drain_metrics()));
  EXPECT_FALSE(has_activity(session_a.drain_metrics()));
  obs::set_enabled(false);
}

TEST(SvcSession, DrainMetricsScopesToTheSessionWindow) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  svc::Service service({});
  service.registry().put("g", erdos_renyi_gnm(300, 1200, 5));

  svc::Session before(service);
  svc::JobSpec job = count_spec("g", catalog_entry("U5-1").tree, 10);
  job.options.observability.enabled = true;
  before.submit(std::move(job));
  service.wait(before.submitted().back());
  EXPECT_TRUE(has_activity(before.drain_metrics()));

  // A session baselined AFTER that work sees none of it.
  svc::Session after(service);
  EXPECT_FALSE(has_activity(after.drain_metrics()));
  obs::set_enabled(false);
}

}  // namespace
}  // namespace fascia
