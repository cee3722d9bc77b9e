// micro_svc: what the counting service buys (and costs).
//
// Workload A — registry amortization over the wire: a fascia_server on
// an ephemeral loopback port, one client.  The served graph lives in
// an edge-list file (written once by the bench), the way real networks
// arrive.  "cold" requests force a reload from that file (text parse +
// CSR build) before counting; "warm" requests hit the registry's
// cached CSR and cached partition tree.  The registry's reason to
// exist is the gap: a warm count round-trip must be at least 5x faster
// than the cold load+count, because parsing the graph dominates any
// one-shot request on a real network.
//
// Workload B — multi-tenant latency: an in-process Service with a
// steady batch backlog, measuring interactive job submit->terminal
// latency (p50/p99).  Reported, not gated: the numbers document what
// priority dispatch + preemption deliver on this container.
//
// Workload C — overload protection (PR 7): one worker, a tiny batch
// queue bound, and a flood of batch submits that keeps the queue
// saturated so every top-up ends in an OverloadedError.  Interactive
// latency is measured THROUGH that shedding pressure: the contract is
// that rejecting batch overflow keeps the interactive path flowing,
// so its p99 must stay bounded while batch work is being refused.
//
// Results go to --json (default BENCH_svc.json).  --check BASELINE
// re-runs and fails (exit 1) when warm_speedup drops below 5x or
// below 0.75x the committed baseline, or when the shedding-pressure
// interactive p99 blows past 3x the baseline (floored at 250 ms for
// noisy CI containers), or when shedding never engaged at all.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph/io.hpp"
#include "obs/json.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "treelet/catalog.hpp"
#include "util/timer.hpp"

namespace {

constexpr double kCheckTolerance = 0.75;
constexpr double kWarmSpeedupFloor = 5.0;
constexpr double kShedP99Slack = 3.0;      ///< vs baseline
constexpr double kShedP99FloorSeconds = 0.25;  ///< noisy-CI absolute floor

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fascia;
  using obs::Json;

  bench::Context ctx("micro_svc: counting service registry + latency");
  ctx.cli.add_option("dataset", "graph served by the registry", "portland");
  ctx.cli.add_option("load-scale", "dataset scale for the served graph",
                     "0.002");
  ctx.cli.add_option("reps", "cold/warm request repetitions", "12");
  ctx.cli.add_option("iters", "sampling iterations per count request", "1");
  ctx.cli.add_option("json", "machine-readable output path",
                     "BENCH_svc.json");
  ctx.cli.add_option("check", "baseline BENCH_svc.json to gate against", "");
  if (!ctx.parse(argc, argv)) return 0;
  const std::string dataset = ctx.cli.str("dataset");
  const double load_scale = ctx.scale(ctx.cli.real("load-scale"));
  const int reps = static_cast<int>(ctx.cli.integer("reps"));
  const int iters = static_cast<int>(ctx.cli.integer("iters"));
  const std::string json_path = ctx.cli.str("json");
  const std::string check_path = ctx.cli.str("check");

  bench::banner("micro_svc",
                "service layer (DESIGN.md §11): registry amortization, "
                "multi-tenant latency",
                dataset + " @ " + std::to_string(load_scale) + ", " +
                    std::to_string(reps) + " reps, U5-1 x " +
                    std::to_string(iters) + " iterations per request");

  // ---- workload A: cold vs warm over the wire -----------------------------
  // The graph is served from an edge-list file: the cold path pays the
  // text parse + CSR build a one-shot caller would.
  Graph source = make_dataset(dataset, load_scale, ctx.seed);
  const std::string edge_file = json_path + ".edges.tmp";
  write_edge_list(source, edge_file);

  svc::Server::Config server_config;
  server_config.service.workers = 1;
  svc::Server server(server_config);
  server.start();
  svc::Client client = svc::Client::connect_tcp("127.0.0.1", server.port());

  Json count_request = Json::object();
  count_request["op"] = "count";
  count_request["graph"] = dataset;
  count_request["template"] = "U5-1";
  Json options = Json::object();
  options["iterations"] = iters;
  options["seed"] = ctx.seed;
  options["mode"] = "serial";
  count_request["options"] = std::move(options);

  Json load_request = Json::object();
  load_request["op"] = "load_graph";
  load_request["name"] = dataset;
  load_request["file"] = edge_file;
  load_request["seed"] = ctx.seed;

  // Warm-up: one full load + count outside the measurement.
  const Json loaded = client.request(load_request);
  if (!loaded.get_bool("ok")) {
    std::fprintf(stderr, "load_graph failed: %s\n",
                 loaded.get_string("error").c_str());
    return 1;
  }
  client.request(count_request);

  load_request["reload"] = true;
  std::vector<double> cold_seconds;
  std::vector<double> warm_seconds;
  double expected_estimate = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer cold_timer;
    client.request(load_request);  // forces regenerate + re-register
    const Json cold = client.request(count_request);
    cold_seconds.push_back(cold_timer.elapsed_s());

    WallTimer warm_timer;
    const Json warm = client.request(count_request);
    warm_seconds.push_back(warm_timer.elapsed_s());

    // Same graph, same seed: the service must not perturb estimates.
    if (rep == 0) {
      expected_estimate = cold.get_double("estimate");
    }
    if (warm.get_double("estimate") != expected_estimate ||
        cold.get_double("estimate") != expected_estimate) {
      std::fprintf(stderr, "estimate drifted between requests\n");
      return 1;
    }
  }
  const double cold_p50 = percentile(cold_seconds, 0.5);
  const double warm_p50 = percentile(warm_seconds, 0.5);
  const double warm_speedup = warm_p50 > 0.0 ? cold_p50 / warm_p50 : 0.0;

  const Json status = client.status();
  const Json* registry = status.find("registry");
  client.shutdown();
  server.wait_shutdown_for(10.0);
  server.stop();
  std::remove(edge_file.c_str());

  // ---- workload B: interactive latency under a batch backlog --------------
  svc::Service::Config service_config;
  service_config.workers = 2;
  svc::Service service(service_config);
  service.registry().put("g", std::move(source));

  const int batch_jobs = 4;
  std::vector<svc::JobId> backlog;
  for (int b = 0; b < batch_jobs; ++b) {
    svc::JobSpec spec;
    spec.kind = svc::JobKind::kCount;
    spec.graph = "g";
    spec.tmpl = catalog_entry("U7-1").tree;
    spec.options.sampling.iterations = 50;
    spec.options.sampling.seed = ctx.seed + static_cast<std::uint64_t>(b);
    spec.options.execution.mode = ParallelMode::kSerial;
    spec.priority = svc::Priority::kBatch;
    backlog.push_back(service.submit(std::move(spec)));
  }

  std::vector<double> interactive_seconds;
  for (int rep = 0; rep < reps; ++rep) {
    svc::JobSpec spec;
    spec.kind = svc::JobKind::kCount;
    spec.graph = "g";
    spec.tmpl = catalog_entry("U5-1").tree;
    spec.options.sampling.iterations = iters;
    spec.options.sampling.seed = ctx.seed;
    spec.options.execution.mode = ParallelMode::kSerial;
    spec.priority = svc::Priority::kInteractive;
    spec.preemptible = false;
    WallTimer timer;
    const svc::JobId id = service.submit(std::move(spec));
    service.wait(id);
    interactive_seconds.push_back(timer.elapsed_s());
  }
  for (const svc::JobId id : backlog) service.wait(id);
  service.shutdown();

  const double interactive_p50 = percentile(interactive_seconds, 0.5);
  const double interactive_p99 = percentile(interactive_seconds, 0.99);

  // ---- workload C: interactive p99 while shedding batch overflow ----------
  // One worker and a 2-deep batch queue bound: topping the backlog up
  // past the bound before every interactive request guarantees the
  // service is actively REFUSING batch work (OverloadedError with a
  // Retry-After hint) for the whole measurement window.
  const std::string shed_work_dir = json_path + ".shedwork.tmp";
  std::filesystem::remove_all(shed_work_dir);
  svc::Service::Config shed_config;
  shed_config.workers = 1;
  shed_config.max_queued_batch = 2;
  shed_config.work_dir = shed_work_dir;
  svc::Service shed_service(shed_config);
  shed_service.registry().put("g", make_dataset(dataset, load_scale,
                                                ctx.seed));

  std::uint64_t seed_counter = 0;
  std::vector<svc::JobId> shed_backlog;
  double retry_after_hint = 0.0;
  const auto top_up_until_shedding = [&] {
    // The queue bound is 2, so 4 attempts always end in a rejection.
    for (int b = 0; b < 4; ++b) {
      svc::JobSpec spec;
      spec.kind = svc::JobKind::kCount;
      spec.graph = "g";
      spec.tmpl = catalog_entry("U7-1").tree;
      spec.options.sampling.iterations = 50;
      spec.options.sampling.seed = ctx.seed + ++seed_counter;
      spec.options.execution.mode = ParallelMode::kSerial;
      spec.priority = svc::Priority::kBatch;
      try {
        shed_backlog.push_back(shed_service.submit(std::move(spec)));
      } catch (const svc::OverloadedError& e) {
        retry_after_hint = e.retry_after_seconds();
        return;
      }
    }
  };

  std::vector<double> shed_interactive_seconds;
  for (int rep = 0; rep < reps; ++rep) {
    top_up_until_shedding();
    svc::JobSpec spec;
    spec.kind = svc::JobKind::kCount;
    spec.graph = "g";
    spec.tmpl = catalog_entry("U5-1").tree;
    spec.options.sampling.iterations = iters;
    spec.options.sampling.seed = ctx.seed;
    spec.options.execution.mode = ParallelMode::kSerial;
    spec.priority = svc::Priority::kInteractive;
    spec.preemptible = false;
    WallTimer timer;
    const svc::JobId id = shed_service.submit(std::move(spec));
    shed_service.wait(id);
    shed_interactive_seconds.push_back(timer.elapsed_s());
  }
  const std::uint64_t shed_total = shed_service.health().shed_total;
  for (const svc::JobId id : shed_backlog) shed_service.cancel(id);
  shed_service.shutdown();
  std::filesystem::remove_all(shed_work_dir);

  const double shed_p50 = percentile(shed_interactive_seconds, 0.5);
  const double shed_p99 = percentile(shed_interactive_seconds, 0.99);

  // ---- report -------------------------------------------------------------
  TablePrinter table({"Metric", "value"});
  table.add_row({"cold load+count p50 (ms)",
                 TablePrinter::num(cold_p50 * 1e3, 3)});
  table.add_row({"warm count p50 (ms)",
                 TablePrinter::num(warm_p50 * 1e3, 3)});
  table.add_row({"warm speedup", TablePrinter::num(warm_speedup, 2) + "x"});
  table.add_row({"interactive p50 (ms)",
                 TablePrinter::num(interactive_p50 * 1e3, 3)});
  table.add_row({"interactive p99 (ms)",
                 TablePrinter::num(interactive_p99 * 1e3, 3)});
  table.add_row({"shedding interactive p50 (ms)",
                 TablePrinter::num(shed_p50 * 1e3, 3)});
  table.add_row({"shedding interactive p99 (ms)",
                 TablePrinter::num(shed_p99 * 1e3, 3)});
  table.add_row({"batch submits shed",
                 TablePrinter::num(static_cast<long long>(shed_total))});
  table.add_row({"retry-after hint (s)",
                 TablePrinter::num(retry_after_hint, 2)});
  if (registry != nullptr) {
    table.add_row({"registry hits",
                   TablePrinter::num(
                       static_cast<long long>(registry->get_int("hits")))});
    table.add_row({"registry misses",
                   TablePrinter::num(
                       static_cast<long long>(registry->get_int("misses")))});
  }
  table.print();

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"micro_svc\",\n");
  std::fprintf(json, "  \"dataset\": \"%s\",\n", dataset.c_str());
  std::fprintf(json, "  \"load_scale\": %.6f,\n", load_scale);
  std::fprintf(json, "  \"reps\": %d,\n", reps);
  std::fprintf(json, "  \"iterations_per_request\": %d,\n", iters);
  std::fprintf(json, "  \"cold_seconds_p50\": %.6f,\n", cold_p50);
  std::fprintf(json, "  \"warm_seconds_p50\": %.6f,\n", warm_p50);
  std::fprintf(json, "  \"warm_speedup\": %.4f,\n", warm_speedup);
  std::fprintf(json, "  \"interactive_p50_seconds\": %.6f,\n",
               interactive_p50);
  std::fprintf(json, "  \"interactive_p99_seconds\": %.6f,\n",
               interactive_p99);
  std::fprintf(json, "  \"batch_backlog_jobs\": %d,\n", batch_jobs);
  std::fprintf(json, "  \"shed_interactive_p50_seconds\": %.6f,\n", shed_p50);
  std::fprintf(json, "  \"shed_interactive_p99_seconds\": %.6f,\n", shed_p99);
  std::fprintf(json, "  \"shed_total\": %llu,\n",
               static_cast<unsigned long long>(shed_total));
  std::fprintf(json, "  \"retry_after_seconds\": %.3f\n", retry_after_hint);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());

  if (!check_path.empty()) {
    const std::optional<Json> baseline_doc = bench::read_baseline(check_path);
    const double baseline =
        baseline_doc ? baseline_doc->get_double("warm_speedup", 0.0) : 0.0;
    if (baseline <= 0.0) {
      std::fprintf(stderr, "check: no warm_speedup in %s\n",
                   check_path.c_str());
      return 1;
    }
    const double floor =
        std::max(kWarmSpeedupFloor, kCheckTolerance * baseline);
    const bool ok = warm_speedup >= floor;
    std::printf("check: warm_speedup baseline %.2fx now %.2fx floor %.2fx  "
                "%s\n",
                baseline, warm_speedup, floor, ok ? "ok" : "REGRESSED");
    if (!ok) {
      std::fprintf(stderr,
                   "check: warm registry hit no longer >=%.1fx faster than "
                   "cold load (vs %s)\n",
                   kWarmSpeedupFloor, check_path.c_str());
      return 1;
    }

    // Overload-protection gate: shedding must have engaged (the whole
    // point of workload C), the rejection must carry a usable
    // Retry-After hint, and interactive p99 under shedding pressure
    // must stay within a generous envelope of the baseline.
    if (shed_total == 0 || retry_after_hint <= 0.0) {
      std::fprintf(stderr,
                   "check: batch shedding never engaged (shed_total=%llu, "
                   "retry_after=%.3f)\n",
                   static_cast<unsigned long long>(shed_total),
                   retry_after_hint);
      return 1;
    }
    const double baseline_shed_p99 =
        baseline_doc->get_double("shed_interactive_p99_seconds", 0.0);
    if (baseline_shed_p99 > 0.0) {
      const double ceiling = std::max(kShedP99FloorSeconds,
                                      kShedP99Slack * baseline_shed_p99);
      const bool shed_ok = shed_p99 <= ceiling;
      std::printf("check: shedding interactive p99 baseline %.1fms now "
                  "%.1fms ceiling %.1fms  %s\n",
                  baseline_shed_p99 * 1e3, shed_p99 * 1e3, ceiling * 1e3,
                  shed_ok ? "ok" : "REGRESSED");
      if (!shed_ok) {
        std::fprintf(stderr,
                     "check: interactive latency no longer protected while "
                     "shedding batch overflow (vs %s)\n",
                     check_path.c_str());
        return 1;
      }
    }
  }
  return 0;
}
