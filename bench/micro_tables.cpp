// Micro: DP table encodings (naive / compact / hash / succinct) and the
// out-of-core rung of the memory ladder.
//
// Part 1 sweeps the four encodings over path/star/spider templates at
// k = 9 on a sparse road-like network, reporting real peak table bytes
// (MemTracker) and the best per-iteration DP time.  Part 2 is the
// budget demo from the ROADMAP item: a k = 10 multi-template profile
// run under a byte budget that every dense-encoding *estimate* exceeds
// — the run completes by paging completed tables to disk, and its
// estimates stay bit-identical to the unconstrained run.
//
// Writes BENCH_tables.json (--json to relocate).  --check BASELINE
// turns the expectations into a gate for CI:
//   * succinct peak bytes <= 0.5x compact on every k = 9 template;
//   * succinct/compact time per iteration no worse than the baseline
//     file's ratio by more than 1/0.75 (a same-host ratio of ratios,
//     like the other micro gates);
//   * the budget demo completes, spills > 0 bytes, stays bit-identical,
//     and its budget is below the smallest dense-encoding estimate.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/counter.hpp"
#include "obs/json.hpp"
#include "run/memory.hpp"
#include "sched/batch.hpp"
#include "sched/plan.hpp"
#include "util/mem_tracker.hpp"

namespace {

using namespace fascia;

constexpr double kCheckTolerance = 0.75;  // fail past baseline / 0.75

/// The baseline's succinct/compact time ratio per template.
std::map<std::string, double> baseline_time_ratios(const obs::Json& doc) {
  std::map<std::string, double> out;
  if (const obs::Json* ratios = doc.find("ratios")) {
    for (const obs::Json& entry : ratios->elements()) {
      out[entry.get_string("template")] =
          entry.get_double("succinct_over_compact_time", 0.0);
    }
  }
  return out;
}

TreeTemplate spider(int legs, int leg_len) {
  // Center 0 with `legs` paths of `leg_len` edges each.
  TreeTemplate::EdgeList edges;
  int next = 1;
  for (int leg = 0; leg < legs; ++leg) {
    int prev = 0;
    for (int i = 0; i < leg_len; ++i) {
      edges.push_back({prev, next});
      prev = next++;
    }
  }
  return TreeTemplate::from_edges(next, edges);
}

double best_iteration_seconds(const CountResult& result) {
  double best = result.seconds_total;
  for (double s : result.seconds_per_iteration) best = std::min(best, s);
  return best;
}

bool bit_identical(const std::vector<sched::BatchJobResult>& a,
                   const std::vector<sched::BatchJobResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (a[j].per_iteration != b[j].per_iteration) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("micro_tables: DP table encodings + out-of-core rung");
  ctx.cli.add_option("json", "output path for the results document",
                     "BENCH_tables.json");
  ctx.cli.add_option("check",
                     "baseline BENCH_tables.json: exit 1 if a succinct/paging "
                     "expectation fails (CI)",
                     "");
  if (!ctx.parse(argc, argv)) return 0;
  const std::string check_path = ctx.cli.str("check");
  const bool check = !check_path.empty();
  std::map<std::string, double> baseline_ratios;
  if (check) {
    const std::optional<obs::Json> baseline = bench::read_baseline(check_path);
    if (baseline) baseline_ratios = baseline_time_ratios(*baseline);
    if (baseline_ratios.empty()) {
      std::fprintf(stderr, "check: no ratios in %s\n", check_path.c_str());
      return 1;
    }
  }

  bench::banner("Micro: table encodings",
                "ROADMAP 'succinct tables and adaptive sampling' "
                "(Motivo-style encodings over the §III-C layouts)",
                "road-like network; k = 9 encoding sweep + k = 10 "
                "paged budget demo");

  const Graph g = ctx.dataset("road", 0.02);
  std::printf("graph: %s\n\n", bench::describe_graph(g).c_str());

  obs::Json doc = obs::Json::object();
  doc["bench"] = "micro_tables";
  doc["graph"] = bench::describe_graph(g);
  bool gate_ok = true;
  std::vector<std::string> gate_failures;

  // ---- part 1: encoding sweep at k = 9 ----------------------------------
  struct Shape {
    const char* name;
    TreeTemplate tmpl;
  };
  const Shape shapes[] = {{"path9", TreeTemplate::path(9)},
                          {"star9", TreeTemplate::star(9)},
                          {"spider9", spider(4, 2)}};
  const TableKind kinds[] = {TableKind::kNaive, TableKind::kCompact,
                             TableKind::kHash, TableKind::kSuccinct};

  TablePrinter table({"Template", "layout", "peak table", "time/iter (s)",
                      "vs compact"});
  auto csv = ctx.csv({"template", "layout", "peak_bytes", "seconds"});
  obs::Json encodings = obs::Json::array();
  obs::Json ratios = obs::Json::array();

  for (const Shape& shape : shapes) {
    std::size_t compact_bytes = 0;
    double compact_seconds = 0.0;
    std::size_t succinct_bytes = 0;
    double succinct_seconds = 0.0;
    for (TableKind kind : kinds) {
      CountOptions options;
      options.sampling.iterations = 3;
      options.sampling.seed = ctx.seed;
      options.execution.mode = ParallelMode::kInnerLoop;
      options.execution.threads = ctx.threads;
      options.execution.table = kind;
      const CountResult result = count_template(g, shape.tmpl, options);
      const double seconds = best_iteration_seconds(result);
      if (kind == TableKind::kCompact) {
        compact_bytes = result.peak_table_bytes;
        compact_seconds = seconds;
      }
      if (kind == TableKind::kSuccinct) {
        succinct_bytes = result.peak_table_bytes;
        succinct_seconds = seconds;
      }
      const std::string vs =
          compact_bytes == 0
              ? std::string("-")
              : TablePrinter::num(
                    static_cast<double>(result.peak_table_bytes) /
                        static_cast<double>(compact_bytes),
                    2) +
                    "x bytes";
      table.add_row({shape.name, table_kind_name(kind),
                     TablePrinter::bytes(result.peak_table_bytes),
                     TablePrinter::num(seconds, 4), vs});
      csv.row({shape.name, table_kind_name(kind),
               std::to_string(result.peak_table_bytes),
               TablePrinter::num(seconds, 5)});
      obs::Json entry = obs::Json::object();
      entry["template"] = shape.name;
      entry["table"] = table_kind_name(kind);
      entry["peak_bytes"] = static_cast<unsigned long long>(
          result.peak_table_bytes);
      entry["seconds"] = seconds;
      encodings.push_back(std::move(entry));
    }
    const double byte_ratio = static_cast<double>(succinct_bytes) /
                              static_cast<double>(compact_bytes);
    const double time_ratio =
        compact_seconds > 0.0 ? succinct_seconds / compact_seconds : 1.0;
    obs::Json ratio = obs::Json::object();
    ratio["template"] = shape.name;
    ratio["succinct_over_compact_bytes"] = byte_ratio;
    ratio["succinct_over_compact_time"] = time_ratio;
    ratios.push_back(std::move(ratio));
    if (byte_ratio > 0.5) {
      gate_ok = false;
      gate_failures.push_back(std::string(shape.name) +
                              ": succinct bytes ratio " +
                              TablePrinter::num(byte_ratio, 2) + " > 0.5");
    }
    if (check) {
      const auto base = baseline_ratios.find(shape.name);
      if (base == baseline_ratios.end() || base->second <= 0.0) {
        gate_ok = false;
        gate_failures.push_back(std::string(shape.name) +
                                ": missing from " + check_path);
      } else if (time_ratio > base->second / kCheckTolerance) {
        gate_ok = false;
        gate_failures.push_back(
            std::string(shape.name) + ": succinct time ratio " +
            TablePrinter::num(time_ratio, 2) + " > baseline " +
            TablePrinter::num(base->second, 2) + " / 0.75");
      }
    }
  }
  table.print();
  doc["encodings"] = std::move(encodings);
  doc["ratios"] = std::move(ratios);

  // ---- part 2: k = 10 budget demo (paged profile) -----------------------
  std::printf("\nbudget demo: k = 10 profile under a budget the dense "
              "encodings cannot satisfy\n");
  std::vector<sched::BatchJob> jobs;
  for (TreeTemplate t :
       {TreeTemplate::path(10), TreeTemplate::star(10), spider(3, 3)}) {
    sched::BatchJob job;
    job.tmpl = std::move(t);
    job.iterations = 2;
    jobs.push_back(std::move(job));
  }
  sched::BatchOptions batch;
  batch.table = TableKind::kSuccinct;
  batch.seed = ctx.seed;
  batch.mode = ParallelMode::kInnerLoop;
  batch.num_threads = ctx.threads;

  // Unconstrained reference run: real peak and the per-job estimates the
  // paged run must reproduce bit-for-bit.
  MemTracker::reset_peak();
  const sched::BatchResult reference = sched::run_batch(g, jobs, batch);
  const std::size_t real_peak = MemTracker::peak();

  // The budget: forces paging (below the real in-memory peak) while
  // every dense-encoding *estimate* — what admission planning sees —
  // is far above it.
  const std::size_t budget = real_peak * 3 / 5;
  const sched::BatchPlan plan = sched::plan_batch(g, jobs, batch);
  const int k = plan.num_colors;
  obs::Json estimates = obs::Json::object();
  std::size_t min_dense = static_cast<std::size_t>(-1);
  for (TableKind kind : kinds) {
    const std::size_t est = run::estimate_peak_bytes(
        plan.merged, k, g.num_vertices(), kind, g.has_labels());
    estimates[table_kind_name(kind)] = static_cast<unsigned long long>(est);
    if (kind != TableKind::kSuccinct) min_dense = std::min(min_dense, est);
  }
  estimates["succinct_working_set"] = static_cast<unsigned long long>(
      run::estimate_spill_working_set_bytes(plan.merged, k, g.num_vertices(),
                                            TableKind::kSuccinct,
                                            g.has_labels()));

  const std::filesystem::path spill_dir = "micro_tables_spill";
  std::filesystem::create_directories(spill_dir);
  sched::BatchOptions paged = batch;
  paged.run.memory_budget_bytes = budget;
  paged.run.spill_dir = spill_dir.string();
  const sched::BatchResult spilled = sched::run_batch(g, jobs, paged);
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);

  const bool identical = bit_identical(reference.jobs, spilled.jobs);
  const bool dense_fail = budget < min_dense;
  std::printf("  in-memory peak %s, budget %s (min dense estimate %s)\n",
              TablePrinter::bytes(real_peak).c_str(),
              TablePrinter::bytes(budget).c_str(),
              TablePrinter::bytes(min_dense).c_str());
  std::printf("  paged run: status %s, spilled %s over %d page-outs, "
              "bit-identical %s\n",
              run_status_name(spilled.run.status),
              TablePrinter::bytes(spilled.run.spilled_bytes).c_str(),
              spilled.run.spill_events, identical ? "yes" : "NO");

  obs::Json demo = obs::Json::object();
  demo["k"] = k;
  demo["templates"] = static_cast<int>(jobs.size());
  demo["in_memory_peak_bytes"] = static_cast<unsigned long long>(real_peak);
  demo["budget_bytes"] = static_cast<unsigned long long>(budget);
  demo["estimates"] = std::move(estimates);
  demo["dense_encodings_fail_admission"] = dense_fail;
  demo["status"] = run_status_name(spilled.run.status);
  demo["spilled_bytes"] =
      static_cast<unsigned long long>(spilled.run.spilled_bytes);
  demo["spill_events"] = spilled.run.spill_events;
  demo["bit_identical"] = identical;
  doc["budget_demo"] = std::move(demo);

  // The ladder reports kMemDegraded whenever it degraded anything (it
  // switched layouts and armed paging here, by construction); complete
  // means every requested coloring ran.
  const bool complete =
      spilled.run.completed_iterations == reference.run.completed_iterations &&
      (spilled.run.status == RunStatus::kCompleted ||
       spilled.run.status == RunStatus::kMemDegraded);
  if (!complete) {
    gate_ok = false;
    gate_failures.push_back(
        std::string("budget demo: status ") +
        run_status_name(spilled.run.status) + " after " +
        std::to_string(spilled.run.completed_iterations) + "/" +
        std::to_string(reference.run.completed_iterations) + " colorings");
  }
  if (spilled.run.spilled_bytes == 0) {
    gate_ok = false;
    gate_failures.push_back("budget demo: nothing spilled");
  }
  if (!identical) {
    gate_ok = false;
    gate_failures.push_back("budget demo: paged estimates differ");
  }
  if (!dense_fail) {
    gate_ok = false;
    gate_failures.push_back("budget demo: a dense estimate fits the budget");
  }

  doc["check_passed"] = gate_ok;
  const std::string out_path = ctx.cli.str("json");
  std::ofstream out(out_path);
  out << doc.dump(2) << "\n";
  std::printf("\nwrote %s\n", out_path.c_str());

  if (check && !gate_ok) {
    for (const std::string& failure : gate_failures) {
      std::printf("CHECK FAILED: %s\n", failure.c_str());
    }
    return 1;
  }
  if (check) std::printf("check: all gates passed\n");
  return 0;
}
