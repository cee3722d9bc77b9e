// micro_delta: what incremental recounting buys on a dynamic graph.
//
// Workload: one synthetic sparse network (G(n,m) largest component,
// >= 1M edges at the default size), counted once with retained DP
// state (core/incremental.hpp), then hit with a stream of small edit
// batches.  Each round builds a random delta (absent-pair insertions
// plus present-edge deletions), applies it, and measures BOTH paths
// to the new count:
//
//   full:     count_template() on the mutated graph from scratch;
//   recount:  RunHandle::recount() restricted to the delta's
//             dirty-vertex balls, splicing clean rows verbatim.
//
// The two must agree BIT-IDENTICALLY (same seed => same colorings =>
// same exact integer-valued doubles) — the bench exits 1 on the first
// mismatch, making it a correctness harness as much as a stopwatch.
// The point of the delta path is the ratio: with the dirty region
// capped at ~1% of the graph, the recount must be at least 5x faster
// than the full pass.
//
// Results go to --json (default BENCH_delta.json).  --check BASELINE
// re-runs and fails (exit 1) when the speedup drops below 5x or below
// 0.75x the committed baseline, when the dirty fraction exceeds 1%
// (the workload would no longer exercise the advertised regime), or
// when the graph fell under 1M edges.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/counter.hpp"
#include "core/incremental.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "treelet/catalog.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

constexpr double kCheckTolerance = 0.75;
constexpr double kSpeedupFloor = 5.0;
constexpr double kDirtyFractionCeiling = 0.01;
constexpr long long kMinEdges = 1000000;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// A random edit batch valid against `g`: `inserts` absent pairs and
/// `deletes` existing edges, all distinct.
fascia::GraphDelta random_delta(const fascia::Graph& g,
                                const fascia::EdgeList& edges, int inserts,
                                int deletes, fascia::Xoshiro256& rng) {
  using fascia::Edge;
  using fascia::VertexId;
  fascia::GraphDelta delta;
  std::vector<Edge> ins;
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  while (static_cast<int>(ins.size()) < inserts) {
    const VertexId u = static_cast<VertexId>(rng.bounded(n));
    const VertexId v = static_cast<VertexId>(rng.bounded(n));
    if (u == v || g.has_edge(u, v)) continue;
    const Edge e{std::min(u, v), std::max(u, v)};
    if (std::find(ins.begin(), ins.end(), e) != ins.end()) continue;
    ins.push_back(e);
    delta.insert(e.first, e.second);
  }
  std::vector<Edge> del;
  while (static_cast<int>(del.size()) < deletes) {
    const Edge e =
        edges[rng.bounded(static_cast<std::uint32_t>(edges.size()))];
    if (std::find(del.begin(), del.end(), e) != del.end()) continue;
    del.push_back(e);
    delta.remove(e.first, e.second);
  }
  return delta;
}

bool bit_identical(const fascia::CountResult& a, const fascia::CountResult& b) {
  if (a.estimate != b.estimate) return false;
  if (a.per_iteration.size() != b.per_iteration.size()) return false;
  for (std::size_t i = 0; i < a.per_iteration.size(); ++i) {
    if (a.per_iteration[i] != b.per_iteration[i]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fascia;
  using obs::Json;

  bench::Context ctx("micro_delta: incremental recount vs full recount");
  ctx.cli.add_option("vertices", "G(n,m) vertex count", "1200000");
  ctx.cli.add_option("edges", "G(n,m) edge count", "2000000");
  ctx.cli.add_option("template", "catalog template to count", "U5-1");
  ctx.cli.add_option("iterations", "color-coding iterations", "2");
  ctx.cli.add_option("edits", "insertions + deletions per delta", "8");
  ctx.cli.add_option("rounds", "sequential deltas to measure", "3");
  ctx.cli.add_option("table", "DP table layout: naive|compact|hash|succinct",
                     "compact");
  ctx.cli.add_option("json", "machine-readable output path",
                     "BENCH_delta.json");
  ctx.cli.add_option("check", "baseline BENCH_delta.json to gate against", "");
  if (!ctx.parse(argc, argv)) return 0;
  const auto n_target = static_cast<VertexId>(ctx.cli.integer("vertices"));
  const auto m_target = ctx.cli.integer("edges");
  const int iterations = static_cast<int>(ctx.cli.integer("iterations"));
  const int edits = static_cast<int>(ctx.cli.integer("edits"));
  const int rounds = static_cast<int>(ctx.cli.integer("rounds"));
  const std::string json_path = ctx.cli.str("json");
  const std::string check_path = ctx.cli.str("check");

  bench::banner("micro_delta",
                "dynamic-graph counting: dirty-ball recount vs full pass",
                "G(" + std::to_string(n_target) + ", " +
                    std::to_string(m_target) + ") largest component, " +
                    ctx.cli.str("template") + " x " +
                    std::to_string(iterations) + " iterations, " +
                    std::to_string(edits) + " edits x " +
                    std::to_string(rounds) + " rounds");

  Graph graph = largest_component(erdos_renyi_gnm(
      n_target, static_cast<std::size_t>(m_target), ctx.seed));
  std::printf("graph: %s\n\n", bench::describe_graph(graph).c_str());

  TableKind table = TableKind::kCompact;
  const std::string table_name = ctx.cli.str("table");
  if (table_name == "naive") table = TableKind::kNaive;
  else if (table_name == "compact") table = TableKind::kCompact;
  else if (table_name == "hash") table = TableKind::kHash;
  else if (table_name == "succinct") table = TableKind::kSuccinct;
  else {
    std::fprintf(stderr, "unknown --table %s\n", table_name.c_str());
    return 1;
  }

  const TreeTemplate tmpl = catalog_entry(ctx.cli.str("template")).tree;
  CountOptions incremental_options;
  incremental_options.sampling.iterations = iterations;
  incremental_options.sampling.seed = ctx.seed;
  incremental_options.execution.table = table;
  incremental_options.execution.mode = ParallelMode::kSerial;
  incremental_options.execution.incremental = true;
  CountOptions full_options = incremental_options;
  full_options.execution.incremental = false;

  WallTimer initial_timer;
  RunHandle handle = begin_incremental(graph, tmpl, incremental_options);
  const double initial_seconds = initial_timer.elapsed_s();
  std::printf("initial retained count: %.3fs, %.1f MiB retained\n",
              initial_seconds,
              static_cast<double>(handle.retained_bytes()) / (1024 * 1024));

  Xoshiro256 rng(ctx.seed ^ 0xde17aULL);
  std::vector<double> full_seconds;
  std::vector<double> recount_seconds;
  double worst_dirty_fraction = 0.0;
  bool all_identical = true;
  for (int round = 0; round < rounds; ++round) {
    const EdgeList edges = edge_list(graph);
    const GraphDelta delta =
        random_delta(graph, edges, edits / 2, edits - edits / 2, rng);
    graph.apply(delta);

    WallTimer full_timer;
    const CountResult full = count_template(graph, tmpl, full_options);
    full_seconds.push_back(full_timer.elapsed_s());

    WallTimer recount_timer;
    const CountResult& incremental = handle.recount(graph, delta);
    recount_seconds.push_back(recount_timer.elapsed_s());

    worst_dirty_fraction =
        std::max(worst_dirty_fraction, incremental.delta.dirty_fraction);
    if (!bit_identical(full, incremental)) {
      all_identical = false;
      std::fprintf(stderr,
                   "round %d: recount diverged from full count "
                   "(%.17g vs %.17g)\n",
                   round, incremental.estimate, full.estimate);
    }
    std::printf(
        "round %d: full %.3fs, recount %.3fs, dirty %llu vertices "
        "(%.3f%%), estimate %.6e\n",
        round, full_seconds.back(), recount_seconds.back(),
        static_cast<unsigned long long>(incremental.delta.dirty_vertices),
        incremental.delta.dirty_fraction * 100.0, incremental.estimate);
  }

  const double full_p50 = median(full_seconds);
  const double recount_p50 = median(recount_seconds);
  const double speedup = recount_p50 > 0.0 ? full_p50 / recount_p50 : 0.0;

  TablePrinter summary({"Metric", "value"});
  summary.add_row({"graph edges",
                   TablePrinter::num(
                       static_cast<long long>(graph.num_edges()))});
  summary.add_row({"full recount p50 (s)", TablePrinter::num(full_p50, 3)});
  summary.add_row({"incremental recount p50 (s)",
                   TablePrinter::num(recount_p50, 3)});
  summary.add_row({"speedup", TablePrinter::num(speedup, 2) + "x"});
  summary.add_row({"worst dirty fraction",
                   TablePrinter::num(worst_dirty_fraction * 100.0, 3) + "%"});
  summary.add_row({"bit-identical", all_identical ? "yes" : "NO"});
  summary.add_row({"retained memory",
                   TablePrinter::bytes(handle.retained_bytes())});
  summary.print();

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"micro_delta\",\n");
  std::fprintf(json, "  \"vertices\": %d,\n", graph.num_vertices());
  std::fprintf(json, "  \"edges\": %lld,\n",
               static_cast<long long>(graph.num_edges()));
  std::fprintf(json, "  \"template\": \"%s\",\n",
               ctx.cli.str("template").c_str());
  std::fprintf(json, "  \"table\": \"%s\",\n", table_name.c_str());
  std::fprintf(json, "  \"iterations\": %d,\n", iterations);
  std::fprintf(json, "  \"edits_per_round\": %d,\n", edits);
  std::fprintf(json, "  \"rounds\": %d,\n", rounds);
  std::fprintf(json, "  \"initial_seconds\": %.6f,\n", initial_seconds);
  std::fprintf(json, "  \"full_seconds_p50\": %.6f,\n", full_p50);
  std::fprintf(json, "  \"recount_seconds_p50\": %.6f,\n", recount_p50);
  std::fprintf(json, "  \"speedup\": %.4f,\n", speedup);
  std::fprintf(json, "  \"worst_dirty_fraction\": %.6f,\n",
               worst_dirty_fraction);
  std::fprintf(json, "  \"retained_bytes\": %llu,\n",
               static_cast<unsigned long long>(handle.retained_bytes()));
  std::fprintf(json, "  \"bit_identical\": %s\n",
               all_identical ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());

  if (!all_identical) return 1;

  if (!check_path.empty()) {
    if (graph.num_edges() < kMinEdges) {
      std::fprintf(stderr,
                   "check: graph has %lld edges, below the %lld the gate "
                   "requires\n",
                   static_cast<long long>(graph.num_edges()), kMinEdges);
      return 1;
    }
    if (worst_dirty_fraction > kDirtyFractionCeiling) {
      std::fprintf(stderr,
                   "check: dirty fraction %.3f%% exceeds the %.0f%% regime "
                   "the gate certifies\n",
                   worst_dirty_fraction * 100.0,
                   kDirtyFractionCeiling * 100.0);
      return 1;
    }
    const std::optional<Json> baseline_doc = bench::read_baseline(check_path);
    const double baseline =
        baseline_doc ? baseline_doc->get_double("speedup", 0.0) : 0.0;
    if (baseline <= 0.0) {
      std::fprintf(stderr, "check: no speedup in %s\n", check_path.c_str());
      return 1;
    }
    const double floor = std::max(kSpeedupFloor, kCheckTolerance * baseline);
    const bool ok = speedup >= floor;
    std::printf("check: speedup baseline %.2fx now %.2fx floor %.2fx  %s\n",
                baseline, speedup, floor, ok ? "ok" : "REGRESSED");
    if (!ok) {
      std::fprintf(stderr,
                   "check: incremental recount no longer >=%.1fx faster than "
                   "a full pass (vs %s)\n",
                   kSpeedupFloor, check_path.c_str());
      return 1;
    }
  }
  return 0;
}
