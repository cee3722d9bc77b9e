// micro_dp: per-kernel DP harness — the engine's vectorized kernels
// (frontier + SoA split layout + row borrow, DESIGN.md §8) timed
// against the colorful-DP oracle (exact/colorful_dp.hpp: Alg. 2
// written literally over global colorsets).
//
// Workload: a labeled Chung-Lu network (4 label values) counted with
// labeled path and star templates under both partition strategies, so
// all four kernels appear: one-at-a-time path partitions exercise the
// pair and single-active kernels, star partitions the single-passive
// kernel (the peeled leaf is the passive side), balanced path
// partitions the general split-table kernel.  A balanced cut's root
// uses every color, so it is a full-colorset join: the timed pass (a
// run that reads only the total) takes its total route, and the kept
// check pass its rows route.  Each (table, shape, strategy, k)
// configuration runs the same colorings through the oracle and the
// engine, and checks that the root totals and every
// table entry are bitwise identical (DP values are exact integer
// counts, so reassociation must not change them).  All four table
// layouts are in the grid.
//
// Reported per kernel and table type: oracle vs vectorized seconds
// (per-stage minimum across colorings, summed over stages), speedup,
// effective GFLOP/s (2·MACs / s on the vectorized path), and frontier
// occupancy (surviving vertices / n per pass).  Results are written
// as machine-readable JSON (--json, default BENCH_dp.json).
//
// --check BASELINE re-runs the measurement and fails (exit 1) if any
// per-(kernel, table) speedup drops below 0.75x the baseline file's
// value — a machine-independent regression gate (both numbers are
// oracle/fast ratios measured on the same host), run by CI on every
// push.  One absolute gate needs no baseline: the obs toggle must stay
// under 1.05x (median of paired per-round ratios, each side timing at
// least 50 ms of passes).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/coloring.hpp"
#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "dp/table_compact.hpp"
#include "dp/table_hash.hpp"
#include "dp/table_naive.hpp"
#include "dp/table_succinct.hpp"
#include "exact/colorful_dp.hpp"
#include "graph/generators.hpp"
#include "treelet/partition.hpp"
#include "treelet/tree_template.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace fascia;

constexpr int kNumLabels = 4;
constexpr double kCheckTolerance = 0.75;  // fail below 0.75x baseline
constexpr double kObsOverheadGate = 1.05;  // obs-on / obs-off wall ratio

const char* strategy_name(PartitionStrategy strategy) {
  return strategy == PartitionStrategy::kOneAtATime ? "oneatatime"
                                                    : "balanced";
}

/// Center vertex with legs of length 2 (plus one length-1 leg when k
/// is even).  Subtree roots keep branching, so balanced partitions
/// produce general (a > 1, p > 1) splits below the root — the stages
/// path templates never reach.
TreeTemplate spider(int k) {
  TreeTemplate::EdgeList edges;
  int v = 1;
  while (v + 1 < k) {
    edges.push_back({0, v});
    edges.push_back({v, v + 1});
    v += 2;
  }
  if (v < k) edges.push_back({0, v});
  return TreeTemplate::from_edges(k, edges);
}

TreeTemplate make_shape(const std::string& shape, int k) {
  if (shape == "star") return TreeTemplate::star(k);
  if (shape == "spider") return spider(k);
  return TreeTemplate::path(k);
}

struct Agg {
  double oracle_seconds = 0.0;
  double fast_seconds = 0.0;
  std::uint64_t macs = 0;        // vectorized path
  std::uint64_t survivors = 0;   // vectorized path
  std::uint64_t fast_passes = 0;

  [[nodiscard]] double speedup() const {
    return fast_seconds > 0.0 ? oracle_seconds / fast_seconds : 0.0;
  }
  [[nodiscard]] double gflops() const {
    return fast_seconds > 0.0
               ? 2.0 * static_cast<double>(macs) / fast_seconds * 1e-9
               : 0.0;
  }
  [[nodiscard]] double occupancy(VertexId n) const {
    return fast_passes > 0
               ? static_cast<double>(survivors) /
                     (static_cast<double>(fast_passes) *
                      static_cast<double>(n))
               : 0.0;
  }
};

/// Table entries of the engine's kept pass that differ from the
/// oracle's, every non-leaf node and vertex, read through the rooted
/// slots (a colorset without v's color is a structural zero).
template <class Table>
std::uint64_t entry_mismatches(const DpEngine<Table>& engine,
                               const exact::ColorfulDp& oracle,
                               const PartitionTree& partition,
                               const ColorArray& colors, int k) {
  std::uint64_t mismatches = 0;
  for (int node = 0; node < partition.num_nodes(); ++node) {
    if (partition.node(node).is_leaf()) continue;
    const Table& table = *engine.table(node);
    const RootedColorsets sets(k, partition.node(node).size());
    for (VertexId v = 0; v < static_cast<VertexId>(colors.size()); ++v) {
      const int color = colors[static_cast<std::size_t>(v)];
      for (ColorsetIndex set = 0; set < oracle.width(node); ++set) {
        const ColorsetIndex slot = sets.slot(color, set);
        const double got = slot == kNoRootedSlot ? 0.0 : table.get(v, slot);
        if (got != oracle.get(node, v, set)) ++mismatches;
      }
    }
  }
  return mismatches;
}

struct Harness {
  const Graph& graph;
  int iters;
  std::uint64_t seed;
  std::map<std::string, Agg> per_config;  // kernel:table:kN:strategy
  std::map<std::string, Agg> per_kernel;  // kernel:table
  int mismatches = 0;

  template <class Table>
  void run_config(const char* table_name, const char* shape,
                  PartitionStrategy strategy, int k) {
    TreeTemplate tmpl = make_shape(shape, k);
    std::vector<std::uint8_t> labels(static_cast<std::size_t>(k));
    for (int v = 0; v < k; ++v) {
      labels[static_cast<std::size_t>(v)] =
          static_cast<std::uint8_t>(v % kNumLabels);
    }
    tmpl.set_labels(std::move(labels));
    const PartitionTree partition = partition_template(tmpl, strategy);

    DpEngineOptions fast_opts;
    fast_opts.collect_stats = true;
    DpEngine<Table> fast_engine(graph, tmpl, partition, k, fast_opts);

    // Per-stage minimum across the colorings: every run emits the same
    // stage sequence, so the elementwise min is the least-noise
    // estimate of each stage's cost (a single preempted pass cannot
    // pollute the aggregate).  Work counters are averaged.
    std::vector<DpStageStats> fast_stats;
    std::vector<double> oracle_seconds(  // per partition node
        static_cast<std::size_t>(partition.num_nodes()),
        std::numeric_limits<double>::infinity());
    for (int iter = 0; iter < iters; ++iter) {
      const ColorArray colors = detail::random_coloring(
          graph, k, detail::iteration_seed(seed, iter));
      // The timed engine pass runs before the oracle's, whose dense
      // tables would otherwise evict the engine's working set.
      fast_engine.clear_stage_stats();
      const double fast_total =
          fast_engine.run(colors, /*parallel_inner=*/false);
      const exact::ColorfulDp oracle(graph, partition, k, colors);
      const std::vector<DpStageStats>& run = fast_engine.stage_stats();
      if (fast_stats.empty()) fast_stats = run;
      for (std::size_t i = 0; i < fast_stats.size() && i < run.size(); ++i) {
        fast_stats[i].seconds = std::min(fast_stats[i].seconds,
                                         run[i].seconds);
        fast_stats[i].macs = (fast_stats[i].macs + run[i].macs) / 2;
        fast_stats[i].survivors =
            (fast_stats[i].survivors + run[i].survivors) / 2;
      }
      for (int node = 0; node < partition.num_nodes(); ++node) {
        double& best = oracle_seconds[static_cast<std::size_t>(node)];
        best = std::min(best, oracle.seconds(node));
      }
      // Untimed check pass that keeps every table for the comparison.
      fast_engine.run(colors, /*parallel_inner=*/false,
                      KeepTables::kForReads);
      const std::uint64_t entries =
          entry_mismatches(fast_engine, oracle, partition, colors, k);
      if (fast_total != oracle.root_total() || entries != 0) {
        std::fprintf(stderr,
                     "MISMATCH %s/%s/%s/k%d iter %d: oracle %.17g fast "
                     "%.17g, %llu table entries differ\n",
                     table_name, shape, strategy_name(strategy), k, iter,
                     oracle.root_total(), fast_total,
                     static_cast<unsigned long long>(entries));
        ++mismatches;
      }
      fast_engine.release_all_tables();
    }

    const std::string suffix = std::string(":") + table_name;
    const std::string config_tail = std::string(":") + shape + ":k" +
                                    std::to_string(k) + ":" +
                                    strategy_name(strategy);
    for (const DpStageStats& stat : fast_stats) {
      const std::string kernel = dp_kernel_name(stat.kernel);
      const double oracle_s =
          oracle_seconds[static_cast<std::size_t>(stat.node)];
      for (Agg* agg : {&per_config[kernel + suffix + config_tail],
                       &per_kernel[kernel + suffix]}) {
        agg->oracle_seconds += oracle_s;
        agg->fast_seconds += stat.seconds;
        agg->macs += stat.macs;
        agg->survivors += stat.survivors;
        ++agg->fast_passes;
      }
    }
  }

  void run_all(const char* shape, PartitionStrategy strategy, int k) {
    run_config<NaiveTable>("naive", shape, strategy, k);
    run_config<CompactTable>("compact", shape, strategy, k);
    run_config<HashTable>("hash", shape, strategy, k);
    run_config<SuccinctTable>("succinct", shape, strategy, k);
  }
};

/// A/B overhead measurement: the same engine + colorings with the
/// observability layer disabled vs enabled at runtime.  The grid above
/// runs obs-off (the process default), so its numbers stay comparable
/// with pre-obs baselines; this isolates the toggle cost.  One pass
/// takes about 2 ms, where scheduler noise alone moves a single timing
/// by 10%, so each round times enough passes per side to take at least
/// kObsSideSeconds, the two sides back to back on the same coloring
/// (alternating which goes first, so drift cannot favour one), and the
/// result is the median of the rounds' on/off ratios.
struct ObsOverhead {
  double off_seconds = 0.0;  ///< median per-pass time, obs off
  double on_seconds = 0.0;   ///< median per-pass time, obs on
  double ratio = 0.0;        ///< median of the paired per-round ratios
};

constexpr double kObsSideSeconds = 0.05;

ObsOverhead measure_obs_overhead(const Graph& graph, int k, int iters) {
  TreeTemplate tmpl = make_shape("path", k);
  std::vector<std::uint8_t> labels(static_cast<std::size_t>(k));
  for (int v = 0; v < k; ++v) {
    labels[static_cast<std::size_t>(v)] =
        static_cast<std::uint8_t>(v % kNumLabels);
  }
  tmpl.set_labels(std::move(labels));
  const PartitionTree partition =
      partition_template(tmpl, PartitionStrategy::kOneAtATime);
  DpEngine<CompactTable> engine(graph, tmpl, partition, k,
                                DpEngineOptions{});

  // Seconds per pass over `passes` passes of one round's coloring.
  const auto timed_side = [&](bool obs_on, int round, int passes) {
    obs::set_enabled(obs_on);
    const ColorArray colors = detail::random_coloring(
        graph, k, detail::iteration_seed(7, round));
    WallTimer timer;
    for (int pass = 0; pass < passes; ++pass) {
      engine.run(colors, /*parallel_inner=*/false);
    }
    return timer.elapsed_s() / passes;
  };
  // Warm both paths; the warm pass also sizes the rounds.
  timed_side(true, 0, 1);
  const double warm = timed_side(false, 0, 1);
  const int passes = std::max(
      1, static_cast<int>(std::ceil(kObsSideSeconds / std::max(warm, 1e-6))));
  const int rounds = std::max(8, 2 * iters);
  std::vector<double> off_times, on_times, ratios;
  for (int r = 0; r < rounds; ++r) {
    double off = 0.0;
    double on = 0.0;
    if (r % 2 == 0) {
      off = timed_side(false, r, passes);
      on = timed_side(true, r, passes);
    } else {
      on = timed_side(true, r, passes);
      off = timed_side(false, r, passes);
    }
    off_times.push_back(off);
    on_times.push_back(on);
    ratios.push_back(on / off);
  }
  obs::set_enabled(false);
  return {median(off_times), median(on_times), median(ratios)};
}

/// Minimal line-based reader for the "kernel_speedups" block this
/// bench writes — not a general JSON parser.  Returns key -> speedup.
std::map<std::string, double> parse_kernel_speedups(
    const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  bool in_block = false;
  while (std::getline(in, line)) {
    if (!in_block) {
      if (line.find("\"kernel_speedups\"") != std::string::npos) {
        in_block = true;
      }
      continue;
    }
    if (line.find('}') != std::string::npos) break;
    const auto key_begin = line.find('"');
    if (key_begin == std::string::npos) continue;
    const auto key_end = line.find('"', key_begin + 1);
    if (key_end == std::string::npos) continue;
    const auto colon = line.find(':', key_end);
    if (colon == std::string::npos) continue;
    out[line.substr(key_begin + 1, key_end - key_begin - 1)] =
        std::strtod(line.c_str() + colon + 1, nullptr);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("micro_dp: DP kernel harness, oracle vs vectorized");
  ctx.cli.add_option("kmin", "smallest template size", "5");
  ctx.cli.add_option("kmax", "largest template size (0 = 8, 10 with --full)",
                     "0");
  ctx.cli.add_option("iters", "colorings per configuration", "3");
  ctx.cli.add_option("json", "machine-readable output path",
                     "BENCH_dp.json");
  ctx.cli.add_option("check",
                     "baseline JSON: exit 1 if any kernel speedup falls "
                     "below 0.75x its baseline value",
                     "");
  if (!ctx.parse(argc, argv)) return 0;
  const int kmin = static_cast<int>(ctx.cli.integer("kmin"));
  int kmax = static_cast<int>(ctx.cli.integer("kmax"));
  if (kmax <= 0) kmax = ctx.full ? 10 : 8;
  const int iters = static_cast<int>(ctx.cli.integer("iters"));
  const std::string json_path = ctx.cli.str("json");
  const std::string check_path = ctx.cli.str("check");

  bench::banner("micro_dp",
                "DP inner-loop rebuild (DESIGN.md §8): frontiers + SoA "
                "splits + row borrowing",
                "labeled paths + stars k=" + std::to_string(kmin) + ".." +
                    std::to_string(kmax) + ", both partition strategies, "
                    "all table types, " + std::to_string(iters) +
                    " colorings each");

  // Labeled heavy-tailed stand-in: large and dense enough that the
  // multiply-accumulate loops dominate per-stage fixed costs (row
  // clears, commits), small enough for the CI smoke run.
  const auto n = static_cast<VertexId>(10000.0 * ctx.scale(1.0));
  Graph g = chung_lu(n, static_cast<EdgeCount>(n) * 8, 2.1,
                     /*max_degree_target=*/n / 10, ctx.seed);
  {
    Xoshiro256 rng(ctx.seed ^ 0xbadc0ffeeULL);
    std::vector<std::uint8_t> labels(
        static_cast<std::size_t>(g.num_vertices()));
    for (auto& label : labels) {
      label = static_cast<std::uint8_t>(rng.bounded(kNumLabels));
    }
    g.set_labels(std::move(labels), kNumLabels);
  }
  std::printf("graph: %s, %d labels\n\n", bench::describe_graph(g).c_str(),
              kNumLabels);

  Harness harness{g, iters, ctx.seed, {}, {}};
  for (int k = kmin; k <= kmax; ++k) {
    harness.run_all("path", PartitionStrategy::kOneAtATime, k);
    harness.run_all("path", PartitionStrategy::kBalanced, k);
    // Stars peel single leaves off the passive side (single-passive
    // kernel); spiders keep branching below the root, so their
    // balanced partitions hit general splits with 1 < a < h.
    harness.run_all("star", PartitionStrategy::kOneAtATime, k);
    harness.run_all("spider", PartitionStrategy::kBalanced, k);
  }

  TablePrinter table({"Kernel", "table", "oracle s", "vec s", "speedup",
                      "GFLOP/s", "occupancy"});
  for (const auto& [key, agg] : harness.per_kernel) {
    const auto sep = key.find(':');
    table.add_row({key.substr(0, sep), key.substr(sep + 1),
                   TablePrinter::num(agg.oracle_seconds, 4),
                   TablePrinter::num(agg.fast_seconds, 4),
                   TablePrinter::num(agg.speedup(), 2),
                   TablePrinter::num(agg.gflops(), 3),
                   TablePrinter::num(agg.occupancy(g.num_vertices()), 3)});
  }
  table.print();

  std::printf("\ntable bit-identity vs oracle: %s (%d mismatches)\n",
              harness.mismatches == 0 ? "PASS" : "FAIL", harness.mismatches);
  if (harness.mismatches != 0) return 1;

  // Observability toggle cost (DESIGN.md §10): the registry/trace hooks
  // compiled into the kernels must be free when disabled and cheap when
  // enabled.  Measured outside the grid so grid numbers stay obs-off.
  obs::Registry::global().reset();
  const ObsOverhead obs_overhead =
      measure_obs_overhead(g, std::min(kmax, 7), iters);
  const auto stage_seconds = obs::Registry::global().read("dp.stage.seconds");
  std::printf("\nobs overhead (labeled path k=%d, compact): off %.4fs  "
              "on %.4fs  ratio %.3f  (registry saw %llu stage passes)\n",
              std::min(kmax, 7), obs_overhead.off_seconds,
              obs_overhead.on_seconds, obs_overhead.ratio,
              static_cast<unsigned long long>(stage_seconds.hist.count));

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"micro_dp\",\n");
  std::fprintf(json, "  \"graph_vertices\": %d,\n", g.num_vertices());
  std::fprintf(json, "  \"graph_edges\": %lld,\n",
               static_cast<long long>(g.num_edges()));
  std::fprintf(json, "  \"labels\": %d,\n", kNumLabels);
  std::fprintf(json, "  \"kmin\": %d,\n", kmin);
  std::fprintf(json, "  \"kmax\": %d,\n", kmax);
  std::fprintf(json, "  \"iters\": %d,\n", iters);
  std::fprintf(json, "  \"mismatches\": %d,\n", harness.mismatches);
  std::fprintf(json,
               "  \"obs_overhead\": {\"off_seconds\": %.6f, "
               "\"on_seconds\": %.6f, \"ratio\": %.4f},\n",
               obs_overhead.off_seconds, obs_overhead.on_seconds,
               obs_overhead.ratio);
  std::fprintf(json, "  \"entries\": [\n");
  {
    std::size_t emitted = 0;
    for (const auto& [key, agg] : harness.per_config) {
      std::fprintf(
          json,
          "    {\"key\": \"%s\", \"oracle_seconds\": %.6f, "
          "\"vec_seconds\": %.6f, \"speedup\": %.4f, \"gflops\": %.4f, "
          "\"occupancy\": %.4f}%s\n",
          key.c_str(), agg.oracle_seconds, agg.fast_seconds, agg.speedup(),
          agg.gflops(), agg.occupancy(g.num_vertices()),
          ++emitted < harness.per_config.size() ? "," : "");
    }
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"kernel_speedups\": {\n");
  {
    std::size_t emitted = 0;
    for (const auto& [key, agg] : harness.per_kernel) {
      std::fprintf(json, "    \"%s\": %.4f%s\n", key.c_str(), agg.speedup(),
                   ++emitted < harness.per_kernel.size() ? "," : "");
    }
  }
  std::fprintf(json, "  }\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());

  if (!check_path.empty()) {
    const auto baseline = parse_kernel_speedups(check_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "check: no kernel_speedups in %s\n",
                   check_path.c_str());
      return 1;
    }
    int regressions = 0;
    for (const auto& [key, base] : baseline) {
      const auto it = harness.per_kernel.find(key);
      if (it == harness.per_kernel.end()) {
        std::fprintf(stderr, "check: kernel %s missing from this run\n",
                     key.c_str());
        ++regressions;
        continue;
      }
      const double now = it->second.speedup();
      const bool ok = now >= kCheckTolerance * base;
      std::printf("check: %-22s baseline %.2fx now %.2fx  %s\n", key.c_str(),
                  base, now, ok ? "ok" : "REGRESSED");
      if (!ok) ++regressions;
    }
    if (regressions != 0) {
      std::fprintf(stderr, "check: %d kernel(s) regressed >25%% vs %s\n",
                   regressions, check_path.c_str());
      return 1;
    }
    std::printf("check: all kernels within 25%% of %s\n", check_path.c_str());
    // Absolute gate, no baseline needed: enabling observability may not
    // slow the measured kernel loop by more than 5%.
    if (obs_overhead.ratio > kObsOverheadGate) {
      std::fprintf(stderr,
                   "check: obs-on overhead %.3fx exceeds %.2fx gate\n",
                   obs_overhead.ratio, kObsOverheadGate);
      return 1;
    }
    std::printf("check: obs toggle overhead %.3fx within %.2fx gate\n",
                obs_overhead.ratio, kObsOverheadGate);
  }
  return 0;
}
