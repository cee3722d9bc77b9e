#include "core/counter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>

#include "core/coloring.hpp"
#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "dp/table_compact.hpp"
#include "dp/table_hash.hpp"
#include "dp/table_naive.hpp"
#include "dp/table_succinct.hpp"
#include "exact/colorful_dp.hpp"
#include "graph/components.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "graph/labels.hpp"
#include "graph/reorder.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "helpers.hpp"
#include "treelet/canonical.hpp"
#include "treelet/catalog.hpp"
#include "treelet/free_trees.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fascia {
namespace {

Graph test_graph() {
  static const Graph g = largest_component(erdos_renyi_gnm(40, 90, 11));
  return g;
}

// ---- ground truth: per-coloring DP totals equal brute-force colorful
// injective map counts, for every tree, root, strategy, and table.
class PerColoringExactness : public ::testing::TestWithParam<int> {};

TEST_P(PerColoringExactness, DpMatchesBruteForce) {
  const int k = GetParam();
  const Graph g = test_graph();
  Xoshiro256 rng(2024 + static_cast<std::uint64_t>(k));
  for (const TreeTemplate& tree : all_free_trees(k)) {
    ColorArray colors(static_cast<std::size_t>(g.num_vertices()));
    for (auto& c : colors) {
      c = static_cast<std::uint8_t>(rng.bounded(static_cast<std::uint32_t>(k)));
    }
    const double brute = testing::brute_force_maps(
        g, tree, std::vector<std::uint8_t>(colors.begin(), colors.end()));
    for (auto strategy : {PartitionStrategy::kOneAtATime,
                          PartitionStrategy::kBalanced}) {
      for (int root : {-1, 0, tree.size() - 1}) {
        const auto part = partition_template(tree, strategy, true, root);
        DpEngine<CompactTable> engine(g, tree, part, k);
        const double raw = engine.run(colors, /*parallel_inner=*/false);
        ASSERT_NEAR(raw, brute, 1e-6 * (1.0 + brute))
            << tree.describe() << " root=" << root;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TreeSizes, PerColoringExactness,
                         ::testing::Values(2, 3, 4, 5, 6, 7));

// ---- the estimator is unbiased: many iterations converge to exact.
class Convergence : public ::testing::TestWithParam<const char*> {};

TEST_P(Convergence, EstimateApproachesExactCount) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry(GetParam()).tree;
  const double exact = testing::brute_force_maps(g, tree) /
                       static_cast<double>(automorphisms(tree));
  CountOptions options;
  options.sampling.iterations = 1500;
  options.execution.mode = ParallelMode::kSerial;
  options.sampling.seed = 7;
  const CountResult result = count_template(g, tree, options);
  EXPECT_NEAR(result.estimate, exact, exact * 0.08) << "exact=" << exact;
}

INSTANTIATE_TEST_SUITE_P(Templates, Convergence,
                         ::testing::Values("U3-1", "U5-1", "U5-2", "U7-1"));

// ---- determinism: same seed => identical per-iteration estimates,
// regardless of table kind, strategy, sharing, or parallel mode.
TEST(Counter, ResultsIndependentOfConfiguration) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  CountOptions base;
  base.sampling.iterations = 4;
  base.execution.mode = ParallelMode::kSerial;
  base.sampling.seed = 31;
  const CountResult reference = count_template(g, tree, base);

  std::vector<CountOptions> variants;
  for (TableKind table :
       {TableKind::kNaive, TableKind::kCompact, TableKind::kHash,
        TableKind::kSuccinct}) {
    for (auto strategy : {PartitionStrategy::kOneAtATime,
                          PartitionStrategy::kBalanced}) {
      for (bool share : {true, false}) {
        for (auto mode : {ParallelMode::kSerial, ParallelMode::kInnerLoop,
                          ParallelMode::kOuterLoop}) {
          CountOptions options = base;
          options.execution.table = table;
          options.execution.partition = strategy;
          options.execution.share_tables = share;
          options.execution.mode = mode;
          variants.push_back(options);
        }
      }
    }
  }
  for (const auto& options : variants) {
    const CountResult result = count_template(g, tree, options);
    ASSERT_EQ(result.per_iteration.size(), reference.per_iteration.size());
    for (std::size_t i = 0; i < result.per_iteration.size(); ++i) {
      EXPECT_NEAR(result.per_iteration[i], reference.per_iteration[i],
                  1e-9 * (1.0 + std::abs(reference.per_iteration[i])))
          << "table=" << table_kind_name(options.execution.table)
          << " mode=" << parallel_mode_name(options.execution.mode);
    }
  }
}

// ---- kernel bit-identity against the oracle (exact/colorful_dp.hpp):
// Alg. 2 written literally over global colorsets.  Every non-leaf entry
// of the engine's rooted tables, read through RootedColorsets (a set
// without the row's root color reads 0), must equal the oracle's entry
// with ==.  Below 2^53 every DP value is an exact integer count, so
// reassociating or reordering the sums may not change a single bit.
template <class Table>
int oracle_mismatches(const DpEngine<Table>& engine,
                      const exact::ColorfulDp& oracle,
                      const PartitionTree& part, const ColorArray& colors,
                      int k) {
  int mismatches = 0;
  for (int node = 0; node < part.num_nodes(); ++node) {
    if (part.node(node).is_leaf()) continue;
    const Table* table = engine.table(node);
    if (table == nullptr) return -1;
    const RootedColorsets sets(k, part.node(node).size());
    for (VertexId v = 0; v < static_cast<VertexId>(colors.size()); ++v) {
      const int color = colors[static_cast<std::size_t>(v)];
      for (ColorsetIndex set = 0; set < oracle.width(node); ++set) {
        const ColorsetIndex slot = sets.slot(color, set);
        const double got = slot == kNoRootedSlot ? 0.0 : table->get(v, slot);
        if (got != oracle.get(node, v, set)) ++mismatches;
      }
    }
  }
  return mismatches;
}

template <class Table>
void expect_engine_matches_oracle(const Graph& g, const TreeTemplate& tree,
                                  PartitionStrategy strategy,
                                  std::uint64_t seed, int iterations,
                                  const std::string& tag) {
  const int k = tree.size();
  const auto part = partition_template(tree, strategy);
  DpEngine<Table> engine(g, tree, part, k);
  for (int iter = 0; iter < iterations; ++iter) {
    const ColorArray colors = detail::random_coloring(
        g, k, detail::iteration_seed(seed, iter));
    const exact::ColorfulDp oracle(g, part, k, colors);
    for (const bool parallel : {false, true}) {
      engine.run(colors, parallel, KeepTables::kForReads);
      EXPECT_EQ(oracle_mismatches(engine, oracle, part, colors, k), 0)
          << tag << " " << tree.describe() << " table=" << Table::kName
          << " strategy=" << partition_strategy_name(strategy)
          << (parallel ? " inner" : " serial") << " iter=" << iter;
    }
  }
}

TEST(Counter, VectorizedKernelsBitIdenticalToOracle) {
  Graph er = test_graph();
  const Graph cl = largest_component(chung_lu(300, 900, 2.3, 60, 5));
  Graph cl_labeled = cl;
  assign_random_labels(cl_labeled, 4, 17);

  std::vector<TreeTemplate> trees;
  for (const char* name : {"U3-1", "U3-2", "U5-1", "U5-2", "U7-1", "U7-2"}) {
    trees.push_back(catalog_entry(name).tree);
  }
  const auto eights = all_free_trees(8);
  trees.push_back(eights.front());
  trees.push_back(eights[eights.size() / 2]);
  trees.push_back(eights.back());

  const auto check_matrix = [](const Graph& g,
                               const std::vector<TreeTemplate>& shapes,
                               const char* tag) {
    for (const TreeTemplate& tree : shapes) {
      for (auto strategy : {PartitionStrategy::kOneAtATime,
                            PartitionStrategy::kBalanced}) {
        expect_engine_matches_oracle<NaiveTable>(g, tree, strategy, 97, 3,
                                                 tag);
        expect_engine_matches_oracle<CompactTable>(g, tree, strategy, 97, 3,
                                                   tag);
        expect_engine_matches_oracle<HashTable>(g, tree, strategy, 97, 3,
                                                tag);
        expect_engine_matches_oracle<SuccinctTable>(g, tree, strategy, 97,
                                                    3, tag);
      }
    }
  };
  check_matrix(er, trees, "er");
  check_matrix(cl, trees, "chung-lu");
  // Labeled graph + labeled templates: the vectorized leaf stages
  // iterate per-label frontiers instead of full-n scans.
  TreeTemplate labeled_path = TreeTemplate::path(5);
  labeled_path.set_labels({0, 1, 2, 1, 0});
  TreeTemplate labeled_star = TreeTemplate::star(6);
  labeled_star.set_labels({0, 1, 1, 2, 3, 1});
  check_matrix(cl_labeled, {labeled_path, labeled_star},
               "chung-lu-labeled");
}

// ---- bit-identity past 2^53.  On a dense graph the colorful path
// counts outgrow the exact-integer range of doubles, so additions round
// and only the order of the sums keeps the engine in step with the
// oracle.  (On a complete graph every count is (h-1)! times a product
// of color-class sizes, a multiple of a large power of two, and nothing
// rounds.)  The one-at-a-time partition gives pair and single-active
// stages only; the single-active walk adds each neighbor's rooted row
// through its color-pair list, so every entry must see the oracle's
// neighbor order.  Every table entry is compared, not just the totals.
TEST(Counter, FoldedGatherBitIdenticalPastTwoToThe53) {
  constexpr int k = 12;
  // Stages below the root's two widest: a count past 2^53 there means
  // the rounding regime reaches mid-schedule single-active stages.
  constexpr int kWidestCheckedStage = 10;
  const Graph g = erdos_renyi_gnp(400, 0.9, 3);
  const VertexId n = g.num_vertices();
  const auto part = partition_template(TreeTemplate::path(k),
                                       PartitionStrategy::kOneAtATime, true);
  ColorArray colors(static_cast<std::size_t>(n));
  Xoshiro256 rng(41);
  for (auto& c : colors) {
    c = static_cast<std::uint8_t>(rng.bounded(static_cast<std::uint32_t>(k)));
  }
  const exact::ColorfulDp oracle(g, part, k, colors);

  // The regime is real: a mid-schedule stage holds a count past 2^53.
  double checked_max = 0.0;
  for (int node = 0; node < part.num_nodes(); ++node) {
    const Subtemplate& sub = part.node(node);
    if (sub.is_leaf() || sub.size() > kWidestCheckedStage) continue;
    for (VertexId v = 0; v < n; ++v) {
      for (ColorsetIndex c = 0; c < oracle.width(node); ++c) {
        checked_max = std::max(checked_max, oracle.get(node, v, c));
      }
    }
  }
  ASSERT_GT(checked_max, 0x1p53);

  for (const bool parallel : {false, true}) {
    DpEngine<CompactTable> compact(g, part, k);
    compact.run(colors, parallel, KeepTables::kForReads);
    EXPECT_EQ(oracle_mismatches(compact, oracle, part, colors, k), 0)
        << (parallel ? "compact inner" : "compact serial");
    DpEngine<NaiveTable> naive(g, part, k);
    naive.run(colors, parallel, KeepTables::kForReads);
    EXPECT_EQ(oracle_mismatches(naive, oracle, part, colors, k), 0)
        << (parallel ? "naive inner" : "naive serial");

    // One pass holds stages of both widths: the low stages' bounds fit
    // int32 (4-byte entries), the ones past 2^53 cannot.
    int narrow = 0;
    int wide = 0;
    for (int node = 0; node < part.num_nodes(); ++node) {
      if (part.node(node).is_leaf()) continue;
      (compact.table(node)->entry_bytes() == 4 ? narrow : wide) += 1;
      EXPECT_EQ(naive.table(node)->entry_bytes(),
                compact.table(node)->entry_bytes());
    }
    EXPECT_GT(narrow, 0);
    EXPECT_GT(wide, 0);
  }
}

TEST(Counter, ExactRootSumAgreesAcrossRootsAndReordersPastTwoToThe53) {
  // Every entry stays below 2^53 while the colorful root total passes
  // it.  The root sum is then an exact integer, rounded once, however
  // its rows are visited: rooting the path at an end or in the middle,
  // and every reorder mode, give the same doubles.
  struct ObsOff {
    ~ObsOff() { obs::set_enabled(false); }
  } off;
  constexpr int k = 8;
  const Graph g = erdos_renyi_gnp(800, 0.25, 5);
  const TreeTemplate path = TreeTemplate::path(k);
  const auto count = [&](int root, ReorderMode reorder,
                          std::optional<PartitionStrategy> strategy = {}) {
    CountOptions options;
    options.sampling.iterations = 1;
    options.sampling.seed = 17;
    options.execution.reorder = reorder;
    options.execution.partition = strategy;
    options.root = root;
    options.observability.enabled = true;
    return count_template(g, path, options);
  };
  const CountResult end = count(0, ReorderMode::kNone);
  const double raw = end.per_iteration.front() * end.colorful_probability *
                     static_cast<double>(end.automorphisms);
  ASSERT_GT(raw, 0x1p53);
  ASSERT_NE(end.report, nullptr);
  ASSERT_FALSE(end.report->stages.empty());
  for (const obs::ReportStage& stage : end.report->stages) {
    EXPECT_TRUE(stage.exact) << "node " << stage.node;
  }
  EXPECT_EQ(count(k / 2, ReorderMode::kNone).per_iteration,
            end.per_iteration);
  for (const ReorderMode mode : {ReorderMode::kDegree, ReorderMode::kBfs}) {
    EXPECT_EQ(count(0, mode).per_iteration, end.per_iteration)
        << reorder_mode_name(mode);
  }
  // The balanced cut joins two copies of one 4-path table at the root:
  // its total comes from per-edge dots, each undirected edge once, and
  // every dot is exact, so the total is the same exact integer.
  for (const ReorderMode mode : {ReorderMode::kNone, ReorderMode::kDegree}) {
    const CountResult balanced =
        count(-1, mode, PartitionStrategy::kBalanced);
    EXPECT_EQ(balanced.per_iteration, end.per_iteration)
        << reorder_mode_name(mode);
    ASSERT_NE(balanced.report, nullptr);
    const obs::ReportStage& root = balanced.report->stages.back();
    EXPECT_EQ(root.kernel, "general");
    EXPECT_EQ(root.parent_size, k);
    EXPECT_EQ(root.active_size, k / 2);
    EXPECT_EQ(root.survivors, 0.0);  // no rows committed
    for (const obs::ReportStage& stage : balanced.report->stages) {
      EXPECT_TRUE(stage.exact) << "node " << stage.node;
    }
  }
}

// ---- full-colorset root joins.  A general join whose size is the
// number of colors sums per-edge dot products over complementary
// halves.  Counts that read only the root total commit no root rows
// and sum the dots exactly (each undirected edge once when both halves
// are one table); per-vertex counts and recounts commit 1-wide rows.
// Either way the totals are the oracle's exact integers.

/// Centre 0 with legs of 4, 2 and 1 vertices: the balanced cut at the
/// centre has two 4-vertex halves of different shapes, so they are two
/// tables.
TreeTemplate uneven_spider() {
  return TreeTemplate::from_edges(
      8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}, {5, 6}, {0, 7}});
}

/// Labels symmetric about the path's centre, so a balanced cut still
/// finds two copies of one labeled half.
TreeTemplate palindromic_path(int k) {
  TreeTemplate path = TreeTemplate::path(k);
  std::vector<std::uint8_t> labels(static_cast<std::size_t>(k));
  for (int v = 0; v < k; ++v) {
    labels[static_cast<std::size_t>(v)] =
        static_cast<std::uint8_t>(std::min(v, k - 1 - v) % 2);
  }
  path.set_labels(std::move(labels));
  return path;
}

/// The root join of the balanced partition: size k with both children
/// of size >= 2, and whether the children are one table.
bool balanced_root_is_shared(const TreeTemplate& tree) {
  const auto part = partition_template(tree, PartitionStrategy::kBalanced);
  const Subtemplate& root = part.node(part.root_node());
  EXPECT_EQ(root.size(), tree.size());
  EXPECT_GE(part.node(root.active).size(), 2);
  EXPECT_GE(part.node(root.passive).size(), 2);
  return root.active == root.passive;
}

TEST(Counter, FullColorsetRootJoinsMatchOracle) {
  struct ObsOff {
    ~ObsOff() { obs::set_enabled(false); }
  } off;
  const Graph plain = largest_component(chung_lu(200, 700, 2.3, 40, 9));
  Graph labeled = plain;
  assign_random_labels(labeled, 2, 23);
  TreeTemplate labeled_spider = uneven_spider();
  labeled_spider.set_labels({0, 1, 0, 1, 0, 1, 0, 1});
  struct Case {
    const Graph* graph;
    TreeTemplate tree;
  };
  std::vector<Case> cases;
  for (const int k : {4, 6, 8}) {
    cases.push_back({&plain, TreeTemplate::path(k)});
    cases.push_back({&labeled, palindromic_path(k)});
  }
  cases.push_back({&plain, catalog_entry("U10-1").tree});
  cases.push_back({&plain, uneven_spider()});
  cases.push_back({&labeled, labeled_spider});
  int shared = 0;
  for (const Case& c : cases) {
    shared += balanced_root_is_shared(c.tree) ? 1 : 0;
  }
  EXPECT_EQ(shared, 7);  // the paths; the spiders join two tables

  constexpr int kIterations = 2;
  constexpr std::uint64_t kSeed = 29;
  for (const Case& c : cases) {
    const Graph& g = *c.graph;
    const int k = c.tree.size();
    const auto part =
        partition_template(c.tree, PartitionStrategy::kBalanced);
    std::vector<double> oracle_totals;
    for (int iter = 0; iter < kIterations; ++iter) {
      const ColorArray colors = detail::random_coloring(
          g, k, detail::iteration_seed(kSeed, iter));
      oracle_totals.push_back(
          exact::ColorfulDp(g, part, k, colors).root_total());
      ASSERT_GT(oracle_totals.back(), 0.0) << c.tree.describe();
    }
    for (const TableKind table :
         {TableKind::kNaive, TableKind::kCompact, TableKind::kHash,
          TableKind::kSuccinct}) {
      for (const ParallelMode mode :
           {ParallelMode::kSerial, ParallelMode::kInnerLoop,
            ParallelMode::kOuterLoop, ParallelMode::kHybrid}) {
        for (const ReorderMode reorder :
             {ReorderMode::kNone, ReorderMode::kDegree}) {
          CountOptions options;
          options.sampling.iterations = kIterations;
          options.sampling.seed = kSeed;
          options.execution.table = table;
          options.execution.mode = mode;
          options.execution.threads = mode == ParallelMode::kSerial ? 1 : 4;
          options.execution.reorder = reorder;
          options.execution.partition = PartitionStrategy::kBalanced;
          options.observability.enabled = true;
          const CountResult result = count_template(g, c.tree, options);
          const std::string tag =
              c.tree.describe() + " table=" + table_kind_name(table) +
              " mode=" + parallel_mode_name(mode) +
              " reorder=" + reorder_mode_name(reorder);
          const double scale =
              1.0 / (result.colorful_probability *
                     static_cast<double>(result.automorphisms));
          ASSERT_EQ(result.per_iteration.size(),
                    static_cast<std::size_t>(kIterations))
              << tag;
          for (int iter = 0; iter < kIterations; ++iter) {
            EXPECT_EQ(result.per_iteration[static_cast<std::size_t>(iter)],
                      oracle_totals[static_cast<std::size_t>(iter)] * scale)
                << tag << " iter=" << iter;
          }
          ASSERT_NE(result.report, nullptr);
          const obs::ReportStage& root = result.report->stages.back();
          EXPECT_EQ(root.kernel, "general") << tag;
          EXPECT_EQ(root.parent_size, k) << tag;
          EXPECT_EQ(root.survivors, 0.0) << tag;  // the total route
          for (const obs::ReportStage& stage : result.report->stages) {
            EXPECT_TRUE(stage.exact) << tag << " node " << stage.node;
          }
        }
      }
    }
  }
}

TEST(Counter, FullColorsetRowsRouteMatchesOracleRowSums) {
  // Per-vertex counts read the root's rows: the join commits its
  // 1-wide rows, each the oracle's row sum at that vertex.
  const Graph g = largest_component(chung_lu(200, 700, 2.3, 40, 9));
  constexpr int kIterations = 2;
  constexpr std::uint64_t kSeed = 31;
  for (const int k : {6, 8}) {
    const TreeTemplate path = TreeTemplate::path(k);
    const int centre = k / 2 - 1;
    const auto part = partition_template(path, PartitionStrategy::kBalanced,
                                         true, centre);
    const Subtemplate& root = part.node(part.root_node());
    ASSERT_EQ(root.active, root.passive) << "k=" << k;
    std::vector<double> sums(static_cast<std::size_t>(g.num_vertices()));
    for (int iter = 0; iter < kIterations; ++iter) {
      const ColorArray colors = detail::random_coloring(
          g, k, detail::iteration_seed(kSeed, iter));
      const exact::ColorfulDp oracle(g, part, k, colors);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        sums[static_cast<std::size_t>(v)] +=
            oracle.get(part.root_node(), v, 0);
      }
    }
    for (const ParallelMode mode :
         {ParallelMode::kSerial, ParallelMode::kInnerLoop}) {
      for (const ReorderMode reorder :
           {ReorderMode::kNone, ReorderMode::kDegree}) {
        CountOptions options;
        options.sampling.iterations = kIterations;
        options.sampling.seed = kSeed;
        options.execution.mode = mode;
        options.execution.threads = mode == ParallelMode::kSerial ? 1 : 4;
        options.execution.reorder = reorder;
        options.execution.partition = PartitionStrategy::kBalanced;
        const CountResult result = graphlet_degrees(g, path, centre, options);
        const double vertex_scale =
            1.0 / (result.colorful_probability *
                   static_cast<double>(result.root_stabilizer));
        ASSERT_EQ(result.vertex_counts.size(), sums.size());
        int mismatches = 0;
        for (std::size_t v = 0; v < sums.size(); ++v) {
          const double want =
              sums[v] * vertex_scale / static_cast<double>(kIterations);
          if (result.vertex_counts[v] != want) ++mismatches;
        }
        EXPECT_EQ(mismatches, 0)
            << "k=" << k << " mode=" << parallel_mode_name(mode)
            << " reorder=" << reorder_mode_name(reorder);
      }
    }
  }
}

TEST(Counter, FullColorsetRecountMatchesFullCount) {
  // Recounts retain and patch the root's rows (the rows route); the
  // full count of the edited graph reads only its total.
  const Graph g = largest_component(chung_lu(200, 700, 2.3, 40, 9));
  const TreeTemplate path = TreeTemplate::path(8);
  for (const TableKind table : {TableKind::kCompact, TableKind::kHash}) {
    Graph edited = g;
    const CountOptions options = CountOptions::builder()
                                     .iterations(2)
                                     .seed(37)
                                     .table(table)
                                     .partition(PartitionStrategy::kBalanced)
                                     .build();
    RunHandle handle = begin_incremental(edited, path, options);
    EXPECT_EQ(handle.result().per_iteration,
              count_template(edited, path, options).per_iteration);
    GraphDelta delta;
    const auto first = edited.neighbors(0);
    ASSERT_FALSE(first.empty());
    delta.remove(0, first.front());
    for (VertexId v = 1; v < edited.num_vertices(); ++v) {
      if (!edited.has_edge(0, v)) {
        delta.insert(0, v);
        break;
      }
    }
    edited.apply(delta);
    EXPECT_EQ(handle.recount(edited, delta).per_iteration,
              count_template(edited, path, options).per_iteration)
        << table_kind_name(table);
  }
}

TEST(Counter, PlannedCountsMatchPinnedDefaultWhereExact) {
  // The planner may cut a template elsewhere than the one-at-a-time
  // default; the root total is an exact integer either way, so every
  // catalog count (unlabeled and labeled) keeps the pinned default's
  // bits whenever both reports say every entry was exact.
  struct ObsOff {
    ~ObsOff() { obs::set_enabled(false); }
  } off;
  const Graph unlabeled = largest_component(chung_lu(300, 1500, 2.3, 40, 4));
  Graph labeled = unlabeled;
  assign_random_labels(labeled, 3, 13);
  const auto all_exact = [](const CountResult& result) {
    return std::all_of(result.report->stages.begin(),
                       result.report->stages.end(),
                       [](const obs::ReportStage& stage) { return stage.exact; });
  };
  int compared = 0;
  int replanned = 0;
  for (const bool with_labels : {false, true}) {
    const Graph& g = with_labels ? labeled : unlabeled;
    for (const CatalogEntry& entry : template_catalog()) {
      if (entry.is_triangle) continue;
      TreeTemplate tree = entry.tree;
      if (with_labels) {
        std::vector<std::uint8_t> labels;
        for (int v = 0; v < tree.size(); ++v) {
          labels.push_back(static_cast<std::uint8_t>(v % 3));
        }
        tree.set_labels(labels);
      }
      CountOptions planned;
      planned.sampling.iterations = 2;
      planned.sampling.seed = 23;
      planned.execution.mode = ParallelMode::kSerial;
      planned.observability.enabled = true;
      CountOptions pinned = planned;
      pinned.execution.partition = PartitionStrategy::kOneAtATime;
      const CountResult got = count_template(g, tree, planned);
      const CountResult want = count_template(g, tree, pinned);
      ASSERT_TRUE(got.report->choices.partition.has_value());
      const auto& choice = *got.report->choices.partition;
      EXPECT_TRUE(choice.pinned.empty());
      EXPECT_EQ(choice.stages,
                static_cast<int>(got.report->stages.size()))
          << entry.name;
      if (choice.strategy != "one_at_a_time" ||
          choice.root != want.report->tmpl.root) {
        ++replanned;
      }
      if (!all_exact(got) || !all_exact(want)) continue;
      ++compared;
      EXPECT_EQ(got.per_iteration, want.per_iteration)
          << entry.name << " labeled=" << with_labels;
    }
  }
  EXPECT_GT(compared, 10);
  EXPECT_GT(replanned, 0);
}

TEST(Counter, ReportSaysWhichPartitionWasChosen) {
  CountOptions options;
  options.sampling.iterations = 1;
  options.execution.mode = ParallelMode::kSerial;
  const TreeTemplate& u10 = catalog_entry("U10-1").tree;
  const auto option = [](const CountResult& result, const std::string& key) {
    for (const auto& [name, value] : result.report->options) {
      if (name == key) return value;
    }
    return std::string();
  };
  const Graph g = erdos_renyi_gnm(200, 800, 3);
  const CountResult planned = count_template(g, u10, options);
  EXPECT_EQ(option(planned, "execution.partition"), "planned");
  ASSERT_TRUE(planned.report->choices.partition.has_value());
  const auto& chosen = *planned.report->choices.partition;
  EXPECT_EQ(chosen.strategy, "balanced");
  EXPECT_EQ(chosen.stages, 5);
  EXPECT_EQ(chosen.default_stages, 9);
  EXPECT_LE(chosen.modeled_peak_bytes, chosen.default_modeled_peak_bytes);
  EXPECT_EQ(planned.report->tmpl.root, chosen.root);
  EXPECT_EQ(planned.num_subtemplates, planned.report->tmpl.subtemplates);
  // CountResult describes the planned partition.
  const PartitionTree tree = partition_template(
      u10, PartitionStrategy::kBalanced, true, chosen.root);
  EXPECT_EQ(planned.num_subtemplates, tree.num_nodes());
  EXPECT_EQ(planned.dp_cost, tree.dp_cost(10));
  EXPECT_EQ(planned.max_live_tables, tree.max_live_tables());

  // The section survives the JSON round trip.
  obs::RunReport parsed;
  ASSERT_TRUE(obs::RunReport::from_json_string(
      planned.report->to_json_string(), &parsed));
  ASSERT_TRUE(parsed.choices.partition.has_value());
  EXPECT_EQ(parsed.choices.partition->strategy, chosen.strategy);
  EXPECT_EQ(parsed.choices.partition->modeled_peak_bytes,
            chosen.modeled_peak_bytes);
  EXPECT_EQ(parsed.to_json_string(), planned.report->to_json_string());

  options.execution.partition = PartitionStrategy::kOneAtATime;
  options.root = 3;
  const CountResult pinned = count_template(g, u10, options);
  EXPECT_EQ(option(pinned, "execution.partition"), "one_at_a_time");
  EXPECT_EQ(pinned.report->choices.partition->pinned,
            (std::vector<std::string>{"strategy", "root"}));
  EXPECT_EQ(pinned.report->choices.partition->stages,
            pinned.report->choices.partition->default_stages);
  EXPECT_EQ(pinned.report->tmpl.root, 3);
}

// ---- exact 32-bit rows.  The width rule as a pure function: each
// kernel's formula, leaves counting as 1, saturation instead of
// overflow, and the int32 boundary.
TEST(StageEntryBound, KernelFormulas) {
  constexpr std::uint64_t kDelta = 7;
  EXPECT_EQ(stage_entry_bound(2, 1, kDelta, 1.0, 1.0), kDelta);  // pair
  EXPECT_EQ(stage_entry_bound(5, 1, kDelta, 1.0, 11.0),
            kDelta * 11);  // single_active: Δ·M_p
  EXPECT_EQ(stage_entry_bound(5, 4, kDelta, 13.0, 1.0),
            kDelta * 13);  // single_passive: Δ·M_a
  EXPECT_EQ(stage_entry_bound(7, 3, kDelta, 13.0, 11.0),
            choose(6, 2) * 13 * kDelta * 11);  // general
  EXPECT_EQ(stage_entry_bound(7, 3, 0, 13.0, 11.0), 0u);  // edgeless
  // triangle: Δ·(Δ-1)·C(h-1, a-1)·C(r-1, x-1)·M_a·M_x·M_y, r = h - a
  EXPECT_EQ(stage_entry_bound(7, 3, 2, kDelta, 13.0, 11.0, 5.0),
            kDelta * (kDelta - 1) * choose(6, 2) * choose(3, 1) * 13 * 11 *
                5);
  EXPECT_EQ(stage_entry_bound(3, 1, 1, kDelta, 13.0, 11.0, 5.0),
            kDelta * (kDelta - 1));  // three leaves count as 1
  EXPECT_EQ(stage_entry_bound(3, 1, 1, 0, 1.0, 1.0, 1.0), 0u);
  EXPECT_EQ(stage_entry_bound(5, 3, 1, kDelta, 0x1p60, 1.0, 1.0),
            kSaturatedBound);
}

TEST(StageEntryBound, LeavesCountAsOne) {
  // Whatever is passed for a single-vertex child is ignored.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(stage_entry_bound(2, 1, 7, kInf, DBL_MAX), 7u);
  EXPECT_EQ(stage_entry_bound(5, 1, 7, kInf, 11.0), 77u);
  EXPECT_EQ(stage_entry_bound(5, 4, 7, 13.0, 0x1p60), 91u);
}

TEST(StageEntryBound, SaturatesInsteadOfOverflowing) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double huge : {0x1p60, DBL_MAX, kInf}) {
    EXPECT_EQ(stage_entry_bound(5, 1, 7, 1.0, huge), kSaturatedBound);
    EXPECT_EQ(stage_entry_bound(5, 4, 7, huge, 1.0), kSaturatedBound);
    EXPECT_EQ(stage_entry_bound(7, 3, 7, huge, 11.0), kSaturatedBound);
    EXPECT_EQ(stage_entry_bound(7, 3, 7, 13.0, huge), kSaturatedBound);
  }
  // Exact operands (<= 2^53) whose product passes 2^64.
  EXPECT_EQ(stage_entry_bound(5, 1, std::uint64_t{1} << 40, 1.0, 0x1p40),
            kSaturatedBound);
  EXPECT_EQ(stage_entry_bound(7, 3, 1, 0x1p53, 0x1p53), kSaturatedBound);
  // Exactly 2^53 still counts as exact.
  EXPECT_EQ(stage_entry_bound(5, 1, 1, 1.0, 0x1p53), std::uint64_t{1} << 53);
  EXPECT_EQ(stage_entry_bytes(kSaturatedBound), 8);
}

TEST(StageEntryBound, Int32Boundary) {
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(stage_entry_bytes(0), 4);
  EXPECT_EQ(stage_entry_bytes(kMax), 4);
  EXPECT_EQ(stage_entry_bytes(kMax + 1), 8);
  // Through the formula: Δ·M_p with M_p = 1 lands exactly on Δ.
  EXPECT_EQ(stage_entry_bytes(stage_entry_bound(3, 1, kMax, 1.0, 1.0)), 4);
  EXPECT_EQ(stage_entry_bytes(stage_entry_bound(3, 1, kMax + 1, 1.0, 1.0)),
            8);
}

// ---- 32-bit tables against a 64-bit oracle.  A pass kept for recounts
// stores every stage at 8 bytes; a pass of the same coloring kept for
// reads stores each stage at the width its bound allows.  Every entry of
// every table must match bit for bit, on every layout.  One-at-a-time
// and balanced partitions together run all four kernels, and each
// kernel must meet a 4-byte child (the typed row reads).
template <class Table>
void expect_narrow_matches_oracle(const Graph& g, const PartitionTree& part,
                                  int k, const ColorArray& colors,
                                  std::set<char>* narrow_reads,
                                  int* narrow_stages) {
  DpEngine<Table> oracle(g, part, k);
  oracle.compute_tables(colors, /*parallel_inner=*/false, nullptr,
                        KeepTables::kForRecounts);
  DpEngineOptions opts;
  opts.collect_stats = true;
  DpEngine<Table> narrow(g, part, k, opts);
  narrow.compute_tables(colors, /*parallel_inner=*/false, nullptr,
                        KeepTables::kForReads);
  const auto width = [&](int node) {
    return part.node(node).is_leaf() ? 8 : narrow.table(node)->entry_bytes();
  };
  for (const DpStageStats& stat : narrow.stage_stats()) {
    const Subtemplate& sub = part.node(stat.node);
    const Table& want = *oracle.table(stat.node);
    const Table& got = *narrow.table(stat.node);
    ASSERT_EQ(want.entry_bytes(), 8) << Table::kName;
    ASSERT_EQ(got.entry_bytes(), stat.entry_bytes);
    ASSERT_EQ(got.entry_bytes(), stage_entry_bytes(stat.bound));
    // The bound holds: it is an upper bound on every stored entry.
    ASSERT_LE(stat.max_entry, static_cast<double>(stat.bound));
    int mismatches = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (ColorsetIndex c = 0; c < want.num_colorsets(); ++c) {
        if (got.get(v, c) != want.get(v, c)) ++mismatches;
      }
      if (got.vertex_total(v) != want.vertex_total(v)) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0) << Table::kName << " k=" << k << " node "
                             << stat.node << " (h = " << sub.size() << ")";
    EXPECT_EQ(got.total(), want.total());
    if (got.entry_bytes() == 4) ++*narrow_stages;
    if (width(sub.active) == 4 || width(sub.passive) == 4) {
      narrow_reads->insert(stat.kernel);
    }
  }
}

TEST(Counter, NarrowTablesMatchRetainedOracle) {
  const Graph g = erdos_renyi_gnm(300, 1200, 17);
  std::set<char> narrow_reads;
  for (const int k : {5, 7, 10}) {
    ColorArray colors(static_cast<std::size_t>(g.num_vertices()));
    Xoshiro256 rng(300 + static_cast<std::uint64_t>(k));
    for (auto& c : colors) {
      c = static_cast<std::uint8_t>(
          rng.bounded(static_cast<std::uint32_t>(k)));
    }
    for (const auto strategy :
         {PartitionStrategy::kOneAtATime, PartitionStrategy::kBalanced}) {
      for (const TreeTemplate& tree :
           {TreeTemplate::path(k), TreeTemplate::star(k)}) {
        const auto part = partition_template(tree, strategy, true);
        int narrow_stages = 0;
        expect_narrow_matches_oracle<NaiveTable>(g, part, k, colors,
                                                 &narrow_reads,
                                                 &narrow_stages);
        expect_narrow_matches_oracle<CompactTable>(g, part, k, colors,
                                                   &narrow_reads,
                                                   &narrow_stages);
        expect_narrow_matches_oracle<HashTable>(g, part, k, colors,
                                                &narrow_reads,
                                                &narrow_stages);
        expect_narrow_matches_oracle<SuccinctTable>(g, part, k, colors,
                                                    &narrow_reads,
                                                    &narrow_stages);
        EXPECT_GT(narrow_stages, 0) << tree.describe() << " k=" << k;
      }
    }
  }
  // Every kernel that reads a child table read a 4-byte one somewhere.
  for (const char kernel : {'A', 'S', 'G'}) {
    EXPECT_EQ(narrow_reads.count(kernel), 1u) << dp_kernel_name(kernel);
  }
}

TEST(Counter, ExtraColorsStillUnbiased) {
  const Graph g = test_graph();
  const TreeTemplate tree = TreeTemplate::path(4);
  const double exact = testing::brute_force_maps(g, tree) / 2.0;
  CountOptions options;
  options.sampling.iterations = 1200;
  options.sampling.num_colors = 6;  // k > template size
  options.execution.mode = ParallelMode::kSerial;
  const CountResult result = count_template(g, tree, options);
  EXPECT_NEAR(result.estimate, exact, exact * 0.08);
  // More colors -> higher colorful probability.
  EXPECT_GT(result.colorful_probability, colorful_probability(4, 4));
}

TEST(Counter, SingleVertexAndEdgeTemplates) {
  const Graph g = test_graph();
  CountOptions options;
  options.execution.mode = ParallelMode::kSerial;
  const CountResult single =
      count_template(g, TreeTemplate::from_edges(1, {}), options);
  EXPECT_DOUBLE_EQ(single.estimate, static_cast<double>(g.num_vertices()));

  options.sampling.iterations = 400;
  const CountResult edge =
      count_template(g, TreeTemplate::path(2), options);
  EXPECT_NEAR(edge.estimate, static_cast<double>(g.num_edges()),
              static_cast<double>(g.num_edges()) * 0.05);
}

TEST(Counter, LabeledCountsMatchLabeledBruteForce) {
  Graph g = test_graph();
  assign_random_labels(g, 3, 5);
  TreeTemplate tree = TreeTemplate::path(3);
  tree.set_labels({0, 1, 0});
  CountOptions options;
  options.sampling.iterations = 2500;
  options.execution.mode = ParallelMode::kSerial;
  const CountResult result = count_template(g, tree, options);
  const double exact = testing::brute_force_maps(g, tree) /
                       static_cast<double>(automorphisms(tree));
  ASSERT_GT(exact, 0.0);
  EXPECT_NEAR(result.estimate, exact, exact * 0.15);
}

TEST(Counter, LabeledCountsAreSmallerThanUnlabeled) {
  Graph g = test_graph();
  assign_random_labels(g, 8, 9);
  TreeTemplate labeled = TreeTemplate::path(3);
  labeled.set_labels({1, 2, 3});
  CountOptions options;
  options.sampling.iterations = 50;
  options.execution.mode = ParallelMode::kSerial;
  const CountResult with_labels = count_template(g, labeled, options);
  g.clear_labels();
  const CountResult without =
      count_template(g, TreeTemplate::path(3), options);
  EXPECT_LT(with_labels.estimate, without.estimate);
}

TEST(Counter, PerVertexCountsMatchExact) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  const int orbit = u52_central_vertex();
  CountOptions options;
  options.sampling.iterations = 2500;
  options.execution.mode = ParallelMode::kSerial;
  options.sampling.seed = 3;
  const CountResult result = graphlet_degrees(g, tree, orbit, options);
  ASSERT_EQ(result.vertex_counts.size(),
            static_cast<std::size_t>(g.num_vertices()));

  // Exact per-vertex graphlet degrees by brute force on a few vertices.
  // Σ_v gd(v) = occurrences * |orbit(root)| is checked in test_exact;
  // here we spot-check convergence on the highest-degree vertex.
  VertexId hub = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  // Estimated total from per-vertex sums: Σ gd / orbit_size == estimate.
  double per_vertex_sum = 0.0;
  for (double value : result.vertex_counts) per_vertex_sum += value;
  const auto orbits = vertex_orbits(tree);
  int orbit_size = 0;
  for (int v = 0; v < tree.size(); ++v) {
    orbit_size += (orbits[v] == orbits[orbit]);
  }
  EXPECT_NEAR(per_vertex_sum / orbit_size, result.estimate,
              std::abs(result.estimate) * 1e-6);
}

TEST(Counter, RunningEstimatesArePrefixMeans) {
  const Graph g = test_graph();
  CountOptions options;
  options.sampling.iterations = 5;
  options.execution.mode = ParallelMode::kSerial;
  const CountResult result =
      count_template(g, TreeTemplate::path(3), options);
  const auto running = result.running_estimates();
  ASSERT_EQ(running.size(), 5u);
  EXPECT_DOUBLE_EQ(running[0], result.per_iteration[0]);
  EXPECT_NEAR(running[4], result.estimate, 1e-12);
}

TEST(Counter, OptionValidation) {
  const Graph g = test_graph();
  const TreeTemplate tree = TreeTemplate::path(4);
  CountOptions options;

  options.sampling.iterations = 0;
  EXPECT_THROW(count_template(g, tree, options), std::invalid_argument);
  options.sampling.iterations = 1;

  options.sampling.num_colors = 3;  // < template size
  EXPECT_THROW(count_template(g, tree, options), std::invalid_argument);
  options.sampling.num_colors = 0;

  options.root = 9;
  EXPECT_THROW(count_template(g, tree, options), std::invalid_argument);
  options.root = -1;

  // Labels on exactly one side are inconsistent.
  TreeTemplate labeled = tree;
  labeled.set_labels({0, 0, 0, 0});
  EXPECT_THROW(count_template(g, labeled, options), std::invalid_argument);
}

TEST(Counter, InstrumentationFieldsPopulated) {
  const Graph g = test_graph();
  CountOptions options;
  options.sampling.iterations = 2;
  options.execution.mode = ParallelMode::kSerial;
  const CountResult result =
      count_template(g, catalog_entry("U7-2").tree, options);
  EXPECT_EQ(result.automorphisms, 6u);
  EXPECT_GT(result.colorful_probability, 0.0);
  EXPECT_LT(result.colorful_probability, 1.0);
  EXPECT_GT(result.dp_cost, 0.0);
  EXPECT_GE(result.max_live_tables, 2);
  EXPECT_GT(result.num_subtemplates, 2);
  EXPECT_GT(result.peak_table_bytes, 0u);
  EXPECT_EQ(result.seconds_per_iteration.size(), 2u);
  EXPECT_GE(result.seconds_total, 0.0);
}

TEST(Counter, OuterModePeakMemoryAtLeastSerial) {
  // §III-E: outer-loop parallel tables are per-thread, so memory can
  // only grow with thread count (equal when 1 thread).
  const Graph g = test_graph();
  CountOptions options;
  options.sampling.iterations = 4;
  options.execution.mode = ParallelMode::kSerial;
  const auto serial = count_template(g, TreeTemplate::path(5), options);
  options.execution.mode = ParallelMode::kOuterLoop;
  const auto outer = count_template(g, TreeTemplate::path(5), options);
  EXPECT_GE(outer.peak_table_bytes + 1024, serial.peak_table_bytes);
}

}  // namespace
}  // namespace fascia
