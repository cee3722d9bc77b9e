#pragma once
// The dynamic-programming engine (Alg. 2), templated on the count
// table so the innermost loop is compile-time dispatched.
//
// One engine instance serves one (graph, template, partition, k)
// combination and may run many iterations; tables are allocated per
// node when its pass starts and freed on the partition's free_after
// schedule (≤ ~4 live at once, §III-C), except in passes that keep
// their tables (KeepTables: the embedding extractor and incremental
// runs).
//
// Rows are color-rooted (comb/colorset.hpp, DESIGN.md §8): row v of a
// size-h table counts embeddings whose root maps to v, so only the
// C(k-1, h-1) colorsets containing color(v) can be nonzero, and those
// are all the row stores.  Every kernel's index lists are keyed by the
// colors of the rows it joins (comb/split_table.hpp) and address
// rooted slots directly.
//
// Kernel selection per non-leaf subtemplate S (size h, active child
// size a, passive size p = h - a):
//   * h == 2          — both children are single vertices: counts come
//                       straight from the two endpoint colors.
//   * a == 1          — the paper's one-at-a-time fast path: each
//                       neighbor u adds its passive row through the
//                       (color(v), color(u)) list of C(k-2, h-2)
//                       rooted slot pairs (§III-D).
//   * p == 1          — mirrored fast path keyed by the neighbor color.
//   * otherwise       — general split kernel (Alg. 2 lines 7-15).
//   * h == k          — a general join over every color: each row is
//                       the one full colorset, so v's entry is a sum of
//                       per-edge dot products over complementary halves
//                       (ComplementSplit).  When the pass's caller reads
//                       only the total, the kernel commits no table and
//                       sums the dots exactly; when both halves are one
//                       table, each undirected edge is visited once.
// A triangle join (Subtemplate::passive2 set; treelet/mixed_partition)
// runs the triangle kernel whatever its sizes: over the adjacent
// neighbor pairs (u, w) of v it sums T_a[v] · T_x[u] · T_y[w] across
// the three-way colorset splits.  The edge joins of such a partition
// are ordinary stages — the kernels above dispatch on sizes only.
//
// The default kernels are the *vectorizable* rebuild (DESIGN.md §8):
//
//   * Sparse vertex frontiers — every computed table exports its
//     nonzero-vertex list and compute_tables threads it upward, so a
//     parent stage iterates only its active child's surviving vertices
//     (leaf-rooted stages intersect with the per-label vertex lists)
//     instead of scanning all n and probing has_vertex per vertex.
//   * SoA split layout + row borrowing — index lists are parallel
//     arrays, and the inner multiply-accumulate runs over contiguous
//     rows borrowed from the tables (Table::row_ptr) under `omp simd`,
//     with no per-element pointer chase.
//
// There is one kernel per stage kind.  Their oracle is
// exact/colorful_dp.hpp, Alg. 2 written literally over global
// colorsets: all DP values are exact integer counts in doubles, so
// every table entry must equal the oracle's bit for bit while counts
// stay below 2^53 (root totals are summed exactly as integers).
// tests/test_counter.cpp pins that down and bench/micro_dp times the
// kernels against it.
//
// Exact 32-bit rows (DESIGN.md §8): before a stage runs, the engine
// bounds its entries from its children's tracked maxima
// (stage_entry_bound below); when the bound fits INT32_MAX the stage's
// table stores int32_t counts, otherwise doubles.  The kernels read a
// child's rows in its stored type (one template instantiation per
// width, picked once per stage) and do every addition in double, so
// each sum sees the same doubles in the same order at either width.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "comb/binomial.hpp"
#include "comb/split_table.hpp"
#include "dp/count_table.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "run/guard.hpp"
#include "run/spill.hpp"
#include "treelet/partition.hpp"
#include "treelet/tree_template.hpp"
#include "util/mem_tracker.hpp"

namespace fascia {

/// Colors are small ints; one byte per vertex.
using ColorArray = std::vector<std::uint8_t>;

/// Per-label sorted vertex lists — the frontier a labeled leaf
/// subtemplate induces.  Graph-wide and engine-independent, so outer
/// parallel modes build it once and share it across engine copies.
struct LabelFrontiers {
  std::vector<std::vector<VertexId>> by_label;  ///< index = label value

  static std::shared_ptr<const LabelFrontiers> build(const Graph& graph) {
    auto out = std::make_shared<LabelFrontiers>();
    if (graph.has_labels()) {
      out->by_label.resize(static_cast<std::size_t>(graph.num_label_values()));
      for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        out->by_label[graph.label(v)].push_back(v);
      }
    }
    return out;
  }
};

/// Dirty-vertex balls for the incremental delta path: BFS distance
/// from the endpoints of every changed edge, measured on the POST-delta
/// graph, capped at `radius` (= template size - 1).  A DP row for a
/// subtemplate of size s at vertex v can change only if
/// dist(v, seeds) <= s - 1: a gained embedding reaches an inserted
/// edge within s-1 new-graph hops, and a lost embedding's tree path
/// from v to its first deleted-edge use survives (undeleted) in the
/// new graph.  Leaf tables depend only on colorings, so nothing is
/// recomputed at radius < 1.
struct DirtyBalls {
  int radius = 0;
  /// BFS distance per vertex; -1 = farther than radius (clean at every
  /// stage).
  std::vector<int> distance;
  /// ball[r] = sorted {v : distance[v] <= r}, r in [0, radius].
  std::vector<std::vector<VertexId>> ball;

  [[nodiscard]] bool dirty(VertexId v, int r) const noexcept {
    const int d = distance[static_cast<std::size_t>(v)];
    return d >= 0 && d <= r;
  }

  /// Vertices within `r` hops of any seed (r clamped to the built
  /// radius — larger stages reuse the outermost ball).
  [[nodiscard]] const std::vector<VertexId>& at(int r) const noexcept {
    return ball[static_cast<std::size_t>(std::clamp(r, 0, radius))];
  }

  static DirtyBalls build(const Graph& graph,
                          const std::vector<VertexId>& seeds, int radius) {
    DirtyBalls out;
    out.radius = std::max(0, radius);
    out.distance.assign(static_cast<std::size_t>(graph.num_vertices()), -1);
    out.ball.resize(static_cast<std::size_t>(out.radius) + 1);
    std::vector<VertexId> level = seeds;  // sorted unique by contract
    for (const VertexId v : level) {
      out.distance[static_cast<std::size_t>(v)] = 0;
    }
    out.ball[0] = level;
    for (int r = 1; r <= out.radius; ++r) {
      std::vector<VertexId> next;
      for (const VertexId v : level) {
        for (const VertexId u : graph.neighbors(v)) {
          if (out.distance[static_cast<std::size_t>(u)] >= 0) continue;
          out.distance[static_cast<std::size_t>(u)] = r;
          next.push_back(u);
        }
      }
      std::sort(next.begin(), next.end());
      out.ball[static_cast<std::size_t>(r)].resize(
          out.ball[static_cast<std::size_t>(r) - 1].size() + next.size());
      std::merge(out.ball[static_cast<std::size_t>(r) - 1].begin(),
                 out.ball[static_cast<std::size_t>(r) - 1].end(),
                 next.begin(), next.end(),
                 out.ball[static_cast<std::size_t>(r)].begin());
      level = std::move(next);
    }
    return out;
  }
};

/// Largest value stage_entry_bound returns: "no bound fits 64 bits".
inline constexpr std::uint64_t kSaturatedBound =
    std::numeric_limits<std::uint64_t>::max();

namespace detail {

/// A tracked maximum entry as an exact integer; saturated when it is
/// past 2^53 (where doubles stop being exact) or unknown (infinite).
[[nodiscard]] inline std::uint64_t bound_operand(double max_entry) noexcept {
  if (!(max_entry <= 0x1p53)) return kSaturatedBound;
  return max_entry > 0.0 ? static_cast<std::uint64_t>(max_entry) : 0;
}

[[nodiscard]] inline std::uint64_t saturating_mul(std::uint64_t x,
                                                  std::uint64_t y) noexcept {
  if (x != 0 && y > kSaturatedBound / x) return kSaturatedBound;
  return x * y;
}

}  // namespace detail

/// Upper bound on every entry of a size-h stage whose active child has
/// size a, from the largest vertex degree and the children's largest
/// entries (a leaf child counts as 1, whatever is passed for it):
///
///   pair            (h = 2)      Δ
///   single_active   (a = 1)      Δ · M_p
///   single_passive  (h - a = 1)  Δ · M_a
///   general                      C(h-1, a-1) · M_a · Δ · M_p
///
/// An entry sums, over v's at most Δ neighbors u, the products of an
/// active and a passive count over the splits of its colorset whose
/// active side holds c(v): at most C(h-1, a-1) of them, and exactly one
/// (the side holding only c(v) or only c(u)) when either child is a
/// single vertex.  Saturating: maxima past 2^53 (or infinite) and any
/// overflowing product give kSaturatedBound.
[[nodiscard]] inline std::uint64_t stage_entry_bound(
    int h, int a, std::uint64_t max_degree, double max_active,
    double max_passive) noexcept {
  const std::uint64_t m_a = a == 1 ? 1 : detail::bound_operand(max_active);
  const std::uint64_t m_p =
      h - a == 1 ? 1 : detail::bound_operand(max_passive);
  const std::uint64_t splits = a == 1 || h - a == 1 ? 1 : choose(h - 1, a - 1);
  return detail::saturating_mul(
      detail::saturating_mul(detail::saturating_mul(splits, m_a), max_degree),
      m_p);
}

/// Upper bound on every entry of a size-h triangle join (A ⊎ X ⊎ Y,
/// active size a, X of size x, r = h - a):
///
///   Δ · (Δ - 1) · C(h-1, a-1) · C(r-1, x-1) · M_a · M_x · M_y
///
/// An entry sums, over the ordered pairs (u, w) of adjacent neighbors
/// of v — at most Δ choices of u and, since w ∈ N(v) and w ≠ u, at most
/// Δ - 1 of w — the products T_a[v][A] · T_x[u][X] · T_y[w][Y] over the
/// splits S = A ⊎ X ⊎ Y with c(v) ∈ A, c(u) ∈ X, c(w) ∈ Y.  A holds
/// c(v) and a - 1 of the other h - 1 colors of S; X holds c(u) and
/// x - 1 of the other r - 1 colors of R = S∖A; Y is the rest.  Each
/// product is at most M_a · M_x · M_y.  Leaf children count as 1;
/// saturating as above.
[[nodiscard]] inline std::uint64_t stage_entry_bound(
    int h, int a, int x, std::uint64_t max_degree, double max_active,
    double max_x, double max_y) noexcept {
  const int r = h - a;
  const std::uint64_t m_a = a == 1 ? 1 : detail::bound_operand(max_active);
  const std::uint64_t m_x = x == 1 ? 1 : detail::bound_operand(max_x);
  const std::uint64_t m_y = r - x == 1 ? 1 : detail::bound_operand(max_y);
  const std::uint64_t pairs = detail::saturating_mul(
      max_degree, max_degree > 0 ? max_degree - 1 : 0);
  const std::uint64_t splits = detail::saturating_mul(
      choose(h - 1, a - 1), choose(r - 1, x - 1));
  return detail::saturating_mul(
      detail::saturating_mul(detail::saturating_mul(pairs, splits), m_a),
      detail::saturating_mul(m_x, m_y));
}

/// Bytes per entry a stage with this bound stores: 4 (int32_t) when
/// every entry provably fits, else 8 (double).
[[nodiscard]] constexpr int stage_entry_bytes(std::uint64_t bound) noexcept {
  return bound <= static_cast<std::uint64_t>(
                      std::numeric_limits<std::int32_t>::max())
             ? 4
             : 8;
}

/// What a DP pass leaves behind (DpEngine::compute_tables, run).
enum class KeepTables {
  kNo,       ///< free each table on the partition's free_after schedule
  kForReads, ///< keep every table for reads through get() (extraction)
  /// Keep every table for incremental recounts: every stage stores
  /// 8-byte entries, since run_delta's patch and copy routes rewrite
  /// them with counts no bound was taken for.
  kForRecounts,
};

/// Work accounting for delta passes (DpEngine::run_delta), summed
/// over a recount's iterations into CountResult::delta.
struct DeltaPassStats {
  std::uint64_t rows_recomputed = 0;
  std::uint64_t rows_copied = 0;
  std::uint64_t stages_recomputed = 0;
};

/// Engine tuning knobs (all default to the production fast path).
struct DpEngineOptions {
  /// Record one DpStageStats entry per computed node pass.
  bool collect_stats = false;

  /// Shared per-label vertex lists; nullptr makes the engine build its
  /// own when the graph is labeled.
  std::shared_ptr<const LabelFrontiers> label_frontiers;

  /// Threads for the inner-parallel frontier sweep; 0 = the OpenMP
  /// default.  The hybrid scheduler sets this so each outer engine
  /// copy parallelizes its stages over its own thread share.
  int inner_threads = 0;

  /// Reverse-guided frontier sweep instead of forward-dynamic.  With a
  /// hub-first vertex order (degree/hybrid reorder) the heaviest
  /// vertices sit at the FRONT of every frontier; a forward guided
  /// schedule would pack them all into the first (largest) chunk.
  /// Sweeping the frontier back-to-front hands out the cheap tail in
  /// large chunks and the expensive hubs in the final small ones, so
  /// no single thread serializes the hub block.
  bool guided_schedule = false;

  /// Out-of-core paging (run/spill.hpp): with both knobs set, completed
  /// sub-template tables beyond spill_budget_bytes page to checksummed
  /// files in spill_dir and are restored right before the stage (or
  /// total read) that consumes them.  The eviction policy is Belady on
  /// the static stage schedule: the victim is the resident table whose
  /// next consuming stage is farthest away.  Restored rows re-commit
  /// through the table's own commit_row at the table's entry width, so
  /// paged and in-memory passes are bit-identical.  Inert in passes
  /// that keep their tables (the extractor needs every table resident).
  std::string spill_dir;
  std::size_t spill_budget_bytes = 0;
};

/// One computed node pass, for kernel benchmarking (bench/micro_dp).
struct DpStageStats {
  int node = 0;
  int parent_size = 0;
  int active_size = 0;
  /// 'P'air, 'A'=single-active, 'S'=single-passive, 'G'eneral,
  /// 'T'riangle join
  char kernel = '?';
  double seconds = 0.0;
  std::uint64_t candidates = 0;  ///< vertices iterated by the pass
  std::uint64_t survivors = 0;   ///< nonzero rows committed (frontier out)
  std::uint64_t macs = 0;        ///< multiply-accumulates performed
  int entry_bytes = 8;           ///< stored width: 4 (int32) or 8 (double)
  std::uint64_t bound = 0;       ///< stage_entry_bound the width came from
  double max_entry = 0.0;        ///< largest committed entry
  /// Every entry of the pass is known to be at most 2^53, so exact in
  /// a double: false for delta passes, whose maxima are not tracked.
  bool exact = false;
};

/// Human-readable kernel name for a DpStageStats::kernel tag.
inline const char* dp_kernel_name(char kernel) noexcept {
  switch (kernel) {
    case 'P':
      return "pair";
    case 'A':
      return "single_active";
    case 'S':
      return "single_passive";
    case 'G':
      return "general";
    case 'T':
      return "triangle";
  }
  return "unknown";
}

/// Merge per-pass engine stats into one report entry per node:
/// `passes` counts contributing colorings, the numeric columns
/// accumulate.  Node order is partition order — deterministic across
/// thread counts and modes.
inline void merge_stage_stats(const std::vector<DpStageStats>& stats,
                              const char* table_name,
                              std::vector<obs::ReportStage>* out) {
  for (const DpStageStats& stat : stats) {
    obs::ReportStage* slot = nullptr;
    for (obs::ReportStage& existing : *out) {
      if (existing.node == stat.node) {
        slot = &existing;
        break;
      }
    }
    if (slot == nullptr) {
      out->emplace_back();
      slot = &out->back();
      slot->node = stat.node;
      slot->kernel = dp_kernel_name(stat.kernel);
      slot->table = table_name;
      slot->parent_size = stat.parent_size;
      slot->active_size = stat.active_size;
      slot->exact = true;
    }
    ++slot->passes;
    slot->exact = slot->exact && stat.exact;
    if (stat.entry_bytes == 4) ++slot->narrow_passes;
    slot->max_bound = std::max(slot->max_bound, static_cast<double>(stat.bound));
    slot->seconds += stat.seconds;
    slot->candidates += static_cast<double>(stat.candidates);
    slot->survivors += static_cast<double>(stat.survivors);
    slot->macs += static_cast<double>(stat.macs);
  }
}

namespace detail {

/// Registry instruments for one computed stage pass (DESIGN.md §10).
/// Callers gate on obs::enabled(); the handles are interned once.
inline void record_stage_metrics(char kernel, double seconds,
                                 std::uint64_t survivors,
                                 std::int64_t num_vertices,
                                 std::size_t table_bytes) {
  using obs::InstrumentKind;
  using obs::Metric;
  static const Metric pair("dp.stage.pair", InstrumentKind::kCounter);
  static const Metric active("dp.stage.single_active",
                             InstrumentKind::kCounter);
  static const Metric passive("dp.stage.single_passive",
                              InstrumentKind::kCounter);
  static const Metric general("dp.stage.general", InstrumentKind::kCounter);
  static const Metric triangle("dp.stage.triangle", InstrumentKind::kCounter);
  static const Metric stage_seconds("dp.stage.seconds",
                                    InstrumentKind::kTimeHistogram);
  static const Metric occupancy("dp.frontier.occupancy",
                                InstrumentKind::kValueHistogram);
  static const Metric bytes("dp.table.bytes", InstrumentKind::kByteHistogram);
  switch (kernel) {
    case 'P':
      pair.add();
      break;
    case 'A':
      active.add();
      break;
    case 'S':
      passive.add();
      break;
    case 'T':
      triangle.add();
      break;
    default:
      general.add();
      break;
  }
  stage_seconds.observe(seconds);
  if (num_vertices > 0) {
    occupancy.observe(static_cast<double>(survivors) /
                      static_cast<double>(num_vertices));
  }
  bytes.observe(static_cast<double>(table_bytes));
}

/// Counter of bytes written to out-of-core table pages (CI's smoke job
/// asserts it moves when a run is forced to spill).
inline void record_spilled_bytes(std::size_t bytes) {
  static const obs::Metric spilled("dp.table.spilled_bytes",
                                   obs::InstrumentKind::kCounter);
  spilled.add(static_cast<double>(bytes));
}

/// Process-unique tag so concurrent engine copies sharing one spill
/// directory never collide on page file names.
inline int next_spill_tag() noexcept {
  static std::atomic<int> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

/// Tables without contiguous rows that can still reconstruct a dense
/// row from their packed nonzeros (succinct).  The kernels' sequential
/// read patterns decode whole rows in O(nnz) instead of paying a rank
/// or binary search per get() probe.
template <class T>
concept DecodableRowTable = requires(const T& t, double* out) {
  t.decode_row(VertexId{0}, out);
};

/// Tables that can also enumerate a row's stored nonzeros in ascending
/// slot order.  The general kernel's fold scatters them into its
/// globally indexed partial-sum row — O(nnz) per row, no dense decode.
template <class T>
concept SparseRowTable = requires(const T& t) {
  t.for_each_nonzero(VertexId{0}, [](ColorsetIndex, double) {});
};

template <class Table>
class DpEngine {
 public:
  /// The engine is independent of the originating template(s): leaf
  /// label filters travel inside the partition nodes (root_label), so
  /// a merged multi-template DAG (sched::plan_batch) runs unchanged.
  DpEngine(const Graph& graph, const PartitionTree& partition, int num_colors,
           DpEngineOptions options = {})
      : graph_(graph), partition_(partition), k_(num_colors),
        opts_(std::move(options)),
        max_degree_(static_cast<std::uint64_t>(graph.max_degree())) {
    const int num_nodes = partition_.num_nodes();
    tables_.resize(static_cast<std::size_t>(num_nodes));
    frontiers_.resize(static_cast<std::size_t>(num_nodes));
    node_max_.assign(static_cast<std::size_t>(num_nodes), kUnknownMax);
    if (spill_enabled()) {
      spill_tag_ = detail::next_spill_tag();
      spilled_to_.resize(static_cast<std::size_t>(num_nodes));
      spilled_entry_bytes_.assign(static_cast<std::size_t>(num_nodes), 8);
      node_bytes_.assign(static_cast<std::size_t>(num_nodes), 0);
      consumers_.resize(static_cast<std::size_t>(num_nodes));
      for (int i = 0; i < num_nodes; ++i) {
        const Subtemplate& node = partition_.node(i);
        if (node.is_leaf()) continue;
        // Ascending by construction (children precede parents), so
        // next_use() can scan for the first entry past a stage.
        consumers_[static_cast<std::size_t>(node.active)].push_back(i);
        consumers_[static_cast<std::size_t>(node.passive)].push_back(i);
        if (node.is_triangle_join()) {
          consumers_[static_cast<std::size_t>(node.passive2)].push_back(i);
        }
      }
    }
    rooted_.resize(static_cast<std::size_t>(k_) + 1);
    single_splits_.resize(static_cast<std::size_t>(k_) + 1);
    node_single_.assign(static_cast<std::size_t>(num_nodes), nullptr);
    node_general_.assign(static_cast<std::size_t>(num_nodes), nullptr);
    node_rest_.assign(static_cast<std::size_t>(num_nodes), nullptr);
    node_active_bound_.assign(static_cast<std::size_t>(num_nodes), 0);
    node_complement_.assign(static_cast<std::size_t>(num_nodes), nullptr);
    join_totals_.resize(static_cast<std::size_t>(num_nodes));
    for (int i = 0; i < num_nodes; ++i) {
      const Subtemplate& node = partition_.node(i);
      if (node.is_leaf()) continue;
      const int h = node.size();
      const int a = partition_.node(node.active).size();
      if (node.is_triangle_join()) {
        // S = A ⊎ R at the root, R = X ⊎ Y across the triangle: both
        // through fold views, with R and Y addressed globally.
        const int r = h - a;
        const int sx = partition_.node(node.passive).size();
        for (const int size : {h, a, r, r - sx}) {
          if (!rooted_[static_cast<std::size_t>(size)]) {
            rooted_[static_cast<std::size_t>(size)].emplace(k_, size);
          }
        }
        node_general_[static_cast<std::size_t>(i)] =
            &general_splits_.try_emplace(std::make_pair(h, a), k_, h, a)
                 .first->second;
        node_rest_[static_cast<std::size_t>(i)] =
            &general_splits_.try_emplace(std::make_pair(r, sx), k_, r, sx)
                 .first->second;
        continue;
      }
      for (const int size : {h, a, h - a}) {
        if (size >= 2 && !rooted_[static_cast<std::size_t>(size)]) {
          rooted_[static_cast<std::size_t>(size)].emplace(k_, size);
        }
      }
      if (h > 2 && (a == 1 || h - a == 1)) {
        if (!single_splits_[static_cast<std::size_t>(h)]) {
          single_splits_[static_cast<std::size_t>(h)].emplace(k_, h);
        }
        node_single_[static_cast<std::size_t>(i)] =
            &*single_splits_[static_cast<std::size_t>(h)];
      }
      if (a > 1 && h - a > 1 && h == k_) {
        node_complement_[static_cast<std::size_t>(i)] =
            &complement_splits_.try_emplace(a, k_, a).first->second;
      } else if (a > 1 && h - a > 1) {
        auto [it, inserted] =
            general_splits_.try_emplace(std::make_pair(h, a), k_, h, a);
        (void)inserted;
        node_general_[static_cast<std::size_t>(i)] = &it->second;
        // Nonzero active-row entries per vertex: the rooted active row
        // holds C(k-1, a-1) slots, so at most that many survive the
        // hoist.  Reserved once per thread; no per-vertex reallocation.
        node_active_bound_[static_cast<std::size_t>(i)] =
            static_cast<std::size_t>(choose(k_ - 1, a - 1));
      }
    }
    if (graph_.has_labels() && opts_.label_frontiers == nullptr) {
      opts_.label_frontiers = LabelFrontiers::build(graph_);
    }
  }

  DpEngine(const Graph& graph, const TreeTemplate& tmpl,
           const PartitionTree& partition, int num_colors,
           DpEngineOptions options = {})
      : DpEngine(graph, partition, num_colors, std::move(options)) {
    (void)tmpl;  // labels already live in the partition nodes
  }

  /// One bottom-up DP pass for a fixed coloring, filling the per-node
  /// tables.  When `needed` is non-null (size num_nodes) only flagged
  /// nodes are computed — the batch scheduler masks off stages no
  /// active job demands; the mask must be closed under children.
  /// Intermediate tables are freed on the free_after schedule unless
  /// `keep` says otherwise (KeepTables); nodes with free_after == -1
  /// survive until release_all_tables() so callers can read them.
  /// `root_rows` says whether the caller reads the rows of size-k
  /// nodes (per-vertex totals, get()); when it does not and the pass
  /// keeps nothing, full-colorset general joins commit no table and
  /// leave only their exact totals for node_total().
  void compute_tables(const ColorArray& colors, bool parallel_inner,
                      const std::vector<char>* needed = nullptr,
                      KeepTables keep = KeepTables::kNo,
                      bool root_rows = true) {
    release_all_tables();
    const bool keep_tables = keep != KeepTables::kNo;
    const bool totals_only = !keep_tables && !root_rows;
    const int num_nodes = partition_.num_nodes();
    for (int i = 0; i < num_nodes; ++i) {
      // Cooperative stop (run/guard.hpp): polled between stage passes
      // so a deadline or budget trips within one node pass, not one
      // full iteration.  The aborted pass's tables are released; the
      // caller sees guard->stopped() and discards the iteration.
      if (guard_ != nullptr && guard_->poll()) {
        release_all_tables();
        return;
      }
      const Subtemplate& node = partition_.node(i);
      const bool wanted =
          needed == nullptr || (*needed)[static_cast<std::size_t>(i)] != 0;
      const bool paging = spill_enabled() && !keep_tables;
      if (!node.is_leaf() && wanted) {
        if (paging) {
          // Children computed earlier may have been paged out; the
          // kernels read them directly, so restore before the pass.
          ensure_resident(node.active);
          ensure_resident(node.passive);
          if (node.is_triangle_join()) ensure_resident(node.passive2);
        }
        compute_node(i, colors, parallel_inner,
                     /*narrow_ok=*/keep != KeepTables::kForRecounts,
                     totals_only);
        if (paging && tables_[static_cast<std::size_t>(i)] != nullptr) {
          node_bytes_[static_cast<std::size_t>(i)] =
              tables_[static_cast<std::size_t>(i)]->bytes();
          resident_bytes_ += node_bytes_[static_cast<std::size_t>(i)];
        }
      }
      if (!keep_tables) {
        for (int j = 0; j < i; ++j) {
          if (partition_.node(j).free_after == i) free_node(j);
        }
        if (paging) evict_over_budget(i);
      }
    }
  }

  /// Colorful-embedding total of a computed non-leaf node's table
  /// (restoring it first if it was paged out): its entries summed as a
  /// 128-bit integer and rounded once (count_table.hpp's exact root
  /// reduction), so the total does not depend on vertex order, and a
  /// template rooted anywhere gives the same double while its entries
  /// are exact.  A full-colorset join computed without rows returns
  /// its per-edge dots' exact sum, the same rounding of the same
  /// integer.
  [[nodiscard]] double node_total(int node) {
    const auto idx = static_cast<std::size_t>(node);
    if (join_totals_[idx]) return *join_totals_[idx];
    ensure_resident(node);
    return tables_[idx]->total();
  }

  /// Whether every entry of a computed node's table is known to be at
  /// most 2^53, so exact in a double (for a join computed without rows:
  /// every per-edge dot, so its exact total is exact).  Leaves are
  /// exact; delta passes track no maxima and read false.
  [[nodiscard]] bool node_exact(int node) const noexcept {
    return node_max(node) <= 0x1p53;
  }

  /// Count of graph vertices matching a leaf node's label filter — the
  /// DP base case a single-vertex template degenerates to.
  [[nodiscard]] double leaf_count(int node) const {
    const Subtemplate& leaf = partition_.node(node);
    double count = 0.0;
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      if (leaf_matches(leaf, v)) count += 1.0;
    }
    return count;
  }

  /// Adds a computed node's per-vertex colorful totals into `out`
  /// (size n): its table's row sums, or 1 per label-matching vertex
  /// for a leaf (a single-vertex template).
  void add_vertex_totals(int node, std::vector<double>& out) {
    const Subtemplate& sub = partition_.node(node);
    if (sub.is_leaf()) {
      for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
        if (leaf_matches(sub, v)) out[static_cast<std::size_t>(v)] += 1.0;
      }
      return;
    }
    // The last eviction pass may have paged the node out.
    ensure_resident(node);
    const Table& table = *tables_[static_cast<std::size_t>(node)];
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      out[static_cast<std::size_t>(v)] += table.vertex_total(v);
    }
  }

  /// Colorful total of the root: its table's sum (Alg. 2 line 20), or
  /// the matching vertex count for a single-vertex template.
  [[nodiscard]] double root_total() {
    const int root = partition_.root_node();
    return partition_.node(root).is_leaf() ? leaf_count(root)
                                           : node_total(root);
  }

  /// One full bottom-up DP pass for a fixed coloring; returns the sum
  /// over the root table.  A pass that keeps nothing reads no root
  /// rows.
  double run(const ColorArray& colors, bool parallel_inner,
             KeepTables keep = KeepTables::kNo) {
    compute_tables(colors, parallel_inner, nullptr, keep,
                   /*root_rows=*/false);
    if (guard_ != nullptr && guard_->stopped()) return 0.0;
    const double total = root_total();
    if (keep == KeepTables::kNo) release_all_tables();
    return total;
  }

  /// Table for a node (nullptr for leaves or freed nodes); valid after
  /// a pass that kept its tables (KeepTables).
  [[nodiscard]] const Table* table(int node) const noexcept {
    return tables_[static_cast<std::size_t>(node)].get();
  }

  /// The global-index <-> rooted-slot translation for size-`size`
  /// tables (size >= 2 and the size of some non-leaf node or child).
  /// Callers that address a table's rows by global colorset — the
  /// embedding extractor — go through it.
  [[nodiscard]] const RootedColorsets& rooted_colorsets(int size)
      const noexcept {
    return *rooted_[static_cast<std::size_t>(size)];
  }

  /// Nonzero-vertex list of a computed node's table (empty for leaves
  /// or freed nodes).  Same lifetime as the node's table.
  [[nodiscard]] const std::vector<VertexId>& frontier(int node)
      const noexcept {
    return frontiers_[static_cast<std::size_t>(node)];
  }

  /// Retained DP state of one coloring's pass: every non-leaf table
  /// plus its frontier, as left behind by compute_tables(...,
  /// KeepTables::kForRecounts) or run_delta().  The iteration driver moves it
  /// out per iteration on incremental runs (sched/driver.hpp) and
  /// re-adopts it before the next recount of the same iteration.
  struct Retained {
    std::vector<std::unique_ptr<Table>> tables;
    std::vector<std::vector<VertexId>> frontiers;
  };

  /// Moves the current tables/frontiers out (leaving empty slots);
  /// valid after compute_tables(..., KeepTables::kForRecounts) or
  /// run_delta().
  [[nodiscard]] Retained take_retained() {
    Retained out;
    out.tables = std::move(tables_);
    out.frontiers = std::move(frontiers_);
    tables_.clear();
    tables_.resize(static_cast<std::size_t>(partition_.num_nodes()));
    frontiers_.assign(static_cast<std::size_t>(partition_.num_nodes()),
                      std::vector<VertexId>());
    return out;
  }

  /// Installs previously taken retained state.  The state must come
  /// from an engine over the same partition and table layout.
  void adopt_retained(Retained&& retained) {
    release_all_tables();
    tables_ = std::move(retained.tables);
    frontiers_ = std::move(retained.frontiers);
    tables_.resize(static_cast<std::size_t>(partition_.num_nodes()));
    frontiers_.resize(static_cast<std::size_t>(partition_.num_nodes()));
  }

  /// Incremental recount after a graph delta — the engine half of the
  /// delta path.  Preconditions: spill disabled, graph_ is the
  /// POST-delta graph, and tables_/frontiers_ hold
  /// the retained state of this configuration's previous pass over the
  /// PRE-delta graph under the SAME coloring (adopt_retained).
  ///
  /// Each non-leaf stage of size h is recomputed restricted to the
  /// dirty ball of radius h-1 (leaf tables depend only on colors and
  /// are never materialized).  Rows outside the ball are preserved by
  /// one of two routes: patchable layouts (CompactTable) keep the
  /// RETAINED table and overwrite only the ball rows in place, so the
  /// pass never touches the O(n) clean region; the other layouts copy
  /// every clean row verbatim into the fresh table (run/spill.hpp's
  /// decode -> commit_row round trip, proven bit-exact).  The
  /// resulting tables and frontiers are bit-identical to a full
  /// compute_tables(colors, ..., KeepTables::kForRecounts) on the new
  /// graph either way, so callers read totals (node_total,
  /// add_vertex_totals) exactly as after a full pass.  Every table it
  /// builds stores 8-byte entries; the partial passes leave no tracked
  /// maxima behind.
  void run_delta(const ColorArray& colors, bool parallel_inner,
                 const DirtyBalls& dirty, DeltaPassStats& delta_stats) {
    const int num_nodes = partition_.num_nodes();
    std::vector<std::unique_ptr<Table>> old_tables = std::move(tables_);
    std::vector<std::vector<VertexId>> old_frontiers = std::move(frontiers_);
    old_tables.resize(static_cast<std::size_t>(num_nodes));
    old_frontiers.resize(static_cast<std::size_t>(num_nodes));
    tables_.clear();
    tables_.resize(static_cast<std::size_t>(num_nodes));
    frontiers_.assign(static_cast<std::size_t>(num_nodes),
                      std::vector<VertexId>());

    std::vector<VertexId> restricted;  // ball ∩ new active frontier (S/G)
    std::vector<VertexId> clean;       // retained rows kept verbatim
    std::vector<double> rowbuf;
    for (int i = 0; i < num_nodes; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const Subtemplate& node = partition_.node(i);
      if (node.is_leaf()) continue;
      const int h = node.size();
      const std::vector<VertexId>& ball = dirty.at(h - 1);
      if (ball.empty() && old_tables[idx] != nullptr) {
        // Empty delta: nothing inside any ball, the retained stage is
        // the new stage.
        tables_[idx] = std::move(old_tables[idx]);
        frontiers_[idx] = std::move(old_frontiers[idx]);
        continue;
      }
      // Pair / single-active stages draw candidates from a leaf
      // frontier (or all vertices): the ball stands in directly, with
      // the leaf label filter re-applied per vertex.  Single-passive /
      // general stages draw from the active child's (already rebuilt)
      // frontier: restrict to the intersection so the survivor set
      // matches a full pass exactly — dense tables would otherwise
      // commit spurious zero rows for ball vertices off the frontier.
      const int a = partition_.node(node.active).size();
      if (h == 2 || a == 1) {
        delta_restrict_ = &ball;
      } else {
        const std::vector<VertexId>& af =
            frontiers_[static_cast<std::size_t>(node.active)];
        restricted.clear();
        for (const VertexId v : ball) {
          if (std::binary_search(af.begin(), af.end(), v)) {
            restricted.push_back(v);
          }
        }
        delta_restrict_ = &restricted;
      }
      compute_node(i, colors, parallel_inner, /*narrow_ok=*/false,
                   /*totals_only=*/false);
      delta_restrict_ = nullptr;
      node_max_[idx] = kUnknownMax;  // the ball rows' maximum only

      std::vector<VertexId>& fresh_frontier = frontiers_[idx];
      ++delta_stats.stages_recomputed;
      delta_stats.rows_recomputed += fresh_frontier.size();
      // Preserve the clean rows: every retained-frontier vertex
      // outside the ball kept its row (the dirty-ball bound).  The
      // retained frontier entries are kept even when rowless (zero-row
      // carry-overs, see kernel_single_passive) — a full pass keeps
      // them too.
      Table* old = old_tables[idx].get();
      const std::vector<VertexId>& old_frontier = old_frontiers[idx];
      clean.clear();
      if constexpr (Table::kPatchableRows) {
        if (old != nullptr) {
          // Patch route: the RETAINED table stays; only ball rows are
          // rewritten from the freshly computed dirty stage (or
          // cleared, for ball vertices a full pass would not commit —
          // off the new frontier or recomputed to all-zero).  Clean
          // rows are physically untouched, so the pass costs O(ball),
          // not O(n).
          const Table& fresh = *tables_[idx];
          const std::uint32_t width = fresh.num_colorsets();
          for (const VertexId v : ball) {
            const double* prow = fresh.row_ptr(v);
            if (prow != nullptr) {
              old->patch_row(v, std::span<const double>(prow, width));
            } else {
              old->clear_row(v);
            }
          }
          for (const VertexId v : old_frontier) {
            if (!dirty.dirty(v, h - 1)) clean.push_back(v);
          }
          delta_stats.rows_copied += clean.size();
          tables_[idx] = std::move(old_tables[idx]);
        }
      } else if (old != nullptr) {
        // Copy route: splice every clean row verbatim into the fresh
        // table.
        Table& fresh = *tables_[idx];
        const std::uint32_t width = fresh.num_colorsets();
        rowbuf.resize(width);
        for (const VertexId v : old_frontier) {
          if (dirty.dirty(v, h - 1)) continue;
          clean.push_back(v);
          if constexpr (Table::kContiguousRows) {
            const double* prow = old->row_ptr(v);
            if (prow == nullptr) continue;
            std::copy(prow, prow + width, rowbuf.begin());
          } else if constexpr (DecodableRowTable<Table>) {
            if (!old->has_vertex(v)) continue;
            old->decode_row(v, rowbuf.data());
          } else {
            if (!old->has_vertex(v)) continue;
            for (std::uint32_t c = 0; c < width; ++c) {
              rowbuf[static_cast<std::size_t>(c)] = old->get(v, c);
            }
          }
          fresh.commit_row(v, rowbuf);
          ++delta_stats.rows_copied;
        }
      }
      if (!clean.empty()) {
        std::vector<VertexId> merged(clean.size() + fresh_frontier.size());
        std::merge(clean.begin(), clean.end(), fresh_frontier.begin(),
                   fresh_frontier.end(), merged.begin());
        fresh_frontier = std::move(merged);
      }
      // The retained stage is fully absorbed (or adopted): drop any
      // leftover now to bound the transient peak at one duplicated
      // stage.
      old_tables[idx].reset();
      std::vector<VertexId>().swap(old_frontiers[idx]);
    }
  }

  [[nodiscard]] const PartitionTree& partition() const noexcept {
    return partition_;
  }
  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] int num_colors() const noexcept { return k_; }

  /// Attaches a cooperative stop condition; nullptr detaches.  The
  /// guard must outlive every subsequent compute_tables()/run() call.
  void set_guard(const RunGuard* guard) noexcept { guard_ = guard; }

  /// Per-node-pass kernel measurements, appended across compute calls
  /// while DpEngineOptions::collect_stats is set.
  [[nodiscard]] const std::vector<DpStageStats>& stage_stats()
      const noexcept {
    return stats_;
  }
  void clear_stage_stats() noexcept { stats_.clear(); }

  void release_all_tables() noexcept {
    for (int j = 0; j < static_cast<int>(tables_.size()); ++j) free_node(j);
  }

  /// Out-of-core paging activity since construction: bytes of table
  /// pages written to spill_dir and the number of page-out events.
  /// Always 0 when the spill knobs are unset.
  [[nodiscard]] std::size_t spilled_bytes() const noexcept {
    return spilled_bytes_;
  }
  [[nodiscard]] int spill_events() const noexcept { return spill_events_; }

  ~DpEngine() { release_all_tables(); }  // drops any leftover page files
  DpEngine(DpEngine&&) noexcept = default;
  DpEngine(const DpEngine&) = delete;
  DpEngine& operator=(const DpEngine&) = delete;
  DpEngine& operator=(DpEngine&&) = delete;

 private:
  /// Leaf base case (Alg. 2 line 4) with the labeled-mode filter: a
  /// single-vertex subtemplate matches graph vertex v iff labels agree
  /// (§V-A).  The label is carried by the partition node so the engine
  /// needs no back-reference to the originating template.
  [[nodiscard]] bool leaf_matches(const Subtemplate& leaf,
                                  VertexId v) const noexcept {
    if (leaf.root_label < 0 || !graph_.has_labels()) return true;
    return leaf.root_label == static_cast<int>(graph_.label(v));
  }

  /// Vertex list a leaf subtemplate restricts the DP to: the label's
  /// frontier when the leaf is labeled, nullptr (= all vertices) when
  /// unlabeled.
  [[nodiscard]] const std::vector<VertexId>* leaf_frontier(
      const Subtemplate& leaf) const noexcept {
    if (leaf.root_label < 0 || !graph_.has_labels() ||
        opts_.label_frontiers == nullptr) {
      return nullptr;
    }
    const auto label = static_cast<std::size_t>(leaf.root_label);
    if (label >= opts_.label_frontiers->by_label.size()) return nullptr;
    return &opts_.label_frontiers->by_label[label];
  }

  void release_frontier(int node) noexcept {
    std::vector<VertexId>().swap(frontiers_[static_cast<std::size_t>(node)]);
  }

  // ---- out-of-core paging (run/spill.hpp) -------------------------------

  [[nodiscard]] bool spill_enabled() const noexcept {
    return !opts_.spill_dir.empty() && opts_.spill_budget_bytes > 0;
  }

  [[nodiscard]] std::string spill_path(int node) const {
    std::string path = opts_.spill_dir;
    if (!path.empty() && path.back() != '/') path += '/';
    path += "fascia_spill_e" + std::to_string(spill_tag_) + "_n" +
            std::to_string(node) + ".tbl";
    return path;
  }

  /// Restores a paged-out node's table; no-op when resident (or when
  /// paging is off — spilled_to_ is then empty).  The page file is
  /// consumed; a later eviction rewrites it.  The frontier was never
  /// released, so the restored node is indistinguishable from one that
  /// stayed resident.
  void ensure_resident(int node) {
    const auto idx = static_cast<std::size_t>(node);
    if (idx >= spilled_to_.size() || spilled_to_[idx].empty()) return;
    FASCIA_TRACE("dp.page_in", node);
    tables_[idx] = run::restore_table<Table>(
        spilled_to_[idx], graph_.num_vertices(), nullptr,
        spilled_entry_bytes_[idx]);
    std::remove(spilled_to_[idx].c_str());
    spilled_to_[idx].clear();
    node_bytes_[idx] = tables_[idx]->bytes();
    resident_bytes_ += node_bytes_[idx];
  }

  /// Frees a node's table wherever it lives — resident memory or a
  /// spill page — and its frontier.  The one release path, so byte
  /// accounting and page files can never leak apart.
  void free_node(int node) noexcept {
    const auto idx = static_cast<std::size_t>(node);
    if (idx < spilled_to_.size() && !spilled_to_[idx].empty()) {
      std::remove(spilled_to_[idx].c_str());
      spilled_to_[idx].clear();
    }
    if (idx < node_bytes_.size()) {
      resident_bytes_ -= node_bytes_[idx];
      node_bytes_[idx] = 0;
    }
    tables_[idx].reset();
    join_totals_[idx].reset();
    release_frontier(node);
  }

  /// First stage after `current` that reads `node`'s table;
  /// num_nodes when none does (the ideal eviction victim).
  [[nodiscard]] int next_use(int node, int current) const noexcept {
    for (const int c : consumers_[static_cast<std::size_t>(node)]) {
      if (c > current) return c;
    }
    return partition_.num_nodes();
  }

  /// Belady eviction after stage `current`: page out the resident
  /// table with the farthest next consuming stage until the resident
  /// set fits the budget (or nothing is left to evict — the active
  /// triple alone may exceed the budget, which the planner's
  /// working-set estimate already surfaced).
  void evict_over_budget(int current) {
    while (resident_bytes_ > opts_.spill_budget_bytes) {
      int victim = -1;
      int victim_use = -1;
      for (int j = 0; j <= current; ++j) {
        if (tables_[static_cast<std::size_t>(j)] == nullptr) continue;
        const int use = next_use(j, current);
        if (use > victim_use) {
          victim_use = use;
          victim = j;
        }
      }
      if (victim < 0) break;
      page_out(victim);
    }
  }

  void page_out(int node) {
    const auto idx = static_cast<std::size_t>(node);
    FASCIA_TRACE("dp.page_out", node);
    std::string path = spill_path(node);
    const std::size_t written = run::spill_table(
        path, *tables_[idx], frontiers_[idx], graph_.num_vertices());
    spilled_to_[idx] = std::move(path);
    spilled_entry_bytes_[idx] = tables_[idx]->entry_bytes();
    spilled_bytes_ += written;
    ++spill_events_;
    resident_bytes_ -= node_bytes_[idx];
    node_bytes_[idx] = 0;
    tables_[idx].reset();  // frontier stays — restores reuse it
    if (obs::enabled()) detail::record_spilled_bytes(written);
  }

  /// Threads the inner-parallel sweep will use (and therefore the
  /// first-touch zeroing partition that must match it).
  [[nodiscard]] int effective_inner_threads() const noexcept {
#ifdef _OPENMP
    return opts_.inner_threads > 0 ? opts_.inner_threads
                                   : omp_get_max_threads();
#else
    return 1;
#endif
  }

  /// Largest entry of a computed node's table (1 for a leaf).
  [[nodiscard]] double node_max(int node) const noexcept {
    return partition_.node(node).is_leaf()
               ? 1.0
               : node_max_[static_cast<std::size_t>(node)];
  }

  /// Calls body(std::type_identity<E>{}) with E the type `table` stores
  /// its contiguous rows in: std::int32_t for a 4-byte table, else
  /// double.  Layouts without contiguous rows always get double — they
  /// are read through get()/decode_row, which convert.
  template <class Body>
  static void with_entry_type(const Table& table, Body&& body) {
    if constexpr (Table::kContiguousRows) {
      if (table.entry_bytes() == 4) {
        body(std::type_identity<std::int32_t>{});
        return;
      }
    }
    body(std::type_identity<double>{});
  }

  /// Runs one stage into a fresh table.  Its width comes from the
  /// children's tracked maxima (stage_entry_bound): 4 bytes when the
  /// bound fits int32_t and `narrow_ok`, else 8.  With `totals_only`, a
  /// full-colorset join whose per-edge dots provably fit 64 bits builds
  /// no table and records its exact total instead.
  void compute_node(int index, const ColorArray& colors, bool parallel,
                    bool narrow_ok, bool totals_only) {
    const Subtemplate& node = partition_.node(index);
    const int h = node.size();
    const auto num_sets = num_rooted_colorsets(k_, h);
    const Subtemplate& active = partition_.node(node.active);
    const Subtemplate& passive = partition_.node(node.passive);
    const int a = active.size();
    const int p = passive.size();

    const bool triangle = node.is_triangle_join();
    DpStageStats stat;
    stat.node = index;
    stat.parent_size = h;
    stat.active_size = a;
    stat.kernel = triangle ? 'T'
                  : h == 2 ? 'P'
                  : a == 1 ? 'A'
                  : p == 1 ? 'S'
                           : 'G';
    stat.bound =
        triangle
            ? stage_entry_bound(h, a, p, max_degree_, node_max(node.active),
                                node_max(node.passive),
                                node_max(node.passive2))
            : stage_entry_bound(h, a, max_degree_, node_max(node.active),
                                node_max(node.passive));
    stat.entry_bytes = narrow_ok ? stage_entry_bytes(stat.bound) : 8;
    const ComplementSplit* full_join =
        node_complement_[static_cast<std::size_t>(index)];
    // A per-edge dot is one neighbor's share of an entry (the bound at
    // Δ = 1); the total route converts each to a 64-bit integer.
    const bool rowless =
        full_join != nullptr && totals_only &&
        stage_entry_bound(h, a, 1, node_max(node.active),
                          node_max(node.passive)) != kSaturatedBound;
    // First-touch: zero the table with the same thread partition the
    // parallel sweep below uses (count_table.hpp TableInit).
    const TableInit init{parallel ? effective_inner_threads() : 1,
                         stat.entry_bytes};
    std::unique_ptr<Table> table;
    if (!rowless) {
      table = std::make_unique<Table>(graph_.num_vertices(), num_sets, init);
    }
    const bool obs_on = obs::enabled();
    WallClock clock(opts_.collect_stats || obs_on);
    // Span detail carries what the fixed args cannot: the table layout
    // and the stage shape.  Built only when tracing is live.
    char span_detail[obs::TraceEvent::kDetailCapacity];
    span_detail[0] = '\0';
    if (obs_on) {
      std::snprintf(span_detail, sizeof(span_detail), "%s %s h=%d a=%d t=%d",
                    dp_kernel_name(stat.kernel), Table::kName, h, a,
                    parallel ? effective_inner_threads() : 1);
    }
    FASCIA_TRACE("dp.stage", index, static_cast<unsigned char>(stat.kernel),
                 span_detail);

    std::vector<VertexId>& frontier_out =
        frontiers_[static_cast<std::size_t>(index)];
    frontier_out.clear();

    if (triangle) {
      kernel_triangle(*table, index, node, colors, parallel, frontier_out,
                      stat);
    } else if (h == 2) {
      kernel_pair(*table, node, colors, parallel, frontier_out, stat);
    } else if (a == 1) {
      with_entry_type(*tables_[static_cast<std::size_t>(node.passive)],
                      [&]<class E>(std::type_identity<E>) {
                        kernel_single_active<E>(*table, index, node, colors,
                                                parallel, frontier_out,
                                                stat);
                      });
    } else if (p == 1) {
      with_entry_type(*tables_[static_cast<std::size_t>(node.active)],
                      [&]<class E>(std::type_identity<E>) {
                        kernel_single_passive<E>(*table, index, node, colors,
                                                 parallel, frontier_out,
                                                 stat);
                      });
    } else if (full_join != nullptr) {
      with_entry_type(*tables_[static_cast<std::size_t>(node.passive)],
                      [&]<class E>(std::type_identity<E>) {
                        kernel_full_join<E>(table.get(), index, node, colors,
                                            *full_join, parallel,
                                            frontier_out, stat);
                      });
    } else {
      with_entry_type(*tables_[static_cast<std::size_t>(node.passive)],
                      [&]<class E>(std::type_identity<E>) {
                        kernel_general<E>(*table, index, node, colors,
                                          parallel, frontier_out, stat);
                      });
    }
    node_max_[static_cast<std::size_t>(index)] = stat.max_entry;
    stat.exact = delta_restrict_ == nullptr && stat.max_entry <= 0x1p53;
    // The stage metric samples every live table's bytes at once:
    // MemTracker::current(), one O(1) atomic read.
    const std::size_t table_bytes = obs_on ? MemTracker::current() : 0;
    tables_[static_cast<std::size_t>(index)] = std::move(table);
    stat.survivors = static_cast<std::uint64_t>(frontier_out.size());
    if (obs_on) {
      detail::record_stage_metrics(stat.kernel, clock.elapsed_s(),
                                   stat.survivors, graph_.num_vertices(),
                                   table_bytes);
    }
    if (opts_.collect_stats) {
      stat.seconds = clock.elapsed_s();
      stats_.push_back(stat);
    }
  }

  // ---- shared kernel plumbing -------------------------------------------

  /// Minimal timer that only reads the clock when enabled (the stats
  /// path); avoids pulling util/timer.hpp into this header's hot path.
  class WallClock {
   public:
    explicit WallClock(bool enabled) {
      if (enabled) start_ = now();
    }
    [[nodiscard]] double elapsed_s() const { return now() - start_; }

   private:
    static double now() {
#ifdef _OPENMP
      return omp_get_wtime();
#else
      return static_cast<double>(std::chrono::duration_cast<
                                     std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now()
                                         .time_since_epoch())
                                     .count()) *
             1e-9;
#endif
    }
    double start_ = 0.0;
  };

  /// Per-thread scratch for one kernel pass.  Workspaces sit side by
  /// side in workspaces_, so each gets its own cache lines: otherwise
  /// one thread's per-vertex `macs` update shares a line with the next
  /// thread's vector headers, which its kernel reads on every vertex.
  struct alignas(64) Workspace {
    std::vector<double> row;   ///< count per parent colorset, for one v
    std::vector<double> psum;  ///< passive-row accumulator / color counts
    std::vector<double> gather;  ///< row materialized via get() (hash)
    /// Hoisted nonzero active-row colorset indices (general kernel).
    std::vector<ColorsetIndex> nz_active;
    // Triangle kernel: x's and y's rows as doubles, the globally
    // indexed sum of y's rows over the common neighbors of v and u,
    // and the marks of N(v) (one byte per vertex, zero between calls).
    std::vector<double> xrow;
    std::vector<double> yrow;
    std::vector<double> ysum;
    std::vector<std::uint8_t> mark;
    std::uint64_t macs = 0;  ///< multiply-accumulate tally
    double max_entry = 0.0;  ///< largest entry this thread committed
    detail::Uint128 total = 0;  ///< exact per-edge dot sum (rowless join)
  };

  /// Candidate set of one kernel pass: an explicit frontier, or all n
  /// vertices when null.
  struct FrontierView {
    const std::vector<VertexId>* list;
    VertexId n;
    [[nodiscard]] std::size_t size() const noexcept {
      return list != nullptr ? list->size() : static_cast<std::size_t>(n);
    }
    [[nodiscard]] VertexId operator[](std::size_t i) const noexcept {
      return list != nullptr ? (*list)[i] : static_cast<VertexId>(i);
    }
  };

  /// Software-prefetch distances for neighbor-row gathers.  The slot
  /// (per-vertex indirection cell) is hinted far ahead — it must be
  /// resident before the row hint can chase the pointer it holds — and
  /// the row data close ahead, matching the per-neighbor work of one
  /// row's multiply-accumulate.
  static constexpr std::size_t kPrefetchSlotAhead = 8;
  static constexpr std::size_t kPrefetchRowAhead = 2;

  /// Dynamic-scheduling grain derived from the candidate count: aim
  /// for ~8 chunks per thread so a small frontier is not serialized
  /// behind per-chunk scheduling overhead, capped at the legacy 64.
  [[nodiscard]] static int dynamic_chunk(std::size_t count,
                                         int threads) noexcept {
    const std::size_t per =
        count / (static_cast<std::size_t>(threads) * 8 + 1);
    return static_cast<int>(std::clamp<std::size_t>(per, 1, 64));
  }

  /// Runs `body(v, ws)` over the candidate set (optionally
  /// OpenMP-parallel); a body returning true means "committed a row",
  /// and those vertices are appended to the node's frontier in
  /// candidate order — ascending, since every candidate source (all
  /// vertices, label lists, child frontiers, dirty balls) is sorted.
  /// Commit-layer filtering keeps zero rows out of the tables, so a
  /// frontier vertex without a stored row is read as zeros downstream.
  /// Workspace buffers are sized once per thread.  Returns the sum of
  /// the threads' exact `total` tallies (kernel_full_join's total
  /// route; 0 for every other kernel).
  template <class Body>
  detail::Uint128 for_frontier(bool parallel, const FrontierView& front,
                               std::uint32_t row_width,
                               std::uint32_t psum_width,
                               std::size_t active_bound,
                               std::vector<VertexId>& frontier_out,
                               DpStageStats& stat, Body&& body) {
    const std::size_t count = front.size();
    stat.candidates = count;
    const auto prepare = [&](Workspace& ws) {
      ws.row.resize(row_width);
      ws.psum.resize(psum_width);
      if (active_bound > 0) ws.nz_active.reserve(active_bound);
      ws.macs = 0;
      ws.max_entry = 0.0;
    };
#ifdef _OPENMP
    if (parallel && count > 0) {
      const int threads = effective_inner_threads();
      const int chunk = dynamic_chunk(count, threads);
      // Workspaces persist across stage passes and iterations: the
      // row/psum/nz buffers keep their capacity, so the steady state
      // allocates nothing per stage.
      if (workspaces_.size() < static_cast<std::size_t>(threads)) {
        workspaces_.resize(static_cast<std::size_t>(threads));
      }
      // One survivor flag per candidate position, written by whichever
      // thread ran it; the ordered pass below compacts them into the
      // frontier with no merge lock and no sort.
      survivor_flags_.resize(count);
      std::uint8_t* keep = survivor_flags_.data();
      const bool guided = opts_.guided_schedule;
      std::uint64_t macs = 0;
      double max_entry = 0.0;
      // Reset outside the region: a thread that gets no candidates
      // still adds its workspace's total below.
      for (Workspace& ws : workspaces_) ws.total = 0;
#pragma omp parallel num_threads(threads) reduction(+ : macs) \
    reduction(max : max_entry)
      {
        Workspace& ws =
            workspaces_[static_cast<std::size_t>(omp_get_thread_num())];
        prepare(ws);
        if (guided) {
          // Back-to-front guided sweep (see DpEngineOptions
          // ::guided_schedule): cheap tail first in big chunks, hub
          // block last in small ones.
#pragma omp for schedule(guided, chunk)
          for (std::size_t i = 0; i < count; ++i) {
            const std::size_t pos = count - 1 - i;
            keep[pos] = body(front[pos], ws);
          }
        } else {
#pragma omp for schedule(dynamic, chunk)
          for (std::size_t i = 0; i < count; ++i) {
            keep[i] = body(front[i], ws);
          }
        }
        macs += ws.macs;
        max_entry = std::max(max_entry, ws.max_entry);
      }
      detail::Uint128 total = 0;
      for (const Workspace& ws : workspaces_) total += ws.total;
      stat.macs += macs;
      stat.max_entry = std::max(stat.max_entry, max_entry);
      for (std::size_t i = 0; i < count; ++i) {
        if (keep[i] != 0) frontier_out.push_back(front[i]);
      }
      return total;
    }
#endif
    if (workspaces_.empty()) workspaces_.resize(1);
    Workspace& ws = workspaces_.front();
    prepare(ws);
    ws.total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const VertexId v = front[i];
      if (body(v, ws)) frontier_out.push_back(v);
    }
    stat.macs += ws.macs;
    stat.max_entry = std::max(stat.max_entry, ws.max_entry);
    return ws.total;
  }

  /// Commits ws.row as v's row and folds its largest entry into the
  /// thread's running maximum, which for_frontier reduces into the
  /// stage's — the next stage's bound input.  Per thread: the commit
  /// path takes no lock and no atomic.
  static void commit(Table& out, VertexId v, Workspace& ws) {
    const double* r = ws.row.data();
    const std::size_t width = ws.row.size();
    double m = ws.max_entry;
#ifdef _OPENMP
#pragma omp simd reduction(max : m)
#endif
    for (std::size_t c = 0; c < width; ++c) m = r[c] > m ? r[c] : m;
    ws.max_entry = m;
    out.commit_row(v, ws.row);
  }

  /// Zeroes ps[0..width) — a globally indexed passive row — and adds
  /// into it the passive row of every neighbor in nbr[0..deg) that has
  /// one, in CSR order; returns how many did.  Each neighbor's row is
  /// rooted at its own color, so its slots scatter through that color's
  /// expansion (distinct targets: conflict-free under `omp simd`).
  /// Every entry sees the same additions in the same order as a
  /// one-row-at-a-time fold of full-width rows, minus the structural
  /// zeros, so sums stay bit-identical even past 2^53.  Sparse rows add
  /// only their stored nonzeros; hash rows are probed per slot.
  /// Borrowed rows are read in their stored type E (with_entry_type).
  template <class E>
  [[nodiscard]] std::size_t fold_neighbor_rows(
      const Table& tp, const RootedColorsets& sets, const ColorArray& colors,
      const VertexId* nbr, std::size_t deg, std::uint32_t width,
      double* ps) const noexcept {
    std::fill(ps, ps + width, 0.0);
    const std::uint32_t row_width = sets.width();
    std::size_t nu = 0;
    for (std::size_t j = 0; j < deg; ++j) {
      if constexpr (Table::kContiguousRows) {
        if (j + kPrefetchSlotAhead < deg) {
          tp.prefetch_slot(nbr[j + kPrefetchSlotAhead]);
        }
        if (j + kPrefetchRowAhead < deg) {
          tp.prefetch_row(nbr[j + kPrefetchRowAhead]);
        }
      }
      const VertexId u = nbr[j];
      const ColorsetIndex* to =
          sets.globals(colors[static_cast<std::size_t>(u)]).data();
      if constexpr (Table::kContiguousRows) {
        const E* prow = tp.template row_ptr<E>(u);
        if (prow == nullptr) continue;
        ++nu;
#ifdef _OPENMP
#pragma omp simd
#endif
        for (std::uint32_t c = 0; c < row_width; ++c) {
          ps[to[c]] += prow[c];
        }
      } else {
        if (!tp.has_vertex(u)) continue;
        ++nu;
        if constexpr (SparseRowTable<Table>) {
          tp.for_each_nonzero(u, [&](ColorsetIndex slot, double value) {
            ps[to[slot]] += value;
          });
        } else {
          for (std::uint32_t c = 0; c < row_width; ++c) {
            ps[to[c]] += tp.get(u, c);
          }
        }
      }
    }
    return nu;
  }

  // ---- kernels -----------------------------------------------------------
  // Each iterates the stage's frontier, fills a thread-private rooted
  // row of C(k-1, h-1) counts for vertex v over borrowed contiguous
  // child rows, and commits it when nonzero.  All accumulations
  // reassociate sums of exact integer counts, so results match the
  // oracle bit for bit (header comment).  MAC tallies keep
  // their global-colorset definitions (C(k-1, h-1) per single-vertex
  // split, full-width passive rows and split tables in the general
  // fold), so they compare across layouts and releases; the
  // full-colorset join counts the products it takes.

  void kernel_pair(Table& out, const Subtemplate& node,
                   const ColorArray& colors, bool parallel,
                   std::vector<VertexId>& frontier_out, DpStageStats& stat) {
    const Subtemplate& active = partition_.node(node.active);
    const Subtemplate& passive = partition_.node(node.passive);
    const std::vector<VertexId>* candidates =
        delta_restrict_ != nullptr ? delta_restrict_ : leaf_frontier(active);
    const bool check_active =
        delta_restrict_ != nullptr || candidates == nullptr;
    for_frontier(
        parallel, {candidates, graph_.num_vertices()}, out.num_colorsets(),
        static_cast<std::uint32_t>(k_), 0, frontier_out, stat,
        [&](VertexId v, Workspace& ws) {
          if (check_active && !leaf_matches(active, v)) return false;
          const int cv = colors[static_cast<std::size_t>(v)];
          // Fold the neighbor walk into per-color counts first: the
          // row then costs k writes instead of deg(v) adds.
          auto& cnt = ws.psum;
          std::fill(cnt.begin(), cnt.end(), 0.0);
          for (VertexId u : graph_.neighbors(v)) {
            if (!leaf_matches(passive, u)) continue;
            cnt[colors[static_cast<std::size_t>(u)]] += 1.0;
          }
          // The row rooted at cv: {cv, c} sits in slot c - [c > cv].
          double* r = ws.row.data();
          bool any = false;
          for (int c = 0; c < k_; ++c) {
            if (c == cv) continue;
            const double count = cnt[static_cast<std::size_t>(c)];
            r[c - (c > cv ? 1 : 0)] = count;
            any = any || count != 0.0;
          }
          if (!any) return false;
          commit(out, v, ws);
          ws.macs += graph_.neighbors(v).size() + static_cast<std::size_t>(k_);
          return true;
        });
  }

  /// E: the passive child's stored entry type (with_entry_type).
  template <class E>
  void kernel_single_active(Table& out, int index, const Subtemplate& node,
                            const ColorArray& colors, bool parallel,
                            std::vector<VertexId>& frontier_out,
                            DpStageStats& stat) {
    const Subtemplate& active = partition_.node(node.active);
    const Table& tp = *tables_[static_cast<std::size_t>(node.passive)];
    const SingleActiveSplit& split =
        *node_single_[static_cast<std::size_t>(index)];
    const std::vector<VertexId>* candidates =
        delta_restrict_ != nullptr ? delta_restrict_ : leaf_frontier(active);
    const bool check_active =
        delta_restrict_ != nullptr || candidates == nullptr;
    const std::size_t m = split.per_pair();
    const auto macs_per_row =
        static_cast<std::size_t>(choose(k_ - 1, node.size() - 1));
    // The color-keyed direct walk (DESIGN.md §8): each neighbor u adds
    // its passive row through the (c(v), c(u)) list, so every output
    // entry adds its neighbors' contributions in CSR order.
    for_frontier(
        parallel, {candidates, graph_.num_vertices()}, out.num_colorsets(),
        DecodableRowTable<Table> ? tp.num_colorsets() : 0, 0, frontier_out,
        stat, [&](VertexId v, Workspace& ws) {
          if (check_active && !leaf_matches(active, v)) return false;
          const int cv = colors[static_cast<std::size_t>(v)];
          auto& row = ws.row;
          std::fill(row.begin(), row.end(), 0.0);
          double* r = row.data();
          const auto neighbors = graph_.neighbors(v);
          const VertexId* nbr = neighbors.data();
          const std::size_t deg = neighbors.size();
          std::size_t nu = 0;
          for (std::size_t j = 0; j < deg; ++j) {
            if constexpr (Table::kContiguousRows) {
              if (j + kPrefetchSlotAhead < deg) {
                tp.prefetch_slot(nbr[j + kPrefetchSlotAhead]);
              }
              if (j + kPrefetchRowAhead < deg) {
                tp.prefetch_row(nbr[j + kPrefetchRowAhead]);
              }
            }
            const VertexId u = nbr[j];
            const E* prow = nullptr;
            if constexpr (Table::kContiguousRows) {
              prow = tp.template row_ptr<E>(u);
              if (prow == nullptr) continue;
            } else {
              if (!tp.has_vertex(u)) continue;
            }
            ++nu;
            // A neighbor sharing v's color extends no colorful
            // embedding: its list is empty.
            const int cu = colors[static_cast<std::size_t>(u)];
            if (cu == cv) continue;
            const ColorsetIndex* par = split.parents(cv, cu).data();
            const ColorsetIndex* pas = split.passives(cv, cu).data();
            if constexpr (DecodableRowTable<Table>) {
              // One O(nnz) reconstruction into the psum scratch buys
              // the contiguous gather below.
              tp.decode_row(u, ws.psum.data());
              prow = ws.psum.data();
            }
            if constexpr (Table::kContiguousRows ||
                          DecodableRowTable<Table>) {
              // Parents are distinct, so the scatter has no intra-loop
              // conflicts; the passive reads are a monotone gather over
              // one contiguous row.
#ifdef _OPENMP
#pragma omp simd
#endif
              for (std::size_t s = 0; s < m; ++s) {
                r[par[s]] += prow[pas[s]];
              }
            } else {
              for (std::size_t s = 0; s < m; ++s) {
                r[par[s]] += tp.get(u, pas[s]);
              }
            }
          }
          if (nu == 0) return false;
          commit(out, v, ws);
          ws.macs += nu * macs_per_row;
          return true;
        });
  }

  /// E: the active child's stored entry type (with_entry_type).
  template <class E>
  void kernel_single_passive(Table& out, int index, const Subtemplate& node,
                             const ColorArray& colors, bool parallel,
                             std::vector<VertexId>& frontier_out,
                             DpStageStats& stat) {
    const Subtemplate& passive = partition_.node(node.passive);
    const Table& ta = *tables_[static_cast<std::size_t>(node.active)];
    const SingleActiveSplit& split =
        *node_single_[static_cast<std::size_t>(index)];
    const std::vector<VertexId>& active_frontier =
        delta_restrict_ != nullptr
            ? *delta_restrict_
            : frontiers_[static_cast<std::size_t>(node.active)];
    const std::size_t m = split.per_pair();
    const auto macs_per_color =
        static_cast<std::size_t>(choose(k_ - 1, node.size() - 1));
    for_frontier(
        parallel, {&active_frontier, graph_.num_vertices()},
        out.num_colorsets(), static_cast<std::uint32_t>(k_), 0, frontier_out,
        stat, [&](VertexId v, Workspace& ws) {
          if constexpr (!Table::kContiguousRows) {
            // The frontier can carry vertices whose committed row was
            // all zero (commit-layer filtering stores nothing): drop
            // them here, mirroring the contiguous path's null
            // row_ptr check below — otherwise they do a full split
            // pass over zeros and survive every later stage.
            if (!ta.has_vertex(v)) return false;
          }
          // Matching neighbors only contribute through their color, so
          // count them per color and apply each color's list once,
          // scaled — deg(v)·C(k-2,h-2) adds become deg(v) + k·C(k-2,h-2).
          auto& cnt = ws.psum;
          std::fill(cnt.begin(), cnt.end(), 0.0);
          std::size_t nu = 0;
          for (VertexId u : graph_.neighbors(v)) {
            if (!leaf_matches(passive, u)) continue;
            cnt[colors[static_cast<std::size_t>(u)]] += 1.0;
            ++nu;
          }
          if (nu == 0) return false;
          auto& row = ws.row;
          std::fill(row.begin(), row.end(), 0.0);
          double* r = row.data();
          const E* arow = nullptr;
          if constexpr (Table::kContiguousRows) {
            arow = ta.template row_ptr<E>(v);
            if (arow == nullptr) return false;  // frontier guarantees rows
          } else if constexpr (DecodableRowTable<Table>) {
            // v's row feeds every color's list: reconstruct it once,
            // then run the contiguous gather below.
            ws.gather.resize(ta.num_colorsets());
            ta.decode_row(v, ws.gather.data());
            arow = ws.gather.data();
          }
          const int cv = colors[static_cast<std::size_t>(v)];
          for (int c = 0; c < k_; ++c) {
            const double scale = cnt[static_cast<std::size_t>(c)];
            if (scale == 0.0) continue;
            ws.macs += macs_per_color;
            if (c == cv) continue;  // no colorful extension
            const ColorsetIndex* act = split.actives(cv, c).data();
            const ColorsetIndex* par = split.parents(cv, c).data();
            if constexpr (Table::kContiguousRows ||
                          DecodableRowTable<Table>) {
#ifdef _OPENMP
#pragma omp simd
#endif
              for (std::size_t s = 0; s < m; ++s) {
                r[par[s]] += scale * arow[act[s]];
              }
            } else {
              for (std::size_t s = 0; s < m; ++s) {
                r[par[s]] += scale * ta.get(v, act[s]);
              }
            }
          }
          commit(out, v, ws);
          ws.macs += graph_.neighbors(v).size();
          return true;
        });
  }

  /// E: the passive child's stored entry type (with_entry_type).  The
  /// active row is read once per vertex, so a 4-byte one is decoded.
  template <class E>
  void kernel_general(Table& out, int index, const Subtemplate& node,
                      const ColorArray& colors, bool parallel,
                      std::vector<VertexId>& frontier_out,
                      DpStageStats& stat) {
    const Table& tp = *tables_[static_cast<std::size_t>(node.passive)];
    const RootedSplit& split =
        *node_general_[static_cast<std::size_t>(index)];
    const std::vector<VertexId>& active_frontier =
        delta_restrict_ != nullptr
            ? *delta_restrict_
            : frontiers_[static_cast<std::size_t>(node.active)];
    const int h = node.size();
    const int a = split.active_size();
    const RootedColorsets& passive_sets =
        *rooted_[static_cast<std::size_t>(h - a)];
    const std::uint32_t num_actives = split.num_actives();
    const std::uint32_t num_parents = out.num_colorsets();
    const std::uint32_t per_parent = split.splits_per_parent();
    // Global-colorset shape: the folded passive row is globally
    // indexed, and the fold crossover and MAC tallies keep their
    // full-width definitions.
    const auto passive_width =
        static_cast<std::uint32_t>(choose(k_, h - a));
    const auto per_active = static_cast<std::size_t>(choose(k_ - a, h - a));
    const auto flat_size =
        static_cast<std::size_t>(choose(k_, h) * choose(h, a));
    const std::size_t active_bound =
        node_active_bound_[static_cast<std::size_t>(index)];
    for_frontier(
        parallel, {&active_frontier, graph_.num_vertices()},
        num_parents, passive_width, active_bound, frontier_out, stat,
        [&](VertexId v, Workspace& ws) {
          // The active side depends only on v: hoist the nonzero
          // slots of v's borrowed active row by scanning its
          // C(k-1,a-1) rooted slots.  Each survivor A owns one group
          // per neighbor color in the rooted split lists: passives
          // ascend (monotone gather) and parents are distinct
          // (conflict-free scatter).
          // Zero-row frontier carry-overs (see kernel_single_passive)
          // have no row: drop them before paying the gather.
          const double* arow = child_row(node.active, v, ws.gather);
          if (arow == nullptr) return false;
          auto& nz = ws.nz_active;
          nz.clear();
          for (std::uint32_t idx = 0; idx < num_actives; ++idx) {
            if (arow[idx] != 0.0) nz.push_back(idx);
          }
          if (nz.empty()) return false;
          const std::size_t num_entries = nz.size() * per_active;
          const int cv = colors[static_cast<std::size_t>(v)];

          auto& row = ws.row;
          std::fill(row.begin(), row.end(), 0.0);
          double* r = row.data();
          const auto neighbors = graph_.neighbors(v);
          std::size_t nu = 0;
          // The hoisted active values are neighbor-independent, so
          // when the per-neighbor entry work outweighs one passive
          // row, fold the neighbor rows into one globally indexed
          // partial-sum row first, then apply the split once per
          // vertex as a parent-major dot-product sweep over v's rooted
          // parents: sequential index reads, no scatter, no branches.
          // Zero active values contribute exact zero terms (the DP
          // values are integers in doubles), so the sweep needs no
          // filtering and the committed sums are unchanged.  For
          // borrowed rows the crossover weighs the direct path's
          // scattered multiply-accumulates (~3x a contiguous add)
          // against the fold adds plus the full sweep; hash rows pay a
          // hashed probe per folded slot, so they fold only when that
          // is strictly fewer probes than the direct path issues.
          const std::size_t deg = neighbors.size();
          bool fold_neighbors;
          if constexpr (Table::kContiguousRows || DecodableRowTable<Table>) {
            fold_neighbors = deg >= 2 && 3 * deg * num_entries >=
                                             deg * passive_width +
                                                 2 * flat_size;
          } else {
            fold_neighbors = deg >= 2 && num_entries >= passive_width;
          }
          const VertexId* nbr = neighbors.data();
          if (fold_neighbors) {
            double* ps = ws.psum.data();
            nu = fold_neighbor_rows<E>(tp, passive_sets, colors, nbr, deg,
                                       passive_width, ps);
            if (nu == 0) return false;
            const ColorsetIndex* act = split.fold_actives(cv).data();
            const ColorsetIndex* pas = split.fold_passives(cv).data();
            for (std::uint32_t parent = 0; parent < num_parents;
                 ++parent, act += per_parent, pas += per_parent) {
              double acc = 0.0;
#ifdef _OPENMP
#pragma omp simd reduction(+ : acc)
#endif
              for (std::uint32_t s = 0; s < per_parent; ++s) {
                acc += arow[act[s]] * ps[pas[s]];
              }
              r[parent] = acc;
            }
            ws.macs += nu * passive_width + flat_size;
          } else {
            for (std::size_t j = 0; j < deg; ++j) {
              if constexpr (Table::kContiguousRows) {
                if (j + kPrefetchSlotAhead < deg) {
                  tp.prefetch_slot(nbr[j + kPrefetchSlotAhead]);
                }
                if (j + kPrefetchRowAhead < deg) {
                  tp.prefetch_row(nbr[j + kPrefetchRowAhead]);
                }
              }
              const VertexId u = nbr[j];
              const E* prow = nullptr;
              if constexpr (Table::kContiguousRows) {
                prow = tp.template row_ptr<E>(u);
                if (prow == nullptr) continue;
              } else {
                if (!tp.has_vertex(u)) continue;
              }
              ++nu;
              const int cu = colors[static_cast<std::size_t>(u)];
              if (cu == cv) continue;  // every group is empty
              if constexpr (DecodableRowTable<Table>) {
                // One O(nnz) reconstruction into the (otherwise idle)
                // psum scratch buys the contiguous gather below —
                // cheaper than a packed probe per split entry.
                tp.decode_row(u, ws.psum.data());
                prow = ws.psum.data();
              }
              for (const ColorsetIndex a_idx : nz) {
                const double ca = arow[a_idx];
                const auto gp = split.group_parents(cv, cu, a_idx);
                const ColorsetIndex* gpar = gp.data();
                const ColorsetIndex* gpas =
                    split.group_passives(cv, cu, a_idx).data();
                const std::size_t width = gp.size();
                if constexpr (Table::kContiguousRows ||
                              DecodableRowTable<Table>) {
#ifdef _OPENMP
#pragma omp simd
#endif
                  for (std::size_t s = 0; s < width; ++s) {
                    r[gpar[s]] += ca * prow[gpas[s]];
                  }
                } else {
                  for (std::size_t s = 0; s < width; ++s) {
                    r[gpar[s]] += ca * tp.get(u, gpas[s]);
                  }
                }
              }
            }
            ws.macs += nu * num_entries;
          }
          if (nu == 0) return false;
          commit(out, v, ws);
          return true;
        });
  }

  /// The general join of size k (DESIGN.md §8, "Full-colorset root
  /// joins").  v's one entry sums, over each neighbor u with a passive
  /// row and c(u) != c(v), the dot product of v's active row and u's
  /// passive row through the (c(v), c(u)) complement list.  With `out`
  /// the entry is committed as a 1-wide row (the rows route); without,
  /// nothing is committed and every dot is added to the node's exact
  /// total (the total route), each undirected edge once when both
  /// halves are one table: a colorful embedding split at that edge is
  /// then counted once from each endpoint with the same dot, so the
  /// sum over u > v is doubled.  The caller proved every dot below
  /// 2^64.  MACs count the products taken.
  /// E: the passive child's stored entry type (with_entry_type).
  template <class E>
  void kernel_full_join(Table* out, int index, const Subtemplate& node,
                        const ColorArray& colors,
                        const ComplementSplit& split, bool parallel,
                        std::vector<VertexId>& frontier_out,
                        DpStageStats& stat) {
    const Table& tp = *tables_[static_cast<std::size_t>(node.passive)];
    const std::vector<VertexId>& active_frontier =
        delta_restrict_ != nullptr
            ? *delta_restrict_
            : frontiers_[static_cast<std::size_t>(node.active)];
    const std::size_t m = split.per_pair();
    const bool each_edge_once = out == nullptr && node.active == node.passive;
    const detail::Uint128 total = for_frontier(
        parallel, {&active_frontier, graph_.num_vertices()},
        out != nullptr ? 1 : 0,
        DecodableRowTable<Table> ? tp.num_colorsets() : 0, 0, frontier_out,
        stat, [&](VertexId v, Workspace& ws) {
          const double* arow = child_row(node.active, v, ws.gather);
          if (arow == nullptr) return false;
          const int cv = colors[static_cast<std::size_t>(v)];
          const auto neighbors = graph_.neighbors(v);
          const VertexId* nbr = neighbors.data();
          std::size_t deg = neighbors.size();
          if (each_edge_once) {
            // Adjacency is sorted: the neighbors above v are a suffix.
            const VertexId* above = std::upper_bound(nbr, nbr + deg, v);
            deg -= static_cast<std::size_t>(above - nbr);
            nbr = above;
          }
          double entry = 0.0;
          std::size_t nu = 0;
          for (std::size_t j = 0; j < deg; ++j) {
            if constexpr (Table::kContiguousRows) {
              if (j + kPrefetchSlotAhead < deg) {
                tp.prefetch_slot(nbr[j + kPrefetchSlotAhead]);
              }
              if (j + kPrefetchRowAhead < deg) {
                tp.prefetch_row(nbr[j + kPrefetchRowAhead]);
              }
            }
            const VertexId u = nbr[j];
            const E* prow = nullptr;
            if constexpr (Table::kContiguousRows) {
              prow = tp.template row_ptr<E>(u);
              if (prow == nullptr) continue;
            } else {
              if (!tp.has_vertex(u)) continue;
            }
            ++nu;
            const int cu = colors[static_cast<std::size_t>(u)];
            if (cu == cv) continue;  // the list is empty
            const ColorsetIndex* act = split.actives(cv, cu).data();
            const ColorsetIndex* pas = split.passives(cv, cu).data();
            if constexpr (DecodableRowTable<Table>) {
              tp.decode_row(u, ws.psum.data());
              prow = ws.psum.data();
            }
            double dot = 0.0;
            if constexpr (Table::kContiguousRows ||
                          DecodableRowTable<Table>) {
#ifdef _OPENMP
#pragma omp simd reduction(+ : dot)
#endif
              for (std::size_t s = 0; s < m; ++s) {
                dot += arow[act[s]] * prow[pas[s]];
              }
            } else {
              for (std::size_t s = 0; s < m; ++s) {
                dot += arow[act[s]] * tp.get(u, pas[s]);
              }
            }
            ws.macs += m;
            if (out != nullptr) {
              entry += dot;
            } else {
              ws.total += static_cast<std::uint64_t>(dot);
              ws.max_entry = std::max(ws.max_entry, dot);
            }
          }
          if (out == nullptr || nu == 0) return false;
          ws.row[0] = entry;
          commit(*out, v, ws);
          return true;
        });
    if (out == nullptr) {
      join_totals_[static_cast<std::size_t>(index)] =
          static_cast<double>(each_edge_once ? 2 * total : total);
    }
  }

  /// v's row of child `node` as doubles, for the kernels that read a
  /// row once per vertex (general, full-join, triangle): a
  /// leaf child is a 1-wide rooted row ({1} when v matches its label);
  /// a table row is borrowed when it stores contiguous doubles, else
  /// widened or decoded into `scratch`.  nullptr when v has no row.
  [[nodiscard]] const double* child_row(int node, VertexId v,
                                        std::vector<double>& scratch) const {
    static constexpr double kLeafRow[1] = {1.0};
    const Subtemplate& child = partition_.node(node);
    if (child.is_leaf()) return leaf_matches(child, v) ? kLeafRow : nullptr;
    const Table& table = *tables_[static_cast<std::size_t>(node)];
    if constexpr (Table::kContiguousRows) {
      if (table.entry_bytes() == 8) return table.row_ptr(v);
      const std::int32_t* narrow = table.template row_ptr<std::int32_t>(v);
      if (narrow == nullptr) return nullptr;
      scratch.assign(narrow, narrow + table.num_colorsets());
    } else {
      if (!table.has_vertex(v)) return nullptr;
      scratch.resize(table.num_colorsets());
      if constexpr (DecodableRowTable<Table>) {
        table.decode_row(v, scratch.data());
      } else {
        for (std::uint32_t c = 0; c < table.num_colorsets(); ++c) {
          scratch[c] = table.get(v, c);
        }
      }
    }
    return scratch.data();
  }

  /// The triangle join (treelet/mixed_partition.hpp): count[v][S] sums,
  /// over ordered pairs (u, w) of adjacent neighbors of v, the products
  /// T_a[v][A] · T_x[u][X] · T_y[w][Y] over S = A ⊎ X ⊎ Y with c(v) ∈ A,
  /// c(u) ∈ X, c(w) ∈ Y.  Per vertex: mark N(v); for each u with an x
  /// row, scan N(u) for marked w (the per-edge marking of Galois's
  /// motif_adhoc) and sum their y rows into one globally indexed row,
  /// then fold it with u's x row into rest[R], R = X ⊎ Y; finally fold
  /// rest with v's active row.  Colorfulness keeps the three images
  /// distinct.  Every sum adds exact integer counts, so any order gives
  /// the same doubles while entries stay at most 2^53.
  void kernel_triangle(Table& out, int index, const Subtemplate& node,
                       const ColorArray& colors, bool parallel,
                       std::vector<VertexId>& frontier_out,
                       DpStageStats& stat) {
    const Subtemplate& active = partition_.node(node.active);
    const RootedSplit& top = *node_general_[static_cast<std::size_t>(index)];
    const RootedSplit& rest_split =
        *node_rest_[static_cast<std::size_t>(index)];
    const int r = node.size() - active.size();
    const RootedColorsets& rest_sets = *rooted_[static_cast<std::size_t>(r)];
    const RootedColorsets& y_sets = *rooted_[static_cast<std::size_t>(
        partition_.node(node.passive2).size())];
    const std::uint32_t rest_width = num_colorsets(k_, r);
    const std::uint32_t y_width = num_colorsets(k_, y_sets.set_size());
    const std::uint32_t num_parents = out.num_colorsets();
    const std::uint32_t rest_parents = rest_split.num_parents();
    const std::uint32_t rest_per_parent = rest_split.splits_per_parent();
    const std::uint32_t top_per_parent = top.splits_per_parent();
    // Candidates: a leaf root's label list, else the active child's
    // frontier.
    const std::vector<VertexId>* candidates =
        delta_restrict_ != nullptr ? delta_restrict_
        : active.is_leaf()
            ? leaf_frontier(active)
            : &frontiers_[static_cast<std::size_t>(node.active)];
    const VertexId n = graph_.num_vertices();
    for_frontier(
        parallel, {candidates, n}, num_parents, rest_width, 0, frontier_out,
        stat, [&](VertexId v, Workspace& ws) {
          const double* arow = child_row(node.active, v, ws.gather);
          if (arow == nullptr) return false;
          if (ws.mark.size() < static_cast<std::size_t>(n)) {
            ws.mark.assign(static_cast<std::size_t>(n), 0);
          }
          ws.ysum.resize(y_width);
          double* rest = ws.psum.data();
          std::fill(rest, rest + rest_width, 0.0);
          const auto neighbors = graph_.neighbors(v);
          for (const VertexId u : neighbors) {
            ws.mark[static_cast<std::size_t>(u)] = 1;
          }
          bool any = false;
          for (const VertexId u : neighbors) {
            const double* xrow = child_row(node.passive, u, ws.xrow);
            if (xrow == nullptr) continue;
            double* ys = ws.ysum.data();
            std::fill(ys, ys + y_width, 0.0);
            std::size_t nw = 0;
            for (const VertexId w : graph_.neighbors(u)) {
              if (ws.mark[static_cast<std::size_t>(w)] == 0) continue;
              const double* yrow = child_row(node.passive2, w, ws.yrow);
              if (yrow == nullptr) continue;
              ++nw;
              const ColorsetIndex* to =
                  y_sets.globals(colors[static_cast<std::size_t>(w)]).data();
              for (std::uint32_t c = 0; c < y_sets.width(); ++c) {
                ys[to[c]] += yrow[c];
              }
            }
            if (nw == 0) continue;
            any = true;
            // R ∋ c(u) as X ⊎ Y with c(u) ∈ X: the fold view at c(u).
            const int cu = colors[static_cast<std::size_t>(u)];
            const ColorsetIndex* act = rest_split.fold_actives(cu).data();
            const ColorsetIndex* pas = rest_split.fold_passives(cu).data();
            const ColorsetIndex* global = rest_sets.globals(cu).data();
            for (std::uint32_t parent = 0; parent < rest_parents;
                 ++parent, act += rest_per_parent, pas += rest_per_parent) {
              double acc = 0.0;
              for (std::uint32_t s = 0; s < rest_per_parent; ++s) {
                acc += xrow[act[s]] * ys[pas[s]];
              }
              rest[global[parent]] += acc;
            }
            ws.macs += nw * y_sets.width() +
                       static_cast<std::size_t>(rest_parents) * rest_per_parent;
          }
          for (const VertexId u : neighbors) {
            ws.mark[static_cast<std::size_t>(u)] = 0;
          }
          if (!any) return false;
          // S ∋ c(v) as A ⊎ R with c(v) ∈ A: the fold view at c(v).
          const int cv = colors[static_cast<std::size_t>(v)];
          const ColorsetIndex* act = top.fold_actives(cv).data();
          const ColorsetIndex* pas = top.fold_passives(cv).data();
          double* row = ws.row.data();
          for (std::uint32_t parent = 0; parent < num_parents;
               ++parent, act += top_per_parent, pas += top_per_parent) {
            double acc = 0.0;
            for (std::uint32_t s = 0; s < top_per_parent; ++s) {
              acc += arow[act[s]] * rest[pas[s]];
            }
            row[parent] = acc;
          }
          ws.macs += static_cast<std::size_t>(num_parents) * top_per_parent;
          commit(out, v, ws);
          return true;
        });
  }

  const Graph& graph_;
  const PartitionTree& partition_;
  int k_;
  DpEngineOptions opts_;
  const RunGuard* guard_ = nullptr;
  /// Candidate override for run_delta(): when set, every kernel sweeps
  /// this sorted list instead of its usual candidate source (with the
  /// leaf label filter re-applied per vertex where one exists).  Null
  /// outside delta passes.
  const std::vector<VertexId>* delta_restrict_ = nullptr;
  std::vector<std::unique_ptr<Table>> tables_;
  std::vector<std::vector<VertexId>> frontiers_;
  /// Largest entry per computed node, reduced from the per-thread
  /// maxima after its stage (kUnknownMax when not tracked: delta
  /// passes).  Survives paging; leaves read as 1 (node_max).
  static constexpr double kUnknownMax =
      std::numeric_limits<double>::infinity();
  std::vector<double> node_max_;
  /// Δ, the stage bounds' degree factor (the graph is fixed for the
  /// engine's lifetime).
  std::uint64_t max_degree_ = 0;
  /// Global <-> rooted translation per table size (index = size).
  std::vector<std::optional<RootedColorsets>> rooted_;
  std::vector<std::optional<SingleActiveSplit>> single_splits_;
  std::map<std::pair<int, int>, RootedSplit> general_splits_;
  /// Per-node split pointers resolved at construction — the kernels
  /// never hit the optional/map lookups on the hot path.
  std::vector<const SingleActiveSplit*> node_single_;
  std::vector<const RootedSplit*> node_general_;
  /// Triangle joins: node_general_ splits S = A ⊎ R, this R = X ⊎ Y.
  std::vector<const RootedSplit*> node_rest_;
  std::vector<std::size_t> node_active_bound_;
  /// Full-colorset general joins (h == k): their complement lists,
  /// shared per active size; null for every other node.
  std::map<int, ComplementSplit> complement_splits_;
  std::vector<const ComplementSplit*> node_complement_;
  /// Exact totals of the full-colorset joins a pass computed without
  /// rows, until the node is freed.
  std::vector<std::optional<double>> join_totals_;
  std::vector<DpStageStats> stats_;
  /// Per-thread scratch, persistent across stages and iterations.
  std::vector<Workspace> workspaces_;
  /// for_frontier's per-candidate survivor flags (capacity persists).
  std::vector<std::uint8_t> survivor_flags_;
  /// Out-of-core paging state (sized only when the spill knobs are
  /// set): page path per spilled node (empty = resident), resident
  /// bytes per node, consuming stages per node (ascending).
  std::vector<std::string> spilled_to_;
  std::vector<int> spilled_entry_bytes_;  ///< width a page restores at
  std::vector<std::size_t> node_bytes_;
  std::vector<std::vector<int>> consumers_;
  std::size_t resident_bytes_ = 0;
  std::size_t spilled_bytes_ = 0;
  int spill_events_ = 0;
  int spill_tag_ = 0;
};

}  // namespace fascia
