#include "run/memory.hpp"

#include <algorithm>
#include <cstdio>

#include "comb/colorset.hpp"

namespace fascia::run {

namespace {

// Occupancy models (fraction of the n x C(k-1,h-1) rooted cells ever
// nonzero — rows store only the colorsets holding the vertex's color).
// Unlabeled templates touch most vertices (paper: compact saves ~20 %);
// labeled ones are highly selective (>90 % saving, §V-A / Fig. 6).
constexpr double kCompactOccupancyUnlabeled = 0.80;
constexpr double kCompactOccupancyLabeled = 0.10;
constexpr double kHashOccupancyUnlabeled = 0.45;
constexpr double kHashOccupancyLabeled = 0.04;
// Succinct rows exist for the same vertices compact rows do, but store
// only their nonzero slots; the slot density within an active row is
// what the packed-value + index overhead scales with.  Rooted rows
// hold no structural zeros, so most of their slots are filled: 0.80–0.97
// measured on Erdős–Rényi, Enron and Portland stand-ins (k = 7, 10).
// The labeled figure scales the earlier full-width model by the same
// factor.
constexpr double kSuccinctSlotDensityUnlabeled = 0.80;
constexpr double kSuccinctSlotDensityLabeled = 0.11;

std::string human_bytes(std::size_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f %s", value, units[unit]);
  return buffer;
}

}  // namespace

std::size_t estimate_table_bytes(TableKind kind, VertexId n,
                                 std::uint64_t colorsets, bool labeled) {
  const double cells =
      static_cast<double>(n) * static_cast<double>(colorsets);
  switch (kind) {
    case TableKind::kNaive:
      // Dense n x C(k-1,h-1) doubles, all materialized.
      return static_cast<std::size_t>(cells * sizeof(double));
    case TableKind::kCompact: {
      // Row-pointer array plus rows for occupied vertices only.
      const double occupancy =
          labeled ? kCompactOccupancyLabeled : kCompactOccupancyUnlabeled;
      return static_cast<std::size_t>(
          static_cast<double>(n) * sizeof(void*) +
          occupancy * cells * sizeof(double));
    }
    case TableKind::kHash: {
      // Open addressing: 16 B per slot (key + value), ~2x slack after
      // power-of-two growth, plus the per-vertex occupied byte.
      const double occupancy =
          labeled ? kHashOccupancyLabeled : kHashOccupancyUnlabeled;
      return static_cast<std::size_t>(
          static_cast<double>(n) +
          occupancy * cells * 2.0 *
              (sizeof(std::uint64_t) + sizeof(double)));
    }
    case TableKind::kSuccinct: {
      // Row-pointer array, plus per active row: an 8 B header, the
      // packed nonzero doubles, and the cheaper of the two per-row
      // addressings — sorted u32 slots (4 B per nonzero) or the
      // rank-indexed bitmap (1 bit per colorset slot + a u32 rank per
      // 64-bit word ≈ 0.1875 B per slot).
      const double rows_occ =
          labeled ? kCompactOccupancyLabeled : kCompactOccupancyUnlabeled;
      const double density = labeled ? kSuccinctSlotDensityLabeled
                                     : kSuccinctSlotDensityUnlabeled;
      const double nnz_per_row = density * static_cast<double>(colorsets);
      const double index_per_row =
          std::min(nnz_per_row * sizeof(std::uint32_t),
                   static_cast<double>(colorsets) * (0.125 + 0.0625));
      return static_cast<std::size_t>(
          static_cast<double>(n) * sizeof(void*) +
          rows_occ * static_cast<double>(n) *
              (sizeof(std::uint64_t) + nnz_per_row * sizeof(double) +
               index_per_row));
    }
  }
  return 0;
}

std::size_t estimate_peak_bytes(const PartitionTree& partition,
                                int num_colors, VertexId n, TableKind kind,
                                bool labeled) {
  const int num_nodes = partition.num_nodes();
  std::vector<std::size_t> live(static_cast<std::size_t>(num_nodes), 0);
  std::size_t current = 0;
  std::size_t peak = 0;
  for (int i = 0; i < num_nodes; ++i) {
    const Subtemplate& node = partition.node(i);
    if (!node.is_leaf()) {
      const auto sets = static_cast<std::uint64_t>(
          num_rooted_colorsets(num_colors, node.size()));
      live[static_cast<std::size_t>(i)] =
          estimate_table_bytes(kind, n, sets, labeled);
      current += live[static_cast<std::size_t>(i)];
      peak = std::max(peak, current);
    }
    for (int j = 0; j < i; ++j) {
      if (partition.node(j).free_after == i) {
        current -= live[static_cast<std::size_t>(j)];
        live[static_cast<std::size_t>(j)] = 0;
      }
    }
  }
  return peak;
}

std::size_t estimate_retained_bytes(const PartitionTree& partition,
                                    int num_colors, VertexId n,
                                    TableKind kind, bool labeled,
                                    int iterations) {
  std::size_t per_pass = 0;
  for (const Subtemplate& node : partition.nodes()) {
    if (node.is_leaf()) continue;  // leaves never materialize tables
    const auto sets = static_cast<std::uint64_t>(
        num_rooted_colorsets(num_colors, node.size()));
    // Each retained stage also keeps its frontier list (~one VertexId
    // per occupied row; bound it by n).
    per_pass += estimate_table_bytes(kind, n, sets, labeled) +
                static_cast<std::size_t>(n) * sizeof(VertexId);
  }
  return per_pass * static_cast<std::size_t>(std::max(0, iterations));
}

std::size_t estimate_spill_working_set_bytes(const PartitionTree& partition,
                                             int num_colors, VertexId n,
                                             TableKind kind, bool labeled) {
  const auto table_bytes = [&](int node_index) -> std::size_t {
    const Subtemplate& node = partition.node(node_index);
    if (node.is_leaf()) return 0;  // leaves never materialize tables
    const auto sets = static_cast<std::uint64_t>(
        num_rooted_colorsets(num_colors, node.size()));
    return estimate_table_bytes(kind, n, sets, labeled);
  };
  std::size_t peak = 0;
  for (int i = 0; i < partition.num_nodes(); ++i) {
    const Subtemplate& node = partition.node(i);
    if (node.is_leaf()) continue;
    // A stage needs its own table plus its children resident; every
    // completed table outside this triple is spillable.
    peak = std::max(peak, table_bytes(i) + table_bytes(node.active) +
                              table_bytes(node.passive) +
                              (node.is_triangle_join()
                                   ? table_bytes(node.passive2)
                                   : 0));
  }
  return peak;
}

std::size_t estimate_workspace_bytes(const PartitionTree& partition,
                                     int num_colors) {
  std::size_t peak = 0;
  for (const Subtemplate& node : partition.nodes()) {
    if (node.is_leaf()) continue;
    const int a = partition.node(node.active).size();
    const int p = partition.node(node.passive).size();
    const auto row = static_cast<std::size_t>(
        num_rooted_colorsets(num_colors, node.size()));
    // psum holds per-color counts, a decoded rooted passive row, or
    // the general kernel's globally indexed folded passive row.
    const auto psum = std::max<std::size_t>(
        static_cast<std::size_t>(num_colors),
        a > 1 && p > 1 ? num_colorsets(num_colors, p)
                       : num_rooted_colorsets(num_colors, p));
    const auto gather =
        static_cast<std::size_t>(num_rooted_colorsets(num_colors, a));
    // row + psum + gather doubles, plus the nonzero-index buffer
    // (one 32-bit index per rooted active slot).
    std::size_t bytes = (row + psum + gather) * sizeof(double) +
                        gather * sizeof(std::uint32_t);
    if (node.is_triangle_join()) {
      // The triangle kernel: a global rest row over C(k, h - a) sets, a
      // global y sum, and rooted x and y rows (its one-byte-per-vertex
      // marks are priced in plan_memory).
      const int sy = partition.node(node.passive2).size();
      const std::size_t scratch =
          num_colorsets(num_colors, node.size() - a) +
          num_colorsets(num_colors, sy) + num_rooted_colorsets(num_colors, p) +
          num_rooted_colorsets(num_colors, sy);
      bytes = (row + scratch + gather) * sizeof(double);
    }
    peak = std::max(peak, bytes);
  }
  return peak;
}

MemoryPlan plan_memory(const PartitionTree& partition, int num_colors,
                       VertexId n, bool labeled, TableKind requested,
                       int engine_copies, std::size_t budget_bytes,
                       int threads_per_copy, bool spill_available) {
  MemoryPlan plan;
  plan.table = requested;
  plan.engine_copies = std::max(1, engine_copies);
  const std::size_t threads =
      static_cast<std::size_t>(std::max(1, threads_per_copy));
  // Per engine copy, beyond its tables: one scratch workspace per sweep
  // thread (with a byte per vertex of neighbor marks when a triangle
  // stage runs) plus the frontier in/out lists (~2 x 4 bytes per vertex).
  const bool triangles = std::any_of(
      partition.nodes().begin(), partition.nodes().end(),
      [](const Subtemplate& node) { return node.is_triangle_join(); });
  const std::size_t per_copy_overhead =
      threads * (estimate_workspace_bytes(partition, num_colors) +
                 (triangles ? static_cast<std::size_t>(n) : 0)) +
      static_cast<std::size_t>(n) * 2 * sizeof(VertexId);
  const auto per_copy = [&](TableKind kind) {
    return (plan.spill ? estimate_spill_working_set_bytes(
                             partition, num_colors, n, kind, labeled)
                       : estimate_peak_bytes(partition, num_colors, n, kind,
                                             labeled)) +
           per_copy_overhead;
  };
  plan.estimated_peak_bytes =
      per_copy(plan.table) * static_cast<std::size_t>(plan.engine_copies);
  if (budget_bytes == 0) return plan;

  const auto over = [&]() {
    plan.estimated_peak_bytes =
        per_copy(plan.table) * static_cast<std::size_t>(plan.engine_copies);
    return plan.estimated_peak_bytes > budget_bytes;
  };

  while (over()) {
    // Next ladder rung: a denser-to-sparser layout first, then fewer
    // private table copies, then out-of-core paging.  Every rung moves
    // the plan strictly down the ladder, so the loop terminates.
    if (plan.table == TableKind::kNaive) {
      plan.table = TableKind::kCompact;
      plan.degradations.push_back("table naive -> compact (estimate " +
                                  human_bytes(plan.estimated_peak_bytes) +
                                  " over budget)");
    } else if (plan.table == TableKind::kCompact &&
               per_copy(TableKind::kSuccinct) <
                   per_copy(TableKind::kCompact)) {
      plan.table = TableKind::kSuccinct;
      plan.degradations.push_back("table compact -> succinct (estimate " +
                                  human_bytes(plan.estimated_peak_bytes) +
                                  " over budget)");
    } else if (plan.engine_copies > 1) {
      plan.engine_copies = std::max(1, plan.engine_copies / 2);
      plan.degradations.push_back(
          "outer-mode private table copies -> " +
          std::to_string(plan.engine_copies) + " (estimate " +
          human_bytes(plan.estimated_peak_bytes) + " over budget)");
    } else if (spill_available && !plan.spill) {
      // Out-of-core rung: completed tables page to the spill directory
      // and only the active stage's triple stays resident.  Taken once;
      // if even the working set exceeds the budget we fall through to
      // the honest fits = false below.
      plan.spill = true;
      plan.degradations.push_back(
          "paging completed tables out-of-core (estimate " +
          human_bytes(plan.estimated_peak_bytes) + " over budget)");
    } else {
      plan.fits = false;
      plan.degradations.push_back(
          "floor configuration still estimated at " +
          human_bytes(plan.estimated_peak_bytes) + " over budget " +
          human_bytes(budget_bytes) + "; running with runtime enforcement");
      break;
    }
  }
  return plan;
}

}  // namespace fascia::run
