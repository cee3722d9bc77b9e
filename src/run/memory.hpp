#pragma once
// Pre-run memory estimation and the degradation ladder.
//
// The paper reports peak table memory per layout (Figs. 6-7); this
// module turns that model around: given a byte budget, predict the
// peak for the requested configuration *before allocating anything*
// and degrade until the run fits.  The ladder (in order):
//
//   naive -> compact -> succinct              (table layout, §III-C)
//   halve outer-mode engine copies down to 1   (§III-E)
//   out-of-core paging (spill completed tables; run/spill.hpp)
//
// Hash is not a rung: it stays a layout callers request (the paper's
// Figs. 6-7 and the ablations), and the plan keeps it when asked.
// Estimates walk the partition's free_after schedule, so they reflect
// the real "≤ ~4 live tables" peak rather than the sum over all
// stages.  Compact and hash sizes depend on occupancy that is unknown
// a priori; the model uses the paper's observed regimes (~20 % saving
// unlabeled, >90 % labeled for compact; hash worthwhile only on
// selective instances).  The estimate is a planning figure — the
// RunGuard still enforces the budget against MemTracker at run time.

#include <cstddef>
#include <string>
#include <vector>

#include "dp/count_table.hpp"
#include "graph/graph.hpp"
#include "treelet/partition.hpp"

namespace fascia::run {

/// Modeled bytes of one DP table of `colorsets` columns over `n`
/// vertices, INCLUDING the encoding's per-table overhead (row-pointer
/// array, hash slack and occupied flags, succinct headers and
/// bitmap/slot directories) — not just the dense cell payload.
/// `labeled` selects the sparse-occupancy regime.
std::size_t estimate_table_bytes(TableKind kind, VertexId n,
                                 std::uint64_t colorsets, bool labeled);

/// Modeled peak over one DP pass: tables live under the partition's
/// free_after schedule, maximized over node order.
std::size_t estimate_peak_bytes(const PartitionTree& partition,
                                int num_colors, VertexId n, TableKind kind,
                                bool labeled);

/// Modeled bytes an incremental handle (core/incremental.hpp) keeps
/// alive between recounts: every non-leaf table plus its frontier
/// list, times `iterations` — retention skips the free_after schedule
/// entirely, so this is a sum, not a peak.  The counting service
/// prices incremental admissions with it.
std::size_t estimate_retained_bytes(const PartitionTree& partition,
                                    int num_colors, VertexId n,
                                    TableKind kind, bool labeled,
                                    int iterations);

/// Modeled minimum RESIDENT set under out-of-core paging: the largest
/// (node + non-leaf children) table triple over the stage schedule.
/// Every completed table outside the triple can be spilled, so this is
/// what a paged run needs in memory at once.
std::size_t estimate_spill_working_set_bytes(const PartitionTree& partition,
                                             int num_colors, VertexId n,
                                             TableKind kind, bool labeled);

/// Modeled bytes of ONE sweep thread's scratch workspace (row, partial
/// sum, gather, and nonzero-index buffers of the widest stage).  The
/// engine keeps these buffers per thread and per engine copy, so the
/// run peak carries copies x threads_per_copy of this on top of the
/// table bytes (plus per-copy frontier lists, ~8 bytes per vertex).
std::size_t estimate_workspace_bytes(const PartitionTree& partition,
                                     int num_colors);

struct MemoryPlan {
  TableKind table = TableKind::kCompact;  ///< layout after degradation
  int engine_copies = 1;                  ///< outer-mode private engines
  std::size_t estimated_peak_bytes = 0;   ///< for the chosen config
  bool fits = true;  ///< false: even the floor exceeds the budget

  /// Page completed sub-template tables to disk (run/spill.hpp) and
  /// bound the resident set instead of failing — the ladder's last
  /// rung, taken only when the caller supplied a spill directory.
  bool spill = false;

  std::vector<std::string> degradations;  ///< ladder steps taken
};

/// Applies the ladder.  `engine_copies` is the outer-mode table-copy
/// multiplier (1 for serial/inner runs); `threads_per_copy` scales the
/// per-thread workspace bytes each copy carries (sweep threads, NOT
/// outer copies — workspaces are allocated once per sweep thread).  A
/// budget of 0 disables planning (the requested configuration is
/// returned unchanged).  `spill_available` (RunControls::spill_dir set)
/// arms the out-of-core rung: when even the floor layout exceeds the
/// budget in memory, the plan pages completed tables instead of
/// reporting fits = false.
MemoryPlan plan_memory(const PartitionTree& partition, int num_colors,
                       VertexId n, bool labeled, TableKind requested,
                       int engine_copies, std::size_t budget_bytes,
                       int threads_per_copy = 1,
                       bool spill_available = false);

}  // namespace fascia::run
