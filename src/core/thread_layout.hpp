#pragma once
// Hybrid thread-layout cost model (DESIGN.md §9).
//
// The paper's outer and inner modes are the corners of a spectrum:
// outer_copies engines running whole iterations concurrently, each
// sweeping its DP stages with inner_threads.  The right point depends
// on two measurable quantities:
//
//   * frontier occupancy — the fraction of the n vertices a typical
//     stage actually iterates.  Inner parallelism only scales while
//     each thread gets a useful block of frontier vertices; sparse
//     frontiers (labeled templates, selective stages) leave inner
//     threads idle, so leftover threads are better spent on extra
//     outer copies.
//   * table bytes — every outer copy owns private tables, so memory
//     (and cache pressure) scales with outer_copies; the budget caps
//     how far outer can go.
//
// choose_layout picks the most-inner layout whose per-thread frontier
// share stays above a minimum useful grain, then converts leftover
// parallelism into outer copies as iterations and memory allow.

#include <cstddef>

#include "core/count_options.hpp"
#include "graph/graph.hpp"

namespace fascia {

struct LayoutInputs {
  int threads = 1;          ///< total thread pool to split
  int iterations = 1;       ///< iterations left (outer copies beyond this idle)
  VertexId num_vertices = 0;
  double frontier_occupancy = 1.0;  ///< mean candidates / n per stage, [0, 1]
  std::size_t table_bytes_per_copy = 0;  ///< modeled peak of one engine copy
  std::size_t memory_budget_bytes = 0;   ///< 0 = unlimited
  int forced_outer_copies = 0;           ///< >0 overrides the model
};

ThreadLayout choose_layout(const LayoutInputs& in);

}  // namespace fascia
