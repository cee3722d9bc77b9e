#include "sched/thread_layout.hpp"

#include <algorithm>

namespace fascia {

namespace {

/// Minimum frontier vertices one inner thread must own for the sweep
/// to amortize scheduling and merge overhead (measured grain of the
/// dynamic/guided loops in engine.hpp).
constexpr double kMinFrontierPerThread = 2048.0;

}  // namespace

ThreadLayout choose_layout(const LayoutInputs& in) {
  const int threads = std::max(1, in.threads);
  const int iterations = std::max(1, in.iterations);

  // Most inner threads the measured frontiers can keep busy.
  const double useful = in.frontier_occupancy *
                        static_cast<double>(in.num_vertices) /
                        kMinFrontierPerThread;
  const int max_inner = std::clamp(static_cast<int>(useful), 1, threads);

  // Fewest copies that soak up the whole pool at that inner width.
  int copies = (threads + max_inner - 1) / max_inner;

  // Outer copies beyond the remaining iterations would idle, and each
  // copy owns private tables, so the budget caps the count too.
  copies = std::min(copies, iterations);
  if (in.memory_budget_bytes > 0 && in.table_bytes_per_copy > 0) {
    const auto mem_cap = static_cast<int>(std::min<std::size_t>(
        in.memory_budget_bytes / in.table_bytes_per_copy,
        static_cast<std::size_t>(threads)));
    copies = std::min(copies, std::max(1, mem_cap));
  }
  if (in.forced_outer_copies > 0) {
    copies = std::clamp(in.forced_outer_copies, 1, threads);
  }
  copies = std::max(1, std::min(copies, threads));

  ThreadLayout layout;
  layout.outer_copies = copies;
  layout.inner_threads = std::max(1, threads / copies);
  return layout;
}

}  // namespace fascia
