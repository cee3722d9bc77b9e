// Fig. 8: inner-loop strong scaling — execution time of the U12-2
// template on Portland vs processor cores (1, 2, 4, 8, 12, 16).
//
// Expected shape (paper): near-linear to 8 cores, ~12x at 16 cores.
// Thread counts beyond the machine's cores oversubscribe them, so the
// curve flattens past the core count (flat at 1 on a single core).

#include <string>
#include <thread>

#include "core/counter.hpp"
#include "common.hpp"
#include "treelet/catalog.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  bench::Context ctx("fig08_inner_scaling: Fig. 8 series");
  if (!ctx.parse(argc, argv)) return 0;

  const Graph g = ctx.dataset("portland", 0.002);
  bench::banner("Fig. 8", "inner-loop parallel scaling, U12-2",
                "portland-like, " + bench::describe_graph(g) +
                    "; hardware threads available: " +
                    std::to_string(std::thread::hardware_concurrency()));

  const auto& tree = catalog_entry("U12-2").tree;
  TablePrinter table({"Cores", "time (s)", "speedup", "hybrid (s)",
                      "hybrid layout"});
  auto csv = ctx.csv({"cores", "seconds", "speedup", "hybrid_seconds",
                      "hybrid_outer", "hybrid_inner"});

  double serial_time = 0.0;
  for (int cores : {1, 2, 4, 8, 12, 16}) {
    CountOptions options;
    options.sampling.iterations = 1;
    options.execution.mode =
        cores == 1 ? ParallelMode::kSerial : ParallelMode::kInnerLoop;
    options.execution.threads = cores;
    options.sampling.seed = ctx.seed;
    const CountResult result = count_template(g, tree, options);
    const double seconds = result.seconds_per_iteration[0];
    if (cores == 1) serial_time = seconds;

    // Hybrid series: the cost-model scheduler picks its own split of
    // the same thread pool (one iteration => outer corner never wins,
    // so this measures the probe + inner path).
    options.execution.mode = ParallelMode::kHybrid;
    const CountResult hybrid = count_template(g, tree, options);
    const double hybrid_seconds = hybrid.seconds_per_iteration[0];
    const std::string layout =
        std::to_string(hybrid.layout.outer_copies) + "x" +
        std::to_string(hybrid.layout.inner_threads);

    std::vector<std::string> row = {
        TablePrinter::num(static_cast<long long>(cores)),
        TablePrinter::num(seconds, 3),
        TablePrinter::num(serial_time / seconds, 2),
        TablePrinter::num(hybrid_seconds, 3), layout};
    csv.row({TablePrinter::num(static_cast<long long>(cores)),
             TablePrinter::num(seconds, 3),
             TablePrinter::num(serial_time / seconds, 2),
             TablePrinter::num(hybrid_seconds, 3),
             std::to_string(hybrid.layout.outer_copies),
             std::to_string(hybrid.layout.inner_threads)});
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nexpected shape (16-core node): ~12x at 16 cores.  On a 1-core "
      "container the curve is flat by construction.\n");
  return 0;
}
