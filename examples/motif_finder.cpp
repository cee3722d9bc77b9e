// Motif finding on a protein-interaction-style network (the paper's
// flagship application, §II-A / §V-E).
//
//   build/examples/motif_finder [--k 5] [--iterations 200] ...
//
// Counts every tree topology of size k in a PPI-like network AND in a
// degree-matched random graph, then reports which shapes are over- or
// under-represented — the definition of a network motif.

#include <cstdio>

#include "analytics/significance.hpp"
#include "core/motifs.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/components.hpp"
#include "treelet/canonical.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"

int main(int argc, char** argv) {
  using namespace fascia;
  Cli cli("motif_finder: tree motifs of a PPI-like network vs random");
  cli.add_common();
  cli.add_option("k", "motif size (3..10 practical here)", "5");
  cli.add_option("iterations", "color-coding iterations", "200");
  if (!cli.parse(argc, argv)) return 0;

  const int k = static_cast<int>(cli.integer("k"));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));

  // The study network: E. coli-like PPI graph.
  const Graph network = make_dataset("ecoli", 1.0, seed);
  // The null model: an Erdos-Renyi graph of the same size/density.
  const Graph random_graph = largest_component(erdos_renyi_gnm(
      network.num_vertices(), network.num_edges(), seed + 1));

  std::printf("network: n=%d m=%lld   null model: n=%d m=%lld\n\n",
              network.num_vertices(),
              static_cast<long long>(network.num_edges()),
              random_graph.num_vertices(),
              static_cast<long long>(random_graph.num_edges()));

  CountOptions options;
  options.sampling.iterations = static_cast<int>(cli.integer("iterations"));
  options.sampling.seed = seed;
  const MotifProfile real = count_all_treelets(network, k, options);
  const MotifProfile null_model = count_all_treelets(random_graph, k, options);

  TablePrinter table({"Shape", "edges", "iters", "network count",
                      "random count", "ratio", "verdict"});
  for (std::size_t i = 0; i < real.trees.size(); ++i) {
    const double ratio =
        null_model.counts[i] > 0 ? real.counts[i] / null_model.counts[i] : 0;
    std::string verdict = "-";
    if (ratio > 2.0) verdict = "MOTIF (over-represented)";
    if (ratio < 0.5 && ratio > 0) verdict = "anti-motif";
    std::string edges;
    for (auto [u, v] : real.trees[i].edges()) {
      edges += (edges.empty() ? "" : " ") + std::to_string(u) + "-" +
               std::to_string(v);
    }
    table.add_row({TablePrinter::num(static_cast<long long>(i + 1)), edges,
                   TablePrinter::num(static_cast<long long>(
                       real.iterations[i])),
                   TablePrinter::sci(real.counts[i], 2),
                   TablePrinter::sci(null_model.counts[i], 2),
                   TablePrinter::num(ratio, 2), verdict});
  }
  table.print();
  std::printf(
      "\nPPI-style degree heterogeneity inflates star-like shapes "
      "relative to the ER null model — the motif signal the paper's "
      "bioinformatics use case looks for.\n");

  // The rigorous version: z-scores against a degree-preserving
  // rewiring ensemble (Milo et al., the paper's reference [1]), which
  // controls for the degree sequence the ER comparison ignores.
  std::printf("\nz-scores vs %d degree-preserving rewirings:\n", 5);
  const auto significance =
      analytics::motif_significance(network, k, 5, options);
  TablePrinter ztable({"Shape", "real", "null mean", "null stdev", "z"});
  for (std::size_t i = 0; i < significance.trees.size(); ++i) {
    ztable.add_row({TablePrinter::num(static_cast<long long>(i + 1)),
                    TablePrinter::sci(significance.real_counts[i], 2),
                    TablePrinter::sci(significance.random_mean[i], 2),
                    TablePrinter::sci(significance.random_stdev[i], 2),
                    TablePrinter::num(significance.z_scores[i], 1)});
  }
  ztable.print();
  return 0;
}
