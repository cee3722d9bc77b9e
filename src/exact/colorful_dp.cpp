#include "exact/colorful_dp.hpp"

#include <map>
#include <stdexcept>
#include <utility>

#include "comb/split_table.hpp"
#include "dp/count_table.hpp"
#include "util/timer.hpp"

namespace fascia::exact {

ColorfulDp::ColorfulDp(const Graph& graph, const PartitionTree& partition,
                       int num_colors, std::span<const std::uint8_t> colors)
    : root_(partition.root_node()) {
  const VertexId n = graph.num_vertices();
  if (colors.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("ColorfulDp: one color per vertex needed");
  }
  for (const std::uint8_t color : colors) {
    if (color >= num_colors) {
      throw std::invalid_argument("ColorfulDp: color out of range");
    }
  }
  const auto num_nodes = static_cast<std::size_t>(partition.num_nodes());
  widths_.resize(num_nodes);
  tables_.resize(num_nodes);
  seconds_.assign(num_nodes, 0.0);
  std::map<std::pair<int, int>, SplitTable> splits;
  struct Term {
    ColorsetIndex parent;
    ColorsetIndex passive;
    double value;
  };
  std::vector<Term> terms;

  for (std::size_t i = 0; i < num_nodes; ++i) {
    const Subtemplate& node = partition.node(static_cast<int>(i));
    if (node.is_triangle_join()) {
      throw std::invalid_argument(
          "ColorfulDp: triangle joins are not supported");
    }
    if (node.size() > num_colors) {
      throw std::invalid_argument("ColorfulDp: template larger than k");
    }
    const std::uint32_t width = num_colorsets(num_colors, node.size());
    widths_[i] = width;
    std::vector<double>& out = tables_[i];
    out.assign(static_cast<std::size_t>(n) * width, 0.0);

    if (node.is_leaf()) {
      for (VertexId v = 0; v < n; ++v) {
        if (node.root_label < 0 || !graph.has_labels() ||
            node.root_label == static_cast<int>(graph.label(v))) {
          out[static_cast<std::size_t>(v) * width +
              colors[static_cast<std::size_t>(v)]] = 1.0;
        }
      }
      continue;
    }

    WallTimer timer;
    const int h = node.size();
    const int a = partition.node(node.active).size();
    const SplitTable& split =
        splits.try_emplace(std::make_pair(h, a), num_colors, h, a)
            .first->second;
    const std::vector<double>& active =
        tables_[static_cast<std::size_t>(node.active)];
    const std::vector<double>& passive =
        tables_[static_cast<std::size_t>(node.passive)];
    const std::uint32_t active_width =
        widths_[static_cast<std::size_t>(node.active)];
    const std::uint32_t passive_width =
        widths_[static_cast<std::size_t>(node.passive)];
    for (VertexId v = 0; v < n; ++v) {
      const double* arow =
          active.data() + static_cast<std::size_t>(v) * active_width;
      terms.clear();
      for (ColorsetIndex parent = 0; parent < split.num_parents(); ++parent) {
        const auto act = split.active_indices(parent);
        const auto pas = split.passive_indices(parent);
        for (std::size_t s = 0; s < act.size(); ++s) {
          if (arow[act[s]] != 0.0) {
            terms.push_back({parent, pas[s], arow[act[s]]});
          }
        }
      }
      if (terms.empty()) continue;
      double* row = out.data() + static_cast<std::size_t>(v) * width;
      for (const VertexId u : graph.neighbors(v)) {
        const double* prow =
            passive.data() + static_cast<std::size_t>(u) * passive_width;
        for (const Term& term : terms) {
          const double count = prow[term.passive];
          if (count != 0.0) row[term.parent] += term.value * count;
        }
      }
    }
    seconds_[i] = timer.elapsed_s();
  }
}

double ColorfulDp::total(int node) const noexcept {
  const std::vector<double>& table = tables_[static_cast<std::size_t>(node)];
  detail::ExactSum exact;
  exact.add(table.data(), table.size(), 8);
  if (exact.fits()) return exact.value();
  double sum = 0.0;
  for (const double entry : table) sum += entry;
  return sum;
}

}  // namespace fascia::exact
