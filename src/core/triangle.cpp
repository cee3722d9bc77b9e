#include "core/triangle.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/mixed_counter.hpp"

namespace fascia {

namespace {

bool label_multiset_matches(const Graph& graph, VertexId a, VertexId b,
                            VertexId c,
                            const std::array<std::uint8_t, 3>& want) {
  std::array<std::uint8_t, 3> got = {graph.label(a), graph.label(b),
                                     graph.label(c)};
  std::sort(got.begin(), got.end());
  return got == want;
}

/// Enumerates triangles (a < b < c) and applies `body`; the
/// neighbor-intersection walk relies on sorted adjacency.
template <class Body>
void for_each_triangle(const Graph& graph, Body&& body) {
  const VertexId n = graph.num_vertices();
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 64)
#endif
  for (VertexId a = 0; a < n; ++a) {
    const auto nbr_a = graph.neighbors(a);
    for (VertexId b : nbr_a) {
      if (b <= a) continue;
      const auto nbr_b = graph.neighbors(b);
      // Intersect the suffixes > b of both sorted lists.
      auto it_a = std::lower_bound(nbr_a.begin(), nbr_a.end(), b + 1);
      auto it_b = std::lower_bound(nbr_b.begin(), nbr_b.end(), b + 1);
      while (it_a != nbr_a.end() && it_b != nbr_b.end()) {
        if (*it_a < *it_b) {
          ++it_a;
        } else if (*it_b < *it_a) {
          ++it_b;
        } else {
          body(a, b, *it_a);
          ++it_a;
          ++it_b;
        }
      }
    }
  }
}

void validate_labels(const Graph& graph,
                     const std::vector<std::uint8_t>& labels) {
  if (!labels.empty() && labels.size() != 3) {
    throw std::invalid_argument("triangle labels must have 3 entries");
  }
  if (!labels.empty() && !graph.has_labels()) {
    throw std::invalid_argument("labeled triangle needs a labeled graph");
  }
}

}  // namespace

double exact_triangle_count(const Graph& graph,
                            const std::vector<std::uint8_t>& labels) {
  validate_labels(graph, labels);
  std::array<std::uint8_t, 3> want{};
  const bool labeled = !labels.empty();
  if (labeled) {
    want = {labels[0], labels[1], labels[2]};
    std::sort(want.begin(), want.end());
  }
  double count = 0.0;
  // for_each_triangle parallelizes internally; the body only touches
  // the shared accumulator atomically.
  for_each_triangle(graph, [&](VertexId a, VertexId b, VertexId c) {
    if (!labeled || label_multiset_matches(graph, a, b, c, want)) {
#ifdef _OPENMP
#pragma omp atomic
#endif
      count += 1.0;
    }
  });
  return count;
}

CountResult count_triangles(const Graph& graph, const CountOptions& options,
                            const std::vector<std::uint8_t>& labels) {
  validate_labels(graph, labels);
  // The labeled K3: its label-preserving maps cover each triangle with
  // this label multiset |Aut| times (6 / 2 / 1 for aaa / aab / abc).
  // Without labels it counts every triangle, labeled graph or not.
  MixedTemplate k3 = MixedTemplate::triangle();
  if (!labels.empty()) k3.set_labels(labels);
  return detail::count_mixed(graph, k3, options, "count_triangles");
}

}  // namespace fascia
