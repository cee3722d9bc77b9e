#pragma once
// Triangle template support (the paper's "tree-like graph templates
// with triangles", §I/§II-C; our catalog's U3-2).
//
// count_triangles is the labeled K3 run as a mixed template
// (core/mixed_counter.hpp): one triangle-join DP stage per coloring on
// the iteration driver, with its run controls and report.  Exact
// counting stays here as an oriented enumeration (each triangle once)
// — the K3 oracle the tests and the Fig. 3/4/6 benches check
// estimates against.

#include "core/count_options.hpp"
#include "graph/graph.hpp"

namespace fascia {

/// Exact number of triangles (with matching label multiset when
/// `labels` has 3 entries and the graph is labeled).
double exact_triangle_count(const Graph& graph,
                            const std::vector<std::uint8_t>& labels = {});

/// Color-coding estimate of the triangle count: `iterations` random
/// colorings, counting colorful triangles and unbiasing by P and the
/// labeled automorphism count.  Deterministic in options.seed.  With
/// `labels` (3 entries) only triangles with that label multiset count;
/// without, every triangle counts, labeled graph or not.  Honors the
/// options count_mixed_template does (report kind "count_triangles").
CountResult count_triangles(const Graph& graph, const CountOptions& options,
                            const std::vector<std::uint8_t>& labels = {});

}  // namespace fascia
