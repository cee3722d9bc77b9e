#pragma once
// Counting API for mixed (edge + triangle block) templates — the
// paper's "tree-like graph templates with triangles".
//
// Pure trees are delegated to count_template (core/counter.hpp).
// Templates with triangle blocks are partitioned by
// partition_mixed_template and run as a one-job plan on the iteration
// driver (sched/driver.hpp): the DP engine's triangle stage joins each
// triangle block, every other stage is an ordinary tree stage.
// Estimates are unbiased exactly as for trees:
//   final = colorful_maps / (P · |Aut|),
// with |Aut| from pruned permutation search (mixed_automorphisms).

#include "core/count_options.hpp"
#include "graph/graph.hpp"
#include "treelet/mixed_template.hpp"

namespace fascia {

/// Approximate count of non-induced occurrences of `tmpl`.
/// Options honored: sampling (iterations, num_colors, seed), table,
/// mode (serial / inner / outer / hybrid), threads, outer_copies,
/// root, the run controls (deadline, memory budget with the
/// degradation ladder and spill, cancel, checkpoint and resume) and
/// observability.  Non-tree templates reject reorder, per_vertex and
/// incremental; partition and share_tables apply only when the
/// template is a tree and is delegated.
CountResult count_mixed_template(const Graph& graph,
                                 const MixedTemplate& tmpl,
                                 const CountOptions& options = {});

namespace detail {

/// count_mixed_template for a non-tree template, with a report of kind
/// `kind`, without the labeling agreement check: a template without
/// labels counts every occurrence on a labeled graph (count_triangles).
CountResult count_mixed(const Graph& graph, const MixedTemplate& tmpl,
                        const CountOptions& options, const char* kind);

}  // namespace detail

}  // namespace fascia
