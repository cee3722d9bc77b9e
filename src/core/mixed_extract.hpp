#pragma once
// Embedding extraction for mixed (triangle-block) templates,
// completing the "E" in FASCIA for the extension class: sample
// concrete embeddings by walking the DP tables of the mixed partition
// back down (core/extract.cpp; a triangle join picks a pair of
// adjacent neighbors).

#include <vector>

#include "core/count_options.hpp"
#include "core/extract.hpp"
#include "graph/graph.hpp"
#include "treelet/mixed_template.hpp"

namespace fascia {

/// Draws up to `how_many` embeddings of `tmpl` (tree or triangle-block
/// template), re-coloring as needed; same semantics as the tree
/// sampler.  Trees are served by the tree pipeline; a non-tree
/// template rejects execution.reorder with Error(kUsage).
std::vector<Embedding> sample_mixed_embeddings(
    const Graph& graph, const MixedTemplate& tmpl, std::size_t how_many,
    const CountOptions& options = {}, int max_coloring_attempts = 32);

/// Validity check for mixed-template embeddings (distinct vertices,
/// every template edge present — including triangle edges — labels
/// matching).
bool is_valid_mixed_embedding(const Graph& graph, const MixedTemplate& tmpl,
                              const Embedding& embedding);

}  // namespace fascia
