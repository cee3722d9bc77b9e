#pragma once
// Partitioning of mixed (edge + triangle block) templates.
//
// As for trees, only cuts at the current root are legal.  Two node
// kinds beyond leaves:
//   * edge join     — the root's bridge (root, w) is cut; passive is
//                     w's branch (identical to the tree partitioner,
//                     and run by the tree stage kernels).
//   * triangle join — a triangle block (root, x, y) incident to the
//                     root is removed; the two passive children are
//                     x's and y's branches, whose images must be
//                     mutually adjacent graph neighbors of the root's
//                     image (DpEngine's triangle stage).
//
// No rooted-canonical table sharing here: AHU strings do not cover
// graphs with cycles, and mixed templates are small enough that the
// tree pipeline's memory optimization is not worth a graph-canonical
// form (documented in DESIGN.md).

#include "treelet/mixed_template.hpp"
#include "treelet/partition.hpp"

namespace fascia {

/// Partitions `t` rooted at `root` (-1: smallest-degree vertex not
/// inside a triangle when one exists, else vertex 0).  Nodes come out
/// in bottom-up topological order; back() is the full template.  An
/// edge join is an ordinary Subtemplate (active, passive); a triangle
/// join also sets passive2 (y's branch).  Nodes carry their root's
/// label but no canonical key: nothing is shared.
PartitionTree partition_mixed_template(const MixedTemplate& t,
                                       int root = -1);

}  // namespace fascia
