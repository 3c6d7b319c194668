// Hopcroft-Karp maximum-cardinality bipartite matching: O(E * sqrt(V)).
// Used on the large instances (scalability sweeps) where a simple
// augmenting-path search's O(V*E) would dominate the simulation loop.

#pragma once

#include "graph/bipartite_graph.h"
#include "graph/matching.h"

namespace maps {

/// \brief Computes a maximum-cardinality matching via BFS layering and
/// layered DFS augmentation.
Matching HopcroftKarpMatching(const BipartiteGraph& graph);

}  // namespace maps
