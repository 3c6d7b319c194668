// Hopcroft-Karp maximum-cardinality bipartite matching: O(E * sqrt(V)).
// No serving path calls it: the tests use it as the maximum-cardinality
// reference for the incremental matcher, and bench_micro times it.

#pragma once

#include "graph/bipartite_graph.h"
#include "graph/matching.h"

namespace maps {

/// \brief Computes a maximum-cardinality matching via BFS layering and
/// layered DFS augmentation.
Matching HopcroftKarpMatching(const BipartiteGraph& graph);

}  // namespace maps
