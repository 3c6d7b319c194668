// BipartiteGraph: tasks (left) x workers (right) with an edge whenever the
// task origin lies inside the worker's range disc (the probabilistic
// bipartite graph B^t of Sec. 2.2, minus the probabilities, which live in
// the demand models).
//
// Storage is CSR over the left side: Neighbors(l) is a contiguous span.

#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geo/grid.h"
#include "market/task.h"
#include "market/worker.h"

namespace maps {

/// \brief Reusable buffers for repeated spatial-join graph builds. Each
/// MarketSnapshot holds one, so steady-state builds are allocation-free.
struct GraphBuildWorkspace {
  /// Per grid cell, the ascending indices of the workers whose range disc
  /// intersects the cell (GridPartition::CellsIntersectingDisc).
  std::vector<std::vector<int>> workers_by_cell;
  /// Worker SoA by index: location and squared radius.
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> r2;
  std::vector<GridId> cells;

  /// Approximate heap footprint (memory-model accounting).
  size_t FootprintBytes() const {
    size_t bytes = (x.capacity() + y.capacity() + r2.capacity()) *
                       sizeof(double) +
                   cells.capacity() * sizeof(GridId) +
                   workers_by_cell.capacity() * sizeof(std::vector<int>);
    for (const auto& cell : workers_by_cell) {
      bytes += cell.capacity() * sizeof(int);
    }
    return bytes;
  }
};

/// \brief Immutable bipartite adjacency, left = tasks, right = workers.
class BipartiteGraph {
 public:
  BipartiteGraph() = default;

  /// Builds from explicit edges (tests and reductions).
  static BipartiteGraph FromEdges(int num_left, int num_right,
                                  const std::vector<std::pair<int, int>>& edges);

  /// Builds from tasks/workers under the range constraint using a grid
  /// spatial join: each grid cell lists the workers whose disc reaches it,
  /// and each task tests only the workers listed in its own cell, so
  /// construction is near-linear for realistic radii instead of
  /// O(|R|*|W|). Tasks are visited in index order and the CSR is written
  /// directly, so every neighbor list comes out strictly ascending without
  /// an edge buffer or a sort.
  static BipartiteGraph Build(const std::vector<Task>& tasks,
                              const std::vector<Worker>& workers,
                              const GridPartition& grid);

  /// As Build(), but reuses `ws` scratch and `out`'s own storage so a
  /// steady-state rebuild performs no heap allocation.
  static void BuildInto(const std::vector<Task>& tasks,
                        const std::vector<Worker>& workers,
                        const GridPartition& grid, GraphBuildWorkspace* ws,
                        BipartiteGraph* out);

  /// Number of graphs constructed process-wide (any builder). Exposed so
  /// tests can assert hot paths build exactly as often as intended — e.g.
  /// OracleSearch must build once per invocation, not once per price combo.
  static int64_t TotalBuildCount();

  int num_left() const { return num_left_; }
  int num_right() const { return num_right_; }
  int64_t num_edges() const { return static_cast<int64_t>(adj_.size()); }

  /// Right-side neighbors of left vertex `l`.
  std::span<const int> Neighbors(int l) const {
    return std::span<const int>(adj_.data() + offsets_[l],
                                adj_.data() + offsets_[l + 1]);
  }

  int Degree(int l) const {
    return static_cast<int>(offsets_[l + 1] - offsets_[l]);
  }

  /// Approximate heap footprint (memory-model accounting).
  size_t FootprintBytes() const {
    return adj_.capacity() * sizeof(int) + offsets_.capacity() * sizeof(int64_t);
  }

 private:
  int num_left_ = 0;
  int num_right_ = 0;
  std::vector<int64_t> offsets_;  // size num_left_+1
  std::vector<int> adj_;
};

}  // namespace maps
