// MarketSnapshot: everything a pricing strategy may observe about one time
// period — the issued tasks, the available workers, and the grid partition.
// Valuations are absent by construction.
//
// Construction is staged: the task side (bucketing, descending-distance
// prefix sums) depends only on the period's tasks; the worker side depends
// on the worker-lifecycle state and is attached afterwards, which also
// builds the period's one bipartite graph. Both stages reuse all internal
// storage across calls, so the engine's one snapshot, rebuilt every
// period, performs no steady-state allocation (DESIGN.md §10).

#pragma once

#include <vector>

#include "geo/grid.h"
#include "graph/bipartite_graph.h"
#include "market/task.h"
#include "market/worker.h"

namespace maps {

/// \brief Immutable per-period view of the market handed to strategies.
class MarketSnapshot {
 public:
  /// Staged construction: ResetTasks() then SetWorkers() before first use.
  MarketSnapshot() = default;

  /// One-shot construction (equivalent to the staged pair).
  MarketSnapshot(const GridPartition* grid, int32_t period,
                 std::vector<Task> tasks, std::vector<Worker> workers);

  /// Stage 1: rebinds the snapshot to (`grid`, `period`), copies the tasks
  /// of [begin, end) and rebuilds the per-grid task index and distance
  /// prefix sums. Reuses all storage; any previously attached workers are
  /// discarded (call SetWorkers() before handing the snapshot out).
  void ResetTasks(const GridPartition* grid, int32_t period,
                  const Task* begin, const Task* end);

  /// Stage 2: copies the workers of [begin, end), rebuilds the per-grid
  /// worker index and builds graph(). Requires ResetTasks() first.
  void SetWorkers(const Worker* begin, const Worker* end);

  int32_t period() const { return period_; }
  const GridPartition& grid() const { return *grid_; }
  int num_grids() const { return grid_->num_cells(); }

  const std::vector<Task>& tasks() const { return tasks_; }
  const std::vector<Worker>& workers() const { return workers_; }

  /// The period's graph B^t over tasks() x workers() (Algorithm 2, Line 1),
  /// which pricing, diagnostics and the assignment all read.
  const BipartiteGraph& graph() const { return graph_; }

  /// Indices into tasks() whose origin lies in `g`.
  const std::vector<int>& TasksInGrid(GridId g) const;

  /// Indices into workers() currently located in `g`.
  const std::vector<int>& WorkersInGrid(GridId g) const;

  /// Prefix sums over grid `g`'s task distances in descending order —
  /// element k is the sum of the k largest distances (element 0 is 0;
  /// size = tasks-in-grid + 1). This is the d_{r_1} >= d_{r_2} >= ...
  /// ordering the supply curve of Eq. (1) sums over, cached so the
  /// Algorithm 3 maximizer evaluates any top-n sum in O(1) instead of
  /// re-summing per ladder rung. The k-th largest distance itself is
  /// prefix[k] - prefix[k-1].
  const std::vector<double>& DistancePrefixSumsInGrid(GridId g) const;

  /// Sum of all task distances in grid `g` (demand-curve scale C).
  double TotalDistanceInGrid(GridId g) const;

  /// Resident bytes of this snapshot's internal storage (task/worker copies,
  /// per-grid indices, prefix sums and the graph), by capacity. Used by the
  /// engine's platform-memory accounting.
  size_t FootprintBytes() const;

 private:
  void IndexTasks();
  void IndexWorkers();

  const GridPartition* grid_ = nullptr;
  int32_t period_ = 0;
  std::vector<Task> tasks_;
  std::vector<Worker> workers_;
  std::vector<std::vector<int>> tasks_by_grid_;
  std::vector<std::vector<int>> workers_by_grid_;
  std::vector<std::vector<double>> dist_prefix_by_grid_;
  std::vector<double> total_dist_by_grid_;
  std::vector<double> sort_scratch_;
  BipartiteGraph graph_;
  GraphBuildWorkspace graph_ws_;
};

}  // namespace maps
