#include "market/market_state.h"

#include <algorithm>

#include "util/logging.h"

namespace maps {

MarketSnapshot::MarketSnapshot(const GridPartition* grid, int32_t period,
                               std::vector<Task> tasks,
                               std::vector<Worker> workers)
    : grid_(grid),
      period_(period),
      tasks_(std::move(tasks)),
      workers_(std::move(workers)) {
  MAPS_CHECK(grid_ != nullptr);
  IndexTasks();
  IndexWorkers();
}

void MarketSnapshot::ResetTasks(const GridPartition* grid, int32_t period,
                                const Task* begin, const Task* end) {
  MAPS_CHECK(grid != nullptr);
  grid_ = grid;
  period_ = period;
  tasks_.assign(begin, end);
  IndexTasks();
}

void MarketSnapshot::SetWorkers(const Worker* begin, const Worker* end) {
  MAPS_CHECK(grid_ != nullptr) << "SetWorkers before ResetTasks";
  workers_.assign(begin, end);
  IndexWorkers();
}

void MarketSnapshot::IndexTasks() {
  const int g = grid_->num_cells();
  tasks_by_grid_.resize(g);
  dist_prefix_by_grid_.resize(g);
  total_dist_by_grid_.assign(g, 0.0);
  for (int c = 0; c < g; ++c) tasks_by_grid_[c].clear();
  for (int i = 0; i < static_cast<int>(tasks_.size()); ++i) {
    const Task& t = tasks_[i];
    MAPS_DCHECK(t.grid >= 0 && t.grid < g);
    tasks_by_grid_[t.grid].push_back(i);
  }
  // Sort each grid's distances descending in scratch, then keep only the
  // prefix sums (the maximizer reads top-n sums, never single distances).
  for (int c = 0; c < g; ++c) {
    sort_scratch_.clear();
    for (int i : tasks_by_grid_[c]) {
      sort_scratch_.push_back(tasks_[i].distance);
    }
    std::sort(sort_scratch_.begin(), sort_scratch_.end(),
              std::greater<double>());
    auto& prefix = dist_prefix_by_grid_[c];
    prefix.resize(sort_scratch_.size() + 1);
    prefix[0] = 0.0;
    for (size_t k = 0; k < sort_scratch_.size(); ++k) {
      prefix[k + 1] = prefix[k] + sort_scratch_[k];
    }
    // Same summation order as the prefix, so top-n/total ratios computed
    // from the two can never exceed 1 by a rounding ulp.
    total_dist_by_grid_[c] = prefix.back();
  }
}

void MarketSnapshot::IndexWorkers() {
  const int g = grid_->num_cells();
  workers_by_grid_.resize(g);
  for (int c = 0; c < g; ++c) workers_by_grid_[c].clear();
  for (int i = 0; i < static_cast<int>(workers_.size()); ++i) {
    const Worker& w = workers_[i];
    MAPS_DCHECK(w.grid >= 0 && w.grid < g);
    workers_by_grid_[w.grid].push_back(i);
  }
  BipartiteGraph::BuildInto(tasks_, workers_, *grid_, &graph_ws_, &graph_);
}

const std::vector<double>& MarketSnapshot::DistancePrefixSumsInGrid(
    GridId g) const {
  MAPS_DCHECK(g >= 0 && g < num_grids());
  return dist_prefix_by_grid_[g];
}

const std::vector<int>& MarketSnapshot::TasksInGrid(GridId g) const {
  MAPS_DCHECK(g >= 0 && g < num_grids());
  return tasks_by_grid_[g];
}

const std::vector<int>& MarketSnapshot::WorkersInGrid(GridId g) const {
  MAPS_DCHECK(g >= 0 && g < num_grids());
  return workers_by_grid_[g];
}

double MarketSnapshot::TotalDistanceInGrid(GridId g) const {
  MAPS_DCHECK(g >= 0 && g < num_grids());
  return total_dist_by_grid_[g];
}

size_t MarketSnapshot::FootprintBytes() const {
  size_t bytes = tasks_.capacity() * sizeof(Task) +
                 workers_.capacity() * sizeof(Worker) +
                 total_dist_by_grid_.capacity() * sizeof(double) +
                 sort_scratch_.capacity() * sizeof(double) +
                 tasks_by_grid_.capacity() * sizeof(std::vector<int>) +
                 workers_by_grid_.capacity() * sizeof(std::vector<int>) +
                 dist_prefix_by_grid_.capacity() * sizeof(std::vector<double>) +
                 graph_.FootprintBytes() + graph_ws_.FootprintBytes();
  for (const auto& v : tasks_by_grid_) bytes += v.capacity() * sizeof(int);
  for (const auto& v : workers_by_grid_) bytes += v.capacity() * sizeof(int);
  for (const auto& v : dist_prefix_by_grid_) {
    bytes += v.capacity() * sizeof(double);
  }
  return bytes;
}

}  // namespace maps
