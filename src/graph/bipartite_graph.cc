#include "graph/bipartite_graph.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"

namespace maps {

namespace {

std::atomic<int64_t> g_build_count{0};

}  // namespace

int64_t BipartiteGraph::TotalBuildCount() {
  return g_build_count.load(std::memory_order_relaxed);
}

BipartiteGraph BipartiteGraph::FromEdges(
    int num_left, int num_right,
    const std::vector<std::pair<int, int>>& edges) {
  g_build_count.fetch_add(1, std::memory_order_relaxed);
  // Deterministic neighbor order regardless of input edge order.
  std::vector<std::pair<int, int>> sorted = edges;
  std::sort(sorted.begin(), sorted.end());
  BipartiteGraph g;
  g.num_left_ = num_left;
  g.num_right_ = num_right;
  g.offsets_.assign(num_left + 1, 0);
  g.adj_.reserve(sorted.size());
  for (const auto& [l, r] : sorted) {
    MAPS_CHECK(l >= 0 && l < num_left) << "left vertex out of range";
    MAPS_CHECK(r >= 0 && r < num_right) << "right vertex out of range";
    ++g.offsets_[l + 1];
    g.adj_.push_back(r);
  }
  for (int l = 0; l < num_left; ++l) g.offsets_[l + 1] += g.offsets_[l];
  return g;
}

void BipartiteGraph::BuildInto(const std::vector<Task>& tasks,
                               const std::vector<Worker>& workers,
                               const GridPartition& grid,
                               GraphBuildWorkspace* ws, BipartiteGraph* out) {
  g_build_count.fetch_add(1, std::memory_order_relaxed);
  const int num_tasks = static_cast<int>(tasks.size());
  const int num_workers = static_cast<int>(workers.size());

  // Worker side: list each worker, in index order, under every cell its
  // disc reaches, so each cell's list is ascending.
  ws->workers_by_cell.resize(grid.num_cells());
  for (auto& cell : ws->workers_by_cell) cell.clear();
  ws->x.resize(num_workers);
  ws->y.resize(num_workers);
  ws->r2.resize(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    const Worker& worker = workers[w];
    ws->x[w] = worker.location.x;
    ws->y[w] = worker.location.y;
    ws->r2[w] = worker.radius * worker.radius;
    grid.CellsIntersectingDisc(worker.location, worker.radius, &ws->cells);
    for (GridId cell : ws->cells) ws->workers_by_cell[cell].push_back(w);
  }

  // Task side: every candidate of a task's cell is written to the next CSR
  // slot and kept iff it passes the exact range test, so the adjacency is
  // sized to the candidate count and trimmed to the edge count.
  int64_t candidates = 0;
  for (const Task& task : tasks) {
    candidates += static_cast<int64_t>(ws->workers_by_cell[task.grid].size());
  }
  out->num_left_ = num_tasks;
  out->num_right_ = num_workers;
  out->offsets_.assign(num_tasks + 1, 0);
  out->adj_.resize(candidates);
  int64_t n = 0;
  for (int t = 0; t < num_tasks; ++t) {
    const Point& o = tasks[t].origin;
    for (int w : ws->workers_by_cell[tasks[t].grid]) {
      const double dx = o.x - ws->x[w];
      const double dy = o.y - ws->y[w];
      out->adj_[n] = w;
      n += dx * dx + dy * dy <= ws->r2[w];
    }
    out->offsets_[t + 1] = n;
  }
  out->adj_.resize(n);
}

BipartiteGraph BipartiteGraph::Build(const std::vector<Task>& tasks,
                                     const std::vector<Worker>& workers,
                                     const GridPartition& grid) {
  GraphBuildWorkspace ws;
  BipartiteGraph g;
  BuildInto(tasks, workers, grid, &ws, &g);
  return g;
}

}  // namespace maps
