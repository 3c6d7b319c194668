#include "graph/bipartite_graph.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "rng/random.h"

namespace maps {
namespace {

TEST(BipartiteGraphTest, FromEdgesBasics) {
  auto g = BipartiteGraph::FromEdges(3, 2, {{0, 1}, {0, 0}, {2, 1}});
  EXPECT_EQ(g.num_left(), 3);
  EXPECT_EQ(g.num_right(), 2);
  EXPECT_EQ(g.num_edges(), 3);
  // Neighbors are sorted regardless of insertion order.
  EXPECT_EQ(std::vector<int>(g.Neighbors(0).begin(), g.Neighbors(0).end()),
            (std::vector<int>{0, 1}));
  EXPECT_TRUE(g.Neighbors(1).empty());
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_EQ(g.Degree(1), 0);
  EXPECT_EQ(g.Degree(2), 1);
}

TEST(BipartiteGraphTest, EmptyGraph) {
  auto g = BipartiteGraph::FromEdges(0, 0, {});
  EXPECT_EQ(g.num_left(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(BipartiteGraphDeathTest, RejectsOutOfRangeVertices) {
  EXPECT_DEATH(BipartiteGraph::FromEdges(1, 1, {{1, 0}}), "out of range");
  EXPECT_DEATH(BipartiteGraph::FromEdges(1, 1, {{0, -1}}), "out of range");
}

TEST(BipartiteGraphTest, SpatialBuildMatchesBruteForce) {
  // Property: the grid-accelerated Build() must produce exactly the edges
  // the O(|R|*|W|) definition gives, across random geometries.
  auto grid = GridPartition::Make(Rect{0, 0, 100, 100}, 8, 8).ValueOrDie();
  Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    const int nt = 1 + static_cast<int>(rng.NextBounded(40));
    const int nw = 1 + static_cast<int>(rng.NextBounded(25));
    std::vector<Task> tasks(nt);
    for (int i = 0; i < nt; ++i) {
      tasks[i].id = i;
      tasks[i].origin = {rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
      tasks[i].grid = grid.CellOf(tasks[i].origin);
    }
    std::vector<Worker> workers(nw);
    for (int i = 0; i < nw; ++i) {
      workers[i].id = i;
      workers[i].location = {rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
      workers[i].radius = rng.NextDouble(0.5, 35.0);
      workers[i].grid = grid.CellOf(workers[i].location);
    }

    auto g = BipartiteGraph::Build(tasks, workers, grid);
    std::set<std::pair<int, int>> expected;
    for (int t = 0; t < nt; ++t) {
      for (int w = 0; w < nw; ++w) {
        if (workers[w].CanReach(tasks[t].origin)) expected.insert({t, w});
      }
    }
    std::set<std::pair<int, int>> actual;
    for (int t = 0; t < nt; ++t) {
      for (int w : g.Neighbors(t)) actual.insert({t, w});
    }
    ASSERT_EQ(actual, expected) << "trial " << trial;
  }
}

// The O(|R|*|W|) definition of the build's predicate, assembled by the
// order-agnostic FromEdges (pairs are emitted worker-major on purpose).
BipartiteGraph BruteForceGraph(const std::vector<Task>& tasks,
                               const std::vector<Worker>& workers) {
  std::vector<std::pair<int, int>> edges;
  for (int w = 0; w < static_cast<int>(workers.size()); ++w) {
    const double r2 = workers[w].radius * workers[w].radius;
    for (int t = 0; t < static_cast<int>(tasks.size()); ++t) {
      const double dx = tasks[t].origin.x - workers[w].location.x;
      const double dy = tasks[t].origin.y - workers[w].location.y;
      if (dx * dx + dy * dy <= r2) edges.emplace_back(t, w);
    }
  }
  return BipartiteGraph::FromEdges(static_cast<int>(tasks.size()),
                                   static_cast<int>(workers.size()), edges);
}

void ExpectSameGraph(const BipartiteGraph& actual,
                     const BipartiteGraph& expected, int trial) {
  ASSERT_EQ(actual.num_left(), expected.num_left()) << "trial " << trial;
  ASSERT_EQ(actual.num_right(), expected.num_right()) << "trial " << trial;
  ASSERT_EQ(actual.num_edges(), expected.num_edges()) << "trial " << trial;
  for (int t = 0; t < actual.num_left(); ++t) {
    const auto got = actual.Neighbors(t);
    const auto want = expected.Neighbors(t);
    ASSERT_EQ(std::vector<int>(got.begin(), got.end()),
              std::vector<int>(want.begin(), want.end()))
        << "trial " << trial << " task " << t;
    for (size_t i = 1; i < got.size(); ++i) {
      ASSERT_LT(got[i - 1], got[i]) << "trial " << trial << " task " << t;
    }
  }
}

TEST(BipartiteGraphTest, BuildIntoEqualsBruteForceWithReusedWorkspace) {
  // Property: the task-major build writes exactly the brute-force edge set,
  // each neighbor list strictly ascending, while one workspace and one
  // output graph are reused across instances that shrink and grow (task,
  // worker and cell counts all vary between consecutive builds).
  const GridPartition grids[] = {
      GridPartition::Make(Rect{0, 0, 100, 100}, 8, 8).ValueOrDie(),
      GridPartition::Make(Rect{0, 0, 100, 100}, 1, 1).ValueOrDie(),
      GridPartition::Make(Rect{-50, 0, 50, 40}, 3, 5).ValueOrDie(),
  };
  GraphBuildWorkspace ws;
  BipartiteGraph g;
  Rng rng(2026);
  for (int trial = 0; trial < 300; ++trial) {
    const GridPartition& grid = grids[rng.NextBounded(3)];
    const Rect& box = grid.region();
    // Alternate large and tiny (including empty) sides.
    const bool big = trial % 2 == 0;
    const int nt = static_cast<int>(rng.NextBounded(big ? 200 : 4));
    const int nw = static_cast<int>(rng.NextBounded(big ? 60 : 4));
    const double cell_w = (box.max_x - box.min_x) / grid.cols();
    std::vector<Task> tasks(nt);
    for (int i = 0; i < nt; ++i) {
      Point o{rng.NextDouble(box.min_x, box.max_x),
              rng.NextDouble(box.min_y, box.max_y)};
      switch (rng.NextBounded(4)) {
        case 0:  // on a vertical cell edge
          o.x = box.min_x + cell_w * static_cast<double>(
                                         rng.NextBounded(grid.cols() + 1));
          break;
        case 1:  // on a region corner
          o.x = rng.NextBernoulli(0.5) ? box.min_x : box.max_x;
          o.y = rng.NextBernoulli(0.5) ? box.min_y : box.max_y;
          break;
        default:
          break;
      }
      tasks[i].id = i;
      tasks[i].origin = o;
      tasks[i].grid = grid.CellOf(o);
    }
    std::vector<Worker> workers(nw);
    for (int i = 0; i < nw; ++i) {
      // Some workers stand outside the region; a few have radius 0.
      workers[i].id = i;
      workers[i].location = {
          rng.NextDouble(box.min_x - 20, box.max_x + 20),
          rng.NextDouble(box.min_y - 20, box.max_y + 20)};
      workers[i].radius =
          rng.NextBounded(8) == 0 ? 0.0 : rng.NextDouble(0.5, 30.0);
      if (nt > 0 && rng.NextBounded(8) == 0) {
        // Stand exactly on a task; with radius 0 that is still an edge.
        workers[i].location = tasks[rng.NextBounded(nt)].origin;
      }
      workers[i].grid = grid.CellOf(workers[i].location);
    }
    const int64_t before = BipartiteGraph::TotalBuildCount();
    BipartiteGraph::BuildInto(tasks, workers, grid, &ws, &g);
    EXPECT_EQ(BipartiteGraph::TotalBuildCount() - before, 1);
    ExpectSameGraph(g, BruteForceGraph(tasks, workers), trial);
  }
}

TEST(BipartiteGraphTest, BuildIntoKeepsTasksAtExactlyTheRadius) {
  // 3-4-5 triangles: every distance below is exact in binary, so the
  // inclusive test (Definition 4) must keep each of these edges — across
  // a cell edge, from outside the region, and with radius 0 on the spot.
  auto grid = GridPartition::Make(Rect{0, 0, 16, 16}, 4, 4).ValueOrDie();
  std::vector<Task> tasks(3);
  tasks[0].origin = {4, 4};    // a corner shared by four cells
  tasks[1].origin = {0, 12};   // on the region's left edge
  tasks[2].origin = {9, 9};
  for (Task& t : tasks) t.grid = grid.CellOf(t.origin);
  std::vector<Worker> workers(4);
  workers[0].location = {1, 0};    // 5 from task 0
  workers[0].radius = 5.0;
  workers[1].location = {-3, 8};   // outside the region, 5 from task 1
  workers[1].radius = 5.0;
  workers[2].location = {9, 9};    // on task 2, radius 0
  workers[2].radius = 0.0;
  workers[3].location = {12, 13};  // 5 from task 2, just short of it
  workers[3].radius = std::nextafter(5.0, 0.0);
  for (Worker& w : workers) w.grid = grid.CellOf(w.location);

  GraphBuildWorkspace ws;
  BipartiteGraph g;
  BipartiteGraph::BuildInto(tasks, workers, grid, &ws, &g);
  ExpectSameGraph(g, BruteForceGraph(tasks, workers), 0);
  EXPECT_EQ(std::vector<int>(g.Neighbors(0).begin(), g.Neighbors(0).end()),
            (std::vector<int>{0}));
  EXPECT_EQ(std::vector<int>(g.Neighbors(1).begin(), g.Neighbors(1).end()),
            (std::vector<int>{1}));
  EXPECT_EQ(std::vector<int>(g.Neighbors(2).begin(), g.Neighbors(2).end()),
            (std::vector<int>{2}));

  // No tasks, then no workers, through the same workspace and graph.
  BipartiteGraph::BuildInto({}, workers, grid, &ws, &g);
  EXPECT_EQ(g.num_left(), 0);
  EXPECT_EQ(g.num_right(), 4);
  EXPECT_EQ(g.num_edges(), 0);
  BipartiteGraph::BuildInto(tasks, {}, grid, &ws, &g);
  EXPECT_EQ(g.num_left(), 3);
  EXPECT_EQ(g.num_edges(), 0);
  for (int t = 0; t < 3; ++t) EXPECT_TRUE(g.Neighbors(t).empty());
}

TEST(BipartiteGraphTest, RangeConstraintBoundaryInclusive) {
  auto grid = GridPartition::Make(Rect{0, 0, 10, 10}, 1, 1).ValueOrDie();
  std::vector<Task> tasks(1);
  tasks[0].origin = {5, 5};
  tasks[0].grid = 0;
  std::vector<Worker> workers(1);
  workers[0].location = {5, 2};  // distance exactly 3
  workers[0].radius = 3.0;
  workers[0].grid = 0;
  auto g = BipartiteGraph::Build(tasks, workers, grid);
  EXPECT_EQ(g.num_edges(), 1);  // <= is inclusive (Definition 4)
}

TEST(BipartiteGraphTest, FootprintGrowsWithEdges) {
  auto small = BipartiteGraph::FromEdges(2, 2, {{0, 0}});
  std::vector<std::pair<int, int>> many;
  for (int l = 0; l < 50; ++l) {
    for (int r = 0; r < 50; ++r) many.push_back({l, r});
  }
  auto big = BipartiteGraph::FromEdges(50, 50, std::move(many));
  EXPECT_GT(big.FootprintBytes(), small.FootprintBytes());
}

}  // namespace
}  // namespace maps
