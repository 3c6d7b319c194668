#include "market/market_state.h"

#include <gtest/gtest.h>

namespace maps {
namespace {

class MarketSnapshotTest : public ::testing::Test {
 protected:
  MarketSnapshotTest()
      : grid_(GridPartition::Make(Rect{0, 0, 10, 10}, 2, 2).ValueOrDie()) {}

  Task MakeTask(TaskId id, Point origin, double distance) {
    Task t;
    t.id = id;
    t.period = 0;
    t.origin = origin;
    t.destination = origin;  // distance stored explicitly
    t.distance = distance;
    t.grid = grid_.CellOf(origin);
    return t;
  }

  Worker MakeWorker(WorkerId id, Point loc, double radius) {
    Worker w;
    w.id = id;
    w.period = 0;
    w.location = loc;
    w.radius = radius;
    w.grid = grid_.CellOf(loc);
    return w;
  }

  GridPartition grid_;
};

TEST_F(MarketSnapshotTest, BucketsTasksAndWorkersByGrid) {
  std::vector<Task> tasks = {MakeTask(0, {1, 1}, 2.0), MakeTask(1, {2, 2}, 1.0),
                             MakeTask(2, {8, 8}, 3.0)};
  std::vector<Worker> workers = {MakeWorker(0, {1, 8}, 5.0),
                                 MakeWorker(1, {8, 1}, 5.0)};
  MarketSnapshot snap(&grid_, 3, tasks, workers);

  EXPECT_EQ(snap.period(), 3);
  EXPECT_EQ(snap.num_grids(), 4);
  EXPECT_EQ(snap.TasksInGrid(0), (std::vector<int>{0, 1}));
  EXPECT_TRUE(snap.TasksInGrid(1).empty());
  EXPECT_EQ(snap.TasksInGrid(3), (std::vector<int>{2}));
  EXPECT_EQ(snap.WorkersInGrid(2), (std::vector<int>{0}));
  EXPECT_EQ(snap.WorkersInGrid(1), (std::vector<int>{1}));
}

TEST_F(MarketSnapshotTest, DistancePrefixSumsDescending) {
  std::vector<Task> tasks = {MakeTask(0, {1, 1}, 2.0), MakeTask(1, {2, 2}, 5.0),
                             MakeTask(2, {3, 3}, 3.5)};
  MarketSnapshot snap(&grid_, 0, tasks, {});
  // Prefix sums over {5.0, 3.5, 2.0} (descending): top-n sums in O(1).
  EXPECT_EQ(snap.DistancePrefixSumsInGrid(0),
            (std::vector<double>{0.0, 5.0, 8.5, 10.5}));
  EXPECT_DOUBLE_EQ(snap.TotalDistanceInGrid(0), 10.5);
  EXPECT_EQ(snap.DistancePrefixSumsInGrid(1), (std::vector<double>{0.0}));
  EXPECT_DOUBLE_EQ(snap.TotalDistanceInGrid(1), 0.0);
}

TEST_F(MarketSnapshotTest, StagedConstructionMatchesOneShot) {
  // The engine builds its snapshot in two stages and reuses it across
  // many periods; every derived index must match a fresh one-shot snapshot
  // of the same market exactly.
  std::vector<Task> tasks = {MakeTask(0, {1, 1}, 2.0),
                             MakeTask(1, {2, 2}, 1.0),
                             MakeTask(2, {8, 8}, 3.0)};
  std::vector<Worker> workers = {MakeWorker(0, {1, 8}, 5.0),
                                 MakeWorker(1, {8, 1}, 4.0)};
  MarketSnapshot staged;
  // First fill the slot with a different market so reuse has to overwrite.
  std::vector<Task> other = {MakeTask(7, {9, 9}, 9.0),
                             MakeTask(8, {9, 1}, 8.0)};
  staged.ResetTasks(&grid_, 3, other.data(), other.data() + other.size());
  staged.SetWorkers(workers.data(), workers.data() + 1);
  // Now rebuild it as period 5 of the real market.
  staged.ResetTasks(&grid_, 5, tasks.data(), tasks.data() + tasks.size());
  staged.SetWorkers(workers.data(), workers.data() + workers.size());

  MarketSnapshot fresh(&grid_, 5, tasks, workers);
  EXPECT_EQ(staged.period(), fresh.period());
  ASSERT_EQ(staged.tasks().size(), fresh.tasks().size());
  ASSERT_EQ(staged.workers().size(), fresh.workers().size());
  for (int g = 0; g < grid_.num_cells(); ++g) {
    EXPECT_EQ(staged.TasksInGrid(g), fresh.TasksInGrid(g)) << "grid " << g;
    EXPECT_EQ(staged.WorkersInGrid(g), fresh.WorkersInGrid(g))
        << "grid " << g;
    EXPECT_EQ(staged.DistancePrefixSumsInGrid(g),
              fresh.DistancePrefixSumsInGrid(g))
        << "grid " << g;
    EXPECT_DOUBLE_EQ(staged.TotalDistanceInGrid(g),
                     fresh.TotalDistanceInGrid(g))
        << "grid " << g;
  }
}

TEST_F(MarketSnapshotTest, EmptySnapshot) {
  MarketSnapshot snap(&grid_, 0, {}, {});
  EXPECT_TRUE(snap.tasks().empty());
  EXPECT_TRUE(snap.workers().empty());
  for (int g = 0; g < 4; ++g) {
    EXPECT_TRUE(snap.TasksInGrid(g).empty());
    EXPECT_TRUE(snap.WorkersInGrid(g).empty());
  }
}

}  // namespace
}  // namespace maps
