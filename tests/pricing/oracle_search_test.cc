#include "pricing/oracle_search.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "graph/bipartite_graph.h"

namespace maps {
namespace {

using testing_util::MakeTask;
using testing_util::MakeWorker;
using testing_util::TableOneOracle;

TEST(OracleSearchTest, SingleTaskPicksMyersonCandidate) {
  auto grid = GridPartition::Make(Rect{0, 0, 10, 10}, 1, 1).ValueOrDie();
  DemandOracle oracle = TableOneOracle(1);
  std::vector<Task> tasks = {MakeTask(grid, 0, {5, 5}, 2.0)};
  std::vector<Worker> workers = {MakeWorker(grid, 0, {5, 5}, 3.0)};
  MarketSnapshot snap(&grid, 0, std::move(tasks), std::move(workers));
  auto ladder = PriceLadder::FromPrices({1.0, 2.0, 3.0}).ValueOrDie();
  auto best = OracleSearch(snap, oracle, ladder).ValueOrDie();
  // Sufficient supply: optimum is the unit-revenue maximizer 2, giving
  // revenue d * p * S = 2 * 2 * 0.8.
  EXPECT_DOUBLE_EQ(best.grid_prices[0], 2.0);
  EXPECT_NEAR(best.expected_revenue, 2.0 * 2.0 * 0.8, 1e-12);
}

TEST(OracleSearchTest, NoTasksYieldsZero) {
  auto grid = GridPartition::Make(Rect{0, 0, 10, 10}, 1, 1).ValueOrDie();
  DemandOracle oracle = TableOneOracle(1);
  MarketSnapshot snap(&grid, 0, {}, {});
  auto ladder = PriceLadder::FromPrices({1.0, 2.0}).ValueOrDie();
  auto best = OracleSearch(snap, oracle, ladder).ValueOrDie();
  EXPECT_DOUBLE_EQ(best.expected_revenue, 0.0);
}

TEST(OracleSearchTest, BeatsEveryManualAssignment) {
  auto grid = GridPartition::Make(Rect{0, 0, 20, 10}, 1, 2).ValueOrDie();
  DemandOracle oracle = TableOneOracle(2);
  std::vector<Task> tasks = {MakeTask(grid, 0, {2, 5}, 1.5),
                             MakeTask(grid, 1, {12, 5}, 3.0)};
  std::vector<Worker> workers = {MakeWorker(grid, 0, {5, 5}, 20.0)};
  MarketSnapshot snap(&grid, 0, std::move(tasks), std::move(workers));
  auto ladder = PriceLadder::FromPrices({1.0, 2.0, 3.0}).ValueOrDie();
  auto best = OracleSearch(snap, oracle, ladder).ValueOrDie();
  for (double pa : ladder.prices()) {
    for (double pb : ladder.prices()) {
      const double v =
          ExpectedRevenueOfPrices(snap, oracle, {pa, pb});
      ASSERT_LE(v, best.expected_revenue + 1e-12)
          << "(" << pa << "," << pb << ") beats the 'optimal' result";
    }
  }
}

TEST(OracleSearchTest, ReadsTheSnapshotGraphWithoutBuilding) {
  // The graph depends only on geometry, never on prices; the odometer loop
  // over price combinations reads the snapshot's graph, which the snapshot
  // built once at construction, before the counter is read.
  auto grid = GridPartition::Make(Rect{0, 0, 20, 10}, 1, 2).ValueOrDie();
  DemandOracle oracle = TableOneOracle(2);
  std::vector<Task> tasks = {MakeTask(grid, 0, {2, 5}, 1.5),
                             MakeTask(grid, 1, {12, 5}, 3.0),
                             MakeTask(grid, 2, {4, 5}, 2.0)};
  std::vector<Worker> workers = {MakeWorker(grid, 0, {5, 5}, 20.0),
                                 MakeWorker(grid, 1, {15, 5}, 6.0)};
  MarketSnapshot snap(&grid, 0, std::move(tasks), std::move(workers));
  auto ladder = PriceLadder::FromPrices({1.0, 2.0, 3.0}).ValueOrDie();

  const int64_t before = BipartiteGraph::TotalBuildCount();
  ASSERT_TRUE(OracleSearch(snap, oracle, ladder).ok());
  const int64_t builds = BipartiteGraph::TotalBuildCount() - before;
  // 2 busy grids x 3 rungs = 9 price combinations, and no build at all.
  EXPECT_EQ(builds, 0);
}

TEST(OracleSearchTest, PoolBackedSearchIsBitIdenticalAcrossThreadCounts) {
  // The odometer is sharded into fixed contiguous index ranges and reduced
  // in shard order with lowest-combination-index tie-breaks, so the best
  // prices AND the best revenue are bit-identical for any pool size — and
  // identical to the serial sweep, since every combination's value is
  // computed by the same code on private scratch.
  auto grid = GridPartition::Make(Rect{0, 0, 40, 10}, 1, 4).ValueOrDie();
  DemandOracle oracle = TableOneOracle(4);
  std::vector<Task> tasks;
  std::vector<Worker> workers;
  Rng rng(23);
  for (int i = 0; i < 10; ++i) {
    const Point o{rng.NextDouble(0, 40), rng.NextDouble(0, 10)};
    tasks.push_back(MakeTask(grid, i, o, rng.NextDouble(0.5, 4.0)));
  }
  for (int i = 0; i < 5; ++i) {
    const Point l{rng.NextDouble(0, 40), rng.NextDouble(0, 10)};
    workers.push_back(MakeWorker(grid, i, l, rng.NextDouble(5.0, 15.0)));
  }
  MarketSnapshot snap(&grid, 0, std::move(tasks), std::move(workers));
  auto ladder = PriceLadder::FromPrices({1.0, 2.0, 3.0}).ValueOrDie();

  const auto serial = OracleSearch(snap, oracle, ladder).ValueOrDie();
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const auto parallel =
        OracleSearch(snap, oracle, ladder, &pool).ValueOrDie();
    EXPECT_EQ(parallel.expected_revenue, serial.expected_revenue)
        << threads << " threads";
    EXPECT_EQ(parallel.grid_prices, serial.grid_prices)
        << threads << " threads";
  }
}

TEST(OracleSearchTest, PoolSurvivesReuseAcrossInvocations) {
  // One pool backs many sweeps (the experiment runner's usage pattern); no
  // state may leak from one invocation into the next.
  auto grid = GridPartition::Make(Rect{0, 0, 20, 10}, 1, 2).ValueOrDie();
  DemandOracle oracle = TableOneOracle(2);
  std::vector<Task> tasks = {MakeTask(grid, 0, {2, 5}, 1.5),
                             MakeTask(grid, 1, {12, 5}, 3.0)};
  std::vector<Worker> workers = {MakeWorker(grid, 0, {5, 5}, 20.0)};
  MarketSnapshot snap(&grid, 0, std::move(tasks), std::move(workers));
  std::vector<Task> other_tasks = {MakeTask(grid, 0, {3, 5}, 2.5)};
  MarketSnapshot other(&grid, 0, std::move(other_tasks), {});
  auto ladder = PriceLadder::FromPrices({1.0, 2.0, 3.0}).ValueOrDie();

  ThreadPool pool(4);
  const auto first = OracleSearch(snap, oracle, ladder, &pool).ValueOrDie();
  // A differently-shaped sweep in between must not perturb a rerun.
  ASSERT_TRUE(OracleSearch(other, oracle, ladder, &pool).ok());
  const auto second = OracleSearch(snap, oracle, ladder, &pool).ValueOrDie();
  EXPECT_EQ(first.expected_revenue, second.expected_revenue);
  EXPECT_EQ(first.grid_prices, second.grid_prices);
}

TEST(OracleSearchTest, PoolBackedSearchReadsTheSnapshotGraph) {
  // Sharding the odometer must not reintroduce per-combination (or even
  // per-shard) graph builds: every shard reads the snapshot's graph.
  auto grid = GridPartition::Make(Rect{0, 0, 20, 10}, 1, 2).ValueOrDie();
  DemandOracle oracle = TableOneOracle(2);
  std::vector<Task> tasks = {MakeTask(grid, 0, {2, 5}, 1.5),
                             MakeTask(grid, 1, {12, 5}, 3.0),
                             MakeTask(grid, 2, {4, 5}, 2.0)};
  std::vector<Worker> workers = {MakeWorker(grid, 0, {5, 5}, 20.0),
                                 MakeWorker(grid, 1, {15, 5}, 6.0)};
  MarketSnapshot snap(&grid, 0, std::move(tasks), std::move(workers));
  auto ladder = PriceLadder::FromPrices({1.0, 2.0, 3.0}).ValueOrDie();

  ThreadPool pool(4);
  const int64_t before = BipartiteGraph::TotalBuildCount();
  ASSERT_TRUE(OracleSearch(snap, oracle, ladder, &pool).ok());
  EXPECT_EQ(BipartiteGraph::TotalBuildCount() - before, 0);
}

TEST(OracleSearchTest, RefusesOversizedInstances) {
  auto grid = GridPartition::Make(Rect{0, 0, 10, 10}, 1, 1).ValueOrDie();
  DemandOracle oracle = TableOneOracle(1);
  std::vector<Task> tasks;
  for (int i = 0; i < 26; ++i) {
    tasks.push_back(MakeTask(grid, i, {5, 5}, 1.0));
  }
  MarketSnapshot snap(&grid, 0, std::move(tasks), {});
  auto ladder = PriceLadder::FromPrices({1.0, 2.0}).ValueOrDie();
  EXPECT_FALSE(OracleSearch(snap, oracle, ladder).ok());
}

TEST(OracleSearchTest, RefusesHugePriceSpaces) {
  auto grid = GridPartition::Make(Rect{0, 0, 100, 100}, 10, 10).ValueOrDie();
  DemandOracle oracle = TableOneOracle(100);
  std::vector<Task> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back(
        MakeTask(grid, i, {5.0 + 10.0 * (i % 10), 5.0 + 10.0 * (i / 10)},
                 1.0));
  }
  MarketSnapshot snap(&grid, 0, std::move(tasks), {});
  auto ladder = PriceLadder::Make(1.0, 5.0, 0.1).ValueOrDie();  // 17 rungs
  EXPECT_FALSE(OracleSearch(snap, oracle, ladder).ok());
}

}  // namespace
}  // namespace maps
