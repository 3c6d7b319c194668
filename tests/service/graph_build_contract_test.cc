// One bipartite graph per close (DESIGN.md §10): the snapshot builds the
// period's graph when its workers are attached, and the pricing round, the
// Monte-Carlo diagnostic and the assignment all read that one graph. A
// dead close (no tasks, no workers) builds none. Checked through
// BipartiteGraph::TotalBuildCount for MAPS and a baseline, on a monolith
// and on a K=2 sharded deployment, where each region builds its own.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "../test_util.h"
#include "geo/region_partition.h"
#include "graph/bipartite_graph.h"
#include "pricing/base_pricing.h"
#include "pricing/maps.h"
#include "service/market_engine.h"
#include "service/sharded_engine.h"

namespace maps {
namespace {

using testing_util::MakeTask;
using testing_util::MakeWorker;
using testing_util::TableOneOracle;

struct Case {
  std::string strategy;  // "MAPS" or "BaseP"
  int regions;           // 1 = monolith
};

std::string CaseName(const Case& c) {
  return c.strategy + "_K" + std::to_string(c.regions);
}

// Keeps the parameter out of test names as raw (address-bearing) bytes.
void PrintTo(const Case& c, std::ostream* os) { *os << CaseName(c); }

std::unique_ptr<PricingStrategy> MakeWarmStrategy(const std::string& name,
                                                  const GridPartition& grid) {
  std::unique_ptr<PricingStrategy> s;
  if (name == "MAPS") {
    s = std::make_unique<Maps>(MapsOptions{});
  } else {
    s = std::make_unique<BasePricing>(PricingConfig{});
  }
  DemandOracle history = TableOneOracle(grid.num_cells(), 3);
  EXPECT_TRUE(s->Warmup(grid, &history).ok());
  return s;
}

/// A monolith or a sharded deployment behind one event interface.
class Deployment {
 public:
  Deployment(const Case& c, const GridPartition* grid,
             const DemandOracle* truth) {
    EngineOptions options;
    // The diagnostic reads the same graph, so it must not add a build.
    options.mc_worlds = 16;
    options.mc_oracle = truth;
    if (c.regions == 1) {
      strategies_.push_back(MakeWarmStrategy(c.strategy, *grid));
      monolith_ = std::make_unique<MarketEngine>(grid, strategies_[0].get(),
                                                 options);
      return;
    }
    partition_ = std::make_unique<RegionPartition>(
        RegionPartition::Make(*grid, c.regions).ValueOrDie());
    std::vector<PricingStrategy*> raw;
    for (int k = 0; k < c.regions; ++k) {
      strategies_.push_back(MakeWarmStrategy(c.strategy, *grid));
      raw.push_back(strategies_.back().get());
    }
    sharded_ = std::make_unique<ShardedMarketEngine>(grid, partition_.get(),
                                                     std::move(raw), options);
  }

  Status AddWorker(const Worker& w) {
    return monolith_ ? monolith_->AddWorker(w) : sharded_->AddWorker(w);
  }
  Status SubmitTask(const Task& t) {
    return monolith_ ? monolith_->SubmitTask(t, 4.0)
                     : sharded_->SubmitTask(t, 4.0);
  }
  Status ClosePeriod(PeriodOutcome* out) {
    return monolith_ ? monolith_->ClosePeriod(out)
                     : sharded_->ClosePeriod(out);
  }

 private:
  std::vector<std::unique_ptr<PricingStrategy>> strategies_;
  std::unique_ptr<MarketEngine> monolith_;
  std::unique_ptr<RegionPartition> partition_;
  std::unique_ptr<ShardedMarketEngine> sharded_;
};

class GraphBuildContractTest : public ::testing::TestWithParam<Case> {};

TEST_P(GraphBuildContractTest, OneBuildPerLiveClosePerEngineNoneWhenDead) {
  const Case c = GetParam();
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 4, 4).ValueOrDie();
  const DemandOracle truth = TableOneOracle(grid.num_cells(), 9);
  Deployment d(c, &grid, &truth);
  // Every live close below has tasks in both row bands, so each of the K
  // region engines builds exactly once.
  const int64_t per_live_close = c.regions;

  // Closes the open period and returns how many graphs it built.
  PeriodOutcome out;
  const auto close = [&]() -> int64_t {
    const int64_t before = BipartiteGraph::TotalBuildCount();
    EXPECT_TRUE(d.ClosePeriod(&out).ok());
    return BipartiteGraph::TotalBuildCount() - before;
  };
  const auto submit_both_bands = [&](int32_t t) {
    for (int i = 0; i < 3; ++i) {
      const TaskId id = t * 10 + i;
      const double x = 15.0 + 30 * i;
      ASSERT_TRUE(d.SubmitTask(MakeTask(grid, id, {x, 20.0}, 2.0, t)).ok());
      ASSERT_TRUE(d.SubmitTask(MakeTask(grid, id + 5, {x, 80.0}, 2.0, t)).ok());
    }
  };

  // Period 0: nothing at all — dead.
  EXPECT_EQ(close(), 0);
  EXPECT_TRUE(out.skipped);

  // Period 1: workers (gone after period 2) and tasks in both bands.
  for (int i = 0; i < 2; ++i) {
    Worker low = MakeWorker(grid, i, {30.0 + 40 * i, 20.0}, 25.0, 1);
    Worker high = MakeWorker(grid, 10 + i, {30.0 + 40 * i, 80.0}, 25.0, 1);
    low.duration = 2;
    high.duration = 2;
    ASSERT_TRUE(d.AddWorker(low).ok());
    ASSERT_TRUE(d.AddWorker(high).ok());
  }
  submit_both_bands(1);
  EXPECT_EQ(close(), per_live_close);
  EXPECT_FALSE(out.skipped);

  // Period 2: tasks only.
  submit_both_bands(2);
  EXPECT_EQ(close(), per_live_close);
  EXPECT_FALSE(out.skipped);

  // Periods 3-4: every worker retired or consumed, no tasks — dead.
  EXPECT_EQ(close(), 0);
  EXPECT_EQ(close(), 0);

  // Period 5: live again.
  submit_both_bands(5);
  EXPECT_EQ(close(), per_live_close);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndEngines, GraphBuildContractTest,
    ::testing::Values(Case{"MAPS", 1}, Case{"BaseP", 1}, Case{"MAPS", 2},
                      Case{"BaseP", 2}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return CaseName(info.param);
    });

}  // namespace
}  // namespace maps
