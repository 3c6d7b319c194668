// Contract suite: properties EVERY pricing strategy must satisfy,
// parameterized over the full Sec. 5.1 lineup. Guards the PricingStrategy
// interface against regressions in any single implementation.

#include <gtest/gtest.h>

#include "../test_util.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "sim/synthetic.h"

namespace maps {
namespace {

PricingConfig ContractPricing() {
  PricingConfig cfg;
  cfg.alpha = 0.5;
  return cfg;
}

class StrategyContractTest : public ::testing::TestWithParam<size_t> {
 protected:
  StrategyContractTest()
      : grid_(GridPartition::Make(Rect{0, 0, 40, 40}, 4, 4).ValueOrDie()),
        oracle_(testing_util::TableOneOracle(grid_.num_cells(), 21)) {}

  std::unique_ptr<PricingStrategy> MakeStrategy() {
    return DefaultStrategies(ContractPricing())[GetParam()].make();
  }

  std::unique_ptr<PricingStrategy> MakeWarmStrategy() {
    auto s = MakeStrategy();
    DemandOracle history = oracle_.Fork(GetParam());
    EXPECT_TRUE(s->Warmup(grid_, &history).ok());
    return s;
  }

  GridPartition grid_;
  DemandOracle oracle_;
};

TEST_P(StrategyContractTest, NameIsNonEmptyAndStable) {
  auto s = MakeStrategy();
  const std::string name = s->name();
  EXPECT_FALSE(name.empty());
  EXPECT_EQ(s->name(), name);
}

TEST_P(StrategyContractTest, PriceVectorSizedToGridAndBounded) {
  auto s = MakeWarmStrategy();
  Rng rng(31 + GetParam());
  for (int round = 0; round < 8; ++round) {
    MarketSnapshot snap =
        testing_util::RandomSnapshot(grid_, rng, 18, 7, 2.0, 15.0);
    std::vector<double> prices;
    ASSERT_TRUE(s->PriceRound(snap, &prices).ok());
    ASSERT_EQ(static_cast<int>(prices.size()), grid_.num_cells());
    for (double p : prices) {
      ASSERT_GE(p, ContractPricing().p_min) << s->name();
      ASSERT_LE(p, ContractPricing().p_max) << s->name();
    }
  }
}

TEST_P(StrategyContractTest, DeterministicGivenIdenticalHistory) {
  std::vector<double> first, second;
  for (std::vector<double>* out : {&first, &second}) {
    auto s = MakeWarmStrategy();
    Rng rng(77);
    MarketSnapshot snap =
        testing_util::RandomSnapshot(grid_, rng, 15, 6, 2.0, 12.0);
    ASSERT_TRUE(s->PriceRound(snap, out).ok());
  }
  EXPECT_EQ(first, second);
}

TEST_P(StrategyContractTest, ToleratesEmptyMarketsAndFeedback) {
  auto s = MakeWarmStrategy();
  MarketSnapshot empty(&grid_, 0, {}, {});
  std::vector<double> prices;
  ASSERT_TRUE(s->PriceRound(empty, &prices).ok());
  ASSERT_EQ(static_cast<int>(prices.size()), grid_.num_cells());
  s->ObserveFeedback(empty, prices, {});  // must not crash

  Rng rng(5);
  MarketSnapshot snap =
      testing_util::RandomSnapshot(grid_, rng, 10, 5, 2.0, 12.0);
  ASSERT_TRUE(s->PriceRound(snap, &prices).ok());
  std::vector<bool> all_reject(snap.tasks().size(), false);
  s->ObserveFeedback(snap, prices, all_reject);
  ASSERT_TRUE(s->PriceRound(snap, &prices).ok());
}

TEST_P(StrategyContractTest, SurvivesManyFeedbackRounds) {
  auto s = MakeWarmStrategy();
  Rng rng(11 + GetParam());
  for (int round = 0; round < 60; ++round) {
    MarketSnapshot snap =
        testing_util::RandomSnapshot(grid_, rng, 12, 5, 2.0, 12.0);
    std::vector<double> prices;
    ASSERT_TRUE(s->PriceRound(snap, &prices).ok());
    std::vector<bool> accepted(snap.tasks().size());
    for (size_t i = 0; i < accepted.size(); ++i) {
      const int g = snap.tasks()[i].grid;
      accepted[i] = rng.NextBernoulli(oracle_.TrueAcceptRatio(g, prices[g]));
    }
    s->ObserveFeedback(snap, prices, accepted);
  }
  EXPECT_GT(s->MemoryFootprintBytes(), 0u);
}

TEST_P(StrategyContractTest, FullSimulationEarnsRevenue) {
  SyntheticConfig cfg;
  cfg.num_workers = 80;
  cfg.num_tasks = 400;
  cfg.num_periods = 20;
  cfg.grid_rows = 4;
  cfg.grid_cols = 4;
  cfg.worker_radius = 25.0;
  cfg.seed = 31;
  Workload w = GenerateSynthetic(cfg).ValueOrDie();
  auto s = MakeStrategy();
  auto r = RunSimulation(w, s.get()).ValueOrDie();
  EXPECT_GT(r.total_revenue, 0.0) << s->name();
  EXPECT_LE(r.num_matched, r.num_accepted);
  EXPECT_GE(r.warmup_time_sec, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyContractTest, ::testing::Range<size_t>(0, 5),
    [](const ::testing::TestParamInfo<size_t>& param_info) {
      return DefaultStrategies(PricingConfig{})[param_info.param].name;
    });

}  // namespace
}  // namespace maps
