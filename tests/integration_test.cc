// End-to-end integration: all five strategies of Sec. 5.1 run the full
// pipeline (generate -> warm up -> price T periods -> account revenue) on
// miniature versions of the paper's workloads.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "pricing/maps.h"
#include "sim/beijing.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "sim/synthetic.h"

namespace maps {
namespace {

SyntheticConfig MiniSynthetic(uint64_t seed) {
  SyntheticConfig cfg;
  cfg.num_workers = 120;
  cfg.num_tasks = 600;
  cfg.num_periods = 30;
  cfg.grid_rows = 4;
  cfg.grid_cols = 4;
  cfg.worker_radius = 20.0;
  cfg.seed = seed;
  return cfg;
}

std::map<std::string, SimulationResult> RunAll(const Workload& w) {
  std::map<std::string, SimulationResult> out;
  PricingConfig cfg;
  auto strategies = DefaultStrategies(cfg);
  for (size_t s = 0; s < strategies.size(); ++s) {
    auto strategy = strategies[s].make();
    SimOptions opts;
    opts.warmup_stream = 50 + s;
    out[strategies[s].name] =
        RunSimulation(w, strategy.get(), opts).ValueOrDie();
  }
  return out;
}

TEST(IntegrationTest, AllStrategiesCompleteOnSynthetic) {
  Workload w = GenerateSynthetic(MiniSynthetic(1)).ValueOrDie();
  auto results = RunAll(w);
  ASSERT_EQ(results.size(), 5u);
  for (const auto& [name, r] : results) {
    EXPECT_GT(r.total_revenue, 0.0) << name;
    EXPECT_EQ(r.num_tasks, 600) << name;
    EXPECT_LE(r.num_matched, 120) << name;  // single-use workers
    EXPECT_GE(r.total_time_sec, 0.0) << name;
    EXPECT_GT(r.memory_bytes, 0u) << name;
  }
}

TEST(IntegrationTest, AllStrategiesCompleteOnBeijingSurrogate) {
  BeijingConfig cfg;
  cfg.population_scale = 0.005;
  cfg.worker_duration = 15;
  cfg.seed = 2;
  Workload w = GenerateBeijing(cfg).ValueOrDie();
  auto results = RunAll(w);
  for (const auto& [name, r] : results) {
    EXPECT_GT(r.total_revenue, 0.0) << name;
    // Turnaround lifecycle: workers can serve multiple rides.
    EXPECT_LE(r.num_matched, r.num_accepted) << name;
  }
}

TEST(IntegrationTest, MapsBeatsBasePricingUnderSupplyScarcity) {
  // The paper's headline: with limited, dependent supply MAPS out-earns the
  // unified base price. Averaged over seeds to suppress workload noise.
  double maps_total = 0.0, base_total = 0.0;
  for (uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    SyntheticConfig cfg = MiniSynthetic(seed);
    cfg.num_workers = 40;  // scarce supply: 40 workers for 600 tasks
    Workload w = GenerateSynthetic(cfg).ValueOrDie();
    auto results = RunAll(w);
    maps_total += results["MAPS"].total_revenue;
    base_total += results["BaseP"].total_revenue;
  }
  EXPECT_GT(maps_total, base_total);
}

TEST(IntegrationTest, RevenueGrowsWithWorkerCount) {
  // Fig. 6a's qualitative shape for MAPS: more workers, more revenue.
  PricingConfig pricing;
  MapsOptions opts;
  opts.pricing = pricing;
  double prev = -1.0;
  for (int workers : {30, 120, 480}) {
    SyntheticConfig cfg = MiniSynthetic(21);
    cfg.num_workers = workers;
    Workload w = GenerateSynthetic(cfg).ValueOrDie();
    Maps strategy(opts);
    const double revenue =
        RunSimulation(w, &strategy).ValueOrDie().total_revenue;
    EXPECT_GT(revenue, prev) << workers << " workers";
    prev = revenue;
  }
}

TEST(IntegrationTest, SweepHarnessProducesTables) {
  // Every default strategy earns positive revenue on both sweep points.
  PricingConfig cfg;
  const std::vector<StrategyFactory> strategies = DefaultStrategies(cfg);
  ASSERT_EQ(strategies.size(), 5u);
  for (int workers : {40, 80}) {
    SyntheticConfig scfg = MiniSynthetic(31);
    scfg.num_workers = workers;
    Workload w = GenerateSynthetic(scfg).ValueOrDie();
    for (size_t s = 0; s < strategies.size(); ++s) {
      std::unique_ptr<PricingStrategy> strategy = strategies[s].make();
      SimOptions options;
      options.warmup_stream = 101 + s;  // independent probe randomness
      const SimulationResult r =
          RunSimulation(w, strategy.get(), options).ValueOrDie();
      EXPECT_GT(r.total_revenue, 0.0)
          << strategies[s].name << ", " << workers << " workers";
    }
  }
}

}  // namespace
}  // namespace maps
