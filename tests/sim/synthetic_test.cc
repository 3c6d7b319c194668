#include "sim/synthetic.h"

#include <gtest/gtest.h>

#include "../online_mean_var.h"

namespace maps {
namespace {

using testing_util::OnlineMeanVar;

SyntheticConfig SmallConfig() {
  SyntheticConfig cfg;
  cfg.num_workers = 300;
  cfg.num_tasks = 1200;
  cfg.num_periods = 50;
  cfg.grid_rows = 5;
  cfg.grid_cols = 5;
  cfg.seed = 7;
  return cfg;
}

TEST(SyntheticTest, PopulationAndStructure) {
  Workload w = GenerateSynthetic(SmallConfig()).ValueOrDie();
  EXPECT_EQ(w.tasks.size(), 1200u);
  EXPECT_EQ(w.valuations.size(), 1200u);
  EXPECT_EQ(w.workers.size(), 300u);
  EXPECT_EQ(w.num_periods, 50);
  EXPECT_EQ(w.grid.num_cells(), 25);
  EXPECT_TRUE(w.lifecycle.single_use);
  EXPECT_TRUE(ValidateWorkload(w).ok());
}

TEST(SyntheticTest, ValuationsWithinBounds) {
  Workload w = GenerateSynthetic(SmallConfig()).ValueOrDie();
  for (double v : w.valuations) {
    ASSERT_GE(v, 1.0);
    ASSERT_LE(v, 5.0);
  }
}

TEST(SyntheticTest, LocationsInsideRegion) {
  Workload w = GenerateSynthetic(SmallConfig()).ValueOrDie();
  const Rect region{0, 0, 100, 100};
  for (const Task& t : w.tasks) {
    ASSERT_TRUE(region.Contains(t.origin));
    ASSERT_TRUE(region.Contains(t.destination));
    ASSERT_NEAR(t.distance, EuclideanDistance(t.origin, t.destination),
                1e-12);
  }
  for (const Worker& ww : w.workers) {
    ASSERT_TRUE(region.Contains(ww.location));
    ASSERT_DOUBLE_EQ(ww.radius, 15.0);
  }
}

TEST(SyntheticTest, DeterministicUnderSeed) {
  Workload a = GenerateSynthetic(SmallConfig()).ValueOrDie();
  Workload b = GenerateSynthetic(SmallConfig()).ValueOrDie();
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (size_t i = 0; i < a.tasks.size(); ++i) {
    ASSERT_EQ(a.tasks[i].origin, b.tasks[i].origin);
    ASSERT_EQ(a.tasks[i].period, b.tasks[i].period);
    ASSERT_DOUBLE_EQ(a.valuations[i], b.valuations[i]);
  }
  SyntheticConfig other = SmallConfig();
  other.seed = 8;
  Workload c = GenerateSynthetic(other).ValueOrDie();
  int diff = 0;
  for (size_t i = 0; i < a.tasks.size(); ++i) {
    if (!(a.tasks[i].origin == c.tasks[i].origin)) ++diff;
  }
  EXPECT_GT(diff, 1000);
}

TEST(SyntheticTest, TemporalMeanShiftsArrivals) {
  SyntheticConfig early = SmallConfig();
  early.temporal_mu = 0.1;
  SyntheticConfig late = SmallConfig();
  late.temporal_mu = 0.9;
  Workload we = GenerateSynthetic(early).ValueOrDie();
  Workload wl = GenerateSynthetic(late).ValueOrDie();
  OnlineMeanVar me, ml;
  for (const Task& t : we.tasks) me.Add(t.period);
  for (const Task& t : wl.tasks) ml.Add(t.period);
  EXPECT_LT(me.mean() + 15.0, ml.mean());
}

TEST(SyntheticTest, SpatialMeanShiftsOrigins) {
  SyntheticConfig sw = SmallConfig();
  sw.spatial_mean = 0.1;
  SyntheticConfig ne = SmallConfig();
  ne.spatial_mean = 0.9;
  Workload a = GenerateSynthetic(sw).ValueOrDie();
  Workload b = GenerateSynthetic(ne).ValueOrDie();
  OnlineMeanVar ax, bx;
  for (const Task& t : a.tasks) ax.Add(t.origin.x);
  for (const Task& t : b.tasks) bx.Add(t.origin.x);
  EXPECT_LT(ax.mean(), 25.0);
  EXPECT_GT(bx.mean(), 75.0);
}

TEST(SyntheticTest, DemandMeanShiftsValuations) {
  SyntheticConfig cheap = SmallConfig();
  cheap.demand_mu = 1.0;
  SyntheticConfig rich = SmallConfig();
  rich.demand_mu = 3.0;
  Workload a = GenerateSynthetic(cheap).ValueOrDie();
  Workload b = GenerateSynthetic(rich).ValueOrDie();
  OnlineMeanVar va, vb;
  for (double v : a.valuations) va.Add(v);
  for (double v : b.valuations) vb.Add(v);
  EXPECT_LT(va.mean() + 0.5, vb.mean());
}

TEST(SyntheticTest, ExponentialDemandFamily) {
  SyntheticConfig cfg = SmallConfig();
  cfg.demand_family = SyntheticConfig::DemandFamily::kExponential;
  cfg.demand_rate = 1.0;
  Workload w = GenerateSynthetic(cfg).ValueOrDie();
  EXPECT_TRUE(ValidateWorkload(w).ok());
  for (double v : w.valuations) {
    ASSERT_GE(v, 1.0);
    ASSERT_LE(v, 5.0);
  }
  // Exponential demand piles mass near the lower bound.
  OnlineMeanVar acc;
  for (double v : w.valuations) acc.Add(v);
  EXPECT_LT(acc.mean(), 2.5);
}

TEST(SyntheticTest, PerGridDemandHeterogeneity) {
  Workload w = GenerateSynthetic(SmallConfig()).ValueOrDie();
  // Jittered grid means: at least two grids should price differently.
  double lo = 1e9, hi = -1e9;
  for (int g = 0; g < w.grid.num_cells(); ++g) {
    const double pm = w.oracle.model(g).MyersonPrice(1.0, 5.0);
    lo = std::min(lo, pm);
    hi = std::max(hi, pm);
  }
  EXPECT_GT(hi - lo, 0.05);
}

TEST(SyntheticTest, RejectsBadConfigs) {
  SyntheticConfig bad = SmallConfig();
  bad.num_tasks = -1;
  EXPECT_FALSE(GenerateSynthetic(bad).ok());
  bad = SmallConfig();
  bad.num_periods = 0;
  EXPECT_FALSE(GenerateSynthetic(bad).ok());
  bad = SmallConfig();
  bad.v_lo = 5.0;
  bad.v_hi = 1.0;
  EXPECT_FALSE(GenerateSynthetic(bad).ok());
}

}  // namespace
}  // namespace maps
