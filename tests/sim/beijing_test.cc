#include "sim/beijing.h"

#include <gtest/gtest.h>

#include "../online_mean_var.h"

namespace maps {
namespace {

using testing_util::OnlineMeanVar;

BeijingConfig SmallPeak() {
  BeijingConfig cfg;
  cfg.window = BeijingConfig::Window::kEveningPeak;
  cfg.population_scale = 0.01;  // ~282 workers, ~1133 tasks
  cfg.worker_duration = 15;
  cfg.seed = 3;
  return cfg;
}

TEST(BeijingTest, TableFourStructure) {
  Workload w = GenerateBeijing(SmallPeak()).ValueOrDie();
  EXPECT_EQ(w.grid.num_cells(), 80);   // 10 x 8 grid
  EXPECT_EQ(w.grid.rows(), 8);
  EXPECT_EQ(w.grid.cols(), 10);
  EXPECT_EQ(w.num_periods, 120);
  EXPECT_FALSE(w.lifecycle.single_use);
  EXPECT_TRUE(ValidateWorkload(w).ok());
  EXPECT_EQ(w.workers.size(), 282u);
  EXPECT_EQ(w.tasks.size(), 1133u);
  for (const Worker& ww : w.workers) {
    ASSERT_DOUBLE_EQ(ww.radius, 3.0);     // 3 km
    ASSERT_EQ(ww.duration, 15);
  }
}

TEST(BeijingTest, FullScalePopulationsMatchTableFour) {
  // Only counts are checked at full scale (generation is fast; simulation
  // at this size belongs to the benches).
  BeijingConfig cfg = SmallPeak();
  cfg.population_scale = 1.0;
  Workload peak = GenerateBeijing(cfg).ValueOrDie();
  EXPECT_EQ(peak.workers.size(), 28210u);
  EXPECT_EQ(peak.tasks.size(), 113372u);

  cfg.window = BeijingConfig::Window::kLateNight;
  Workload night = GenerateBeijing(cfg).ValueOrDie();
  EXPECT_EQ(night.workers.size(), 19006u);
  EXPECT_EQ(night.tasks.size(), 55659u);
}

TEST(BeijingTest, WindowsHaveDistinctTemporalShape) {
  BeijingConfig peak_cfg = SmallPeak();
  BeijingConfig night_cfg = SmallPeak();
  night_cfg.window = BeijingConfig::Window::kLateNight;
  Workload peak = GenerateBeijing(peak_cfg).ValueOrDie();
  Workload night = GenerateBeijing(night_cfg).ValueOrDie();
  OnlineMeanVar tp, tn;
  for (const Task& t : peak.tasks) tp.Add(t.period);
  for (const Task& t : night.tasks) tn.Add(t.period);
  // Late-night arrivals decay from period 0; the evening peak is centered.
  EXPECT_GT(tp.mean(), tn.mean() + 10.0);
}

TEST(BeijingTest, LateNightValuationsHigher) {
  BeijingConfig peak_cfg = SmallPeak();
  BeijingConfig night_cfg = SmallPeak();
  night_cfg.window = BeijingConfig::Window::kLateNight;
  Workload peak = GenerateBeijing(peak_cfg).ValueOrDie();
  Workload night = GenerateBeijing(night_cfg).ValueOrDie();
  OnlineMeanVar vp, vn;
  for (double v : peak.valuations) vp.Add(v);
  for (double v : night.valuations) vn.Add(v);
  EXPECT_GT(vn.mean(), vp.mean());
}

TEST(BeijingTest, DurationParameterPropagates) {
  BeijingConfig cfg = SmallPeak();
  cfg.worker_duration = 5;
  Workload w = GenerateBeijing(cfg).ValueOrDie();
  for (const Worker& ww : w.workers) ASSERT_EQ(ww.duration, 5);
}

TEST(BeijingTest, OriginsAreHotspotClustered) {
  // Origins must be markedly non-uniform: the densest grid cell should hold
  // far more than 1/G of the demand.
  Workload w = GenerateBeijing(SmallPeak()).ValueOrDie();
  std::vector<int> per_cell(w.grid.num_cells(), 0);
  for (const Task& t : w.tasks) ++per_cell[t.grid];
  const int max_cell = *std::max_element(per_cell.begin(), per_cell.end());
  EXPECT_GT(max_cell, static_cast<int>(3 * w.tasks.size()) /
                          w.grid.num_cells());
}

TEST(BeijingTest, DeterministicUnderSeed) {
  Workload a = GenerateBeijing(SmallPeak()).ValueOrDie();
  Workload b = GenerateBeijing(SmallPeak()).ValueOrDie();
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (size_t i = 0; i < a.tasks.size(); ++i) {
    ASSERT_EQ(a.tasks[i].origin, b.tasks[i].origin);
    ASSERT_DOUBLE_EQ(a.valuations[i], b.valuations[i]);
  }
}

TEST(BeijingTest, RejectsBadConfigs) {
  BeijingConfig bad = SmallPeak();
  bad.worker_duration = 0;
  EXPECT_FALSE(GenerateBeijing(bad).ok());
  bad = SmallPeak();
  bad.population_scale = 0.0;
  EXPECT_FALSE(GenerateBeijing(bad).ok());
  bad = SmallPeak();
  bad.population_scale = 2.0;
  EXPECT_FALSE(GenerateBeijing(bad).ok());
}

}  // namespace
}  // namespace maps
