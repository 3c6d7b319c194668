#include "sim/scenario_fuzzer.h"

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../service/replay_test_util.h"
#include "geo/region_partition.h"
#include "service/replay_log.h"
#include "sim/workload.h"

namespace maps {
namespace {

using testing_util::ReadReplayEvents;

ScenarioSpec SpecByName(const std::string& name) {
  for (const ScenarioSpec& spec : DefaultScenarioMatrix()) {
    if (spec.name == name) return spec;
  }
  ADD_FAILURE() << "no scenario named " << name;
  return ScenarioSpec{};
}

TEST(ScenarioFuzzerTest, SameSpecAndSeedGiveByteIdenticalLogs) {
  for (const ScenarioSpec& spec : DefaultScenarioMatrix()) {
    SCOPED_TRACE(spec.name);
    std::ostringstream first, second;
    ASSERT_TRUE(WriteScenarioLog(spec, 42, first).ok());
    ASSERT_TRUE(WriteScenarioLog(spec, 42, second).ok());
    EXPECT_EQ(first.str(), second.str());

    std::ostringstream other_seed;
    ASSERT_TRUE(WriteScenarioLog(spec, 43, other_seed).ok());
    EXPECT_NE(first.str(), other_seed.str());
  }
}

TEST(ScenarioFuzzerTest, CleanLogsParseStrictly) {
  for (const ScenarioSpec& spec : DefaultScenarioMatrix()) {
    SCOPED_TRACE(spec.name);
    std::ostringstream log;
    ASSERT_TRUE(WriteScenarioLog(spec, 1, log).ok());
    std::istringstream in(log.str());
    auto events = ReadReplayEvents(in);
    ASSERT_TRUE(events.ok()) << events.status().ToString();
    EXPECT_GT(events.ValueOrDie().size(), 0u);
  }
}

TEST(ScenarioFuzzerTest, WorkloadIsDeterministicAndValid) {
  const ScenarioSpec spec = SpecByName("baseline");
  const Workload a = BuildScenarioWorkload(spec, 7).ValueOrDie();
  const Workload b = BuildScenarioWorkload(spec, 7).ValueOrDie();
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  ASSERT_EQ(a.workers.size(), b.workers.size());
  ASSERT_EQ(a.valuations.size(), b.valuations.size());
  for (size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].origin.x, b.tasks[i].origin.x);
    EXPECT_EQ(a.tasks[i].distance, b.tasks[i].distance);
    EXPECT_EQ(a.valuations[i], b.valuations[i]);
  }
  EXPECT_TRUE(ValidateWorkload(a).ok());
  EXPECT_EQ(a.name, "fuzz:baseline:family=baseline:seed=7");
  EXPECT_EQ(a.num_periods, spec.num_periods);
}

TEST(ScenarioFuzzerTest, FlashSurgeMultipliesTaskVolumeInsideTheWindow) {
  const ScenarioSpec spec = SpecByName("flash_surge_x6");
  const Workload w = BuildScenarioWorkload(spec, 5).ValueOrDie();
  std::map<int32_t, int> per_period;
  for (const Task& t : w.tasks) ++per_period[t.period];
  int min_inside = 1 << 30, max_outside = 0;
  for (const auto& [period, count] : per_period) {
    const bool inside = period >= spec.surge_begin &&
                        period < spec.surge_begin + spec.surge_len;
    if (inside) {
      min_inside = std::min(min_inside, count);
    } else {
      max_outside = std::max(max_outside, count);
    }
  }
  // x6 volume with +/-25% jitter: even the weakest surge period carries at
  // least 3x the strongest quiet period.
  EXPECT_GT(min_inside, 3 * max_outside)
      << "surge min " << min_inside << " vs quiet max " << max_outside;
}

TEST(ScenarioFuzzerTest, RegionChurnBandWorkersAllRetireAtTheChurn) {
  const ScenarioSpec spec = SpecByName("region_churn_south");
  const Workload w = BuildScenarioWorkload(spec, 5).ValueOrDie();
  const double band_top = spec.extent * spec.churn_region_rows / spec.grid_rows;
  int band_workers = 0;
  for (const Worker& worker : w.workers) {
    if (worker.period < spec.churn_period && worker.location.y < band_top) {
      ++band_workers;
      EXPECT_EQ(worker.period + worker.duration, spec.churn_period)
          << "worker " << worker.id << " outlives the churn";
    }
  }
  // The 0.7 band bias must actually have concentrated supply there.
  EXPECT_GT(band_workers, static_cast<int>(w.workers.size()) / 3);
}

TEST(ScenarioFuzzerTest, BoundaryHeavyConcentratesLoadOnSeamCells) {
  const ScenarioSpec spec = SpecByName("boundary_heavy_k2");
  const Workload w = BuildScenarioWorkload(spec, 5).ValueOrDie();
  const RegionPartition partition =
      RegionPartition::Make(w.grid, spec.num_regions).ValueOrDie();
  int boundary_tasks = 0;
  for (const Task& t : w.tasks) {
    if (partition.IsBoundaryGrid(t.grid)) ++boundary_tasks;
  }
  int boundary_workers = 0;
  for (const Worker& worker : w.workers) {
    if (partition.IsBoundaryGrid(worker.grid)) ++boundary_workers;
  }
  // 85% biased placement plus uniform spillover: well above half of the
  // load must sit on the seam (expectation ~0.92 for the 4x4/K=2 grid).
  EXPECT_GT(boundary_tasks, static_cast<int>(w.tasks.size()) * 3 / 4);
  EXPECT_GT(boundary_workers, static_cast<int>(w.workers.size()) * 3 / 4);
}

TEST(ScenarioFuzzerTest, ChurnStormCapsEveryWorkerLifetime) {
  const ScenarioSpec spec = SpecByName("churn_storm");
  const Workload w = BuildScenarioWorkload(spec, 5).ValueOrDie();
  for (const Worker& worker : w.workers) {
    EXPECT_EQ(worker.duration, spec.churn_storm_duration);
  }
}

TEST(ScenarioFuzzerTest, TrueDemandShiftsExactlyAtTheDriftPeriod) {
  const ScenarioSpec spec = SpecByName("demand_drift_down");
  const auto before = TrueDemandAt(spec, spec.drift_period - 1);
  const auto at = TrueDemandAt(spec, spec.drift_period);
  // mu drops by 1.2, so acceptance at a mid price must fall.
  EXPECT_GT(before->AcceptRatio(2.5), at->AcceptRatio(2.5));
  // The workload oracle carries the PRE-drift world.
  const Workload w = BuildScenarioWorkload(spec, 3).ValueOrDie();
  EXPECT_EQ(w.oracle.TrueAcceptRatio(0, 2.5), before->AcceptRatio(2.5));
}

TEST(ScenarioFuzzerTest, CorruptionModeInjectsEveryNthLineAndIsSkippable) {
  const ScenarioSpec spec = SpecByName("baseline");
  std::ostringstream clean, corrupt;
  ASSERT_TRUE(WriteScenarioLog(spec, 9, clean).ok());
  ASSERT_TRUE(WriteScenarioLog(spec, 9, corrupt, /*inject_malformed_every=*/3)
                  .ok());

  // Strict mode must refuse the corrupted log...
  {
    std::istringstream in(corrupt.str());
    EXPECT_FALSE(ReadReplayEvents(in).ok());
  }
  // ...while skip_bad_events recovers exactly the clean event sequence and
  // counts every injected line.
  std::istringstream clean_in(clean.str());
  const auto clean_events = ReadReplayEvents(clean_in).ValueOrDie();
  std::istringstream corrupt_in(corrupt.str());
  ReplayLoadOptions options;
  options.skip_bad_events = true;
  ReplayLoadStats stats;
  const auto recovered =
      ReadReplayEvents(corrupt_in, options, &stats).ValueOrDie();
  EXPECT_EQ(recovered.size(), clean_events.size());
  EXPECT_EQ(stats.lines_skipped,
            static_cast<int64_t>(clean_events.size()) / 3);
  EXPECT_EQ(stats.events_loaded, static_cast<int64_t>(recovered.size()));
}

TEST(ScenarioFuzzerTest, DefaultMatrixCoversFiveAdversarialFamilies) {
  const auto& matrix = DefaultScenarioMatrix();
  ASSERT_EQ(matrix.size(), 6u);
  std::set<std::string> names;
  std::set<ScenarioSpec::Family> families;
  for (const ScenarioSpec& spec : matrix) {
    SCOPED_TRACE(spec.name);
    EXPECT_TRUE(names.insert(spec.name).second) << "duplicate name";
    EXPECT_TRUE(ValidateScenarioSpec(spec).ok());
    if (spec.family != ScenarioSpec::Family::kBaseline) {
      families.insert(spec.family);
    }
  }
  EXPECT_GE(families.size(), 5u);
}

TEST(ScenarioFuzzerTest, ValidateRejectsImpossibleSpecs) {
  ScenarioSpec spec = SpecByName("baseline");
  spec.name.clear();
  EXPECT_FALSE(ValidateScenarioSpec(spec).ok());

  spec = SpecByName("demand_drift_down");
  spec.drift_period = spec.num_periods;  // outside the horizon
  EXPECT_FALSE(ValidateScenarioSpec(spec).ok());

  spec = SpecByName("flash_surge_x6");
  spec.surge_begin = spec.num_periods - spec.surge_len + 1;
  EXPECT_FALSE(ValidateScenarioSpec(spec).ok());

  spec = SpecByName("region_churn_south");
  spec.churn_region_rows = spec.grid_rows;  // band may not cover every row
  EXPECT_FALSE(ValidateScenarioSpec(spec).ok());

  spec = SpecByName("boundary_heavy_k2");
  spec.num_regions = 1;
  EXPECT_FALSE(ValidateScenarioSpec(spec).ok());

  spec = SpecByName("churn_storm");
  spec.churn_storm_duration = 0;
  EXPECT_FALSE(ValidateScenarioSpec(spec).ok());
}

TEST(ScenarioFuzzerTest, MalformedCorpusEntriesAreAllActuallyMalformed) {
  // The corpus is the single source of truth for both the fuzzer's
  // corruption mode and the parser error tests; every entry must fail a
  // strict single-line parse with its advertised message fragment.
  const auto& corpus = MalformedReplayLineCorpus();
  ASSERT_GE(corpus.size(), 15u);
  for (const MalformedReplayLine& bad : corpus) {
    SCOPED_TRACE(bad.label);
    const auto parsed = ParseReplayEventLine(bad.line);
    ASSERT_FALSE(parsed.ok()) << bad.line;
    EXPECT_NE(parsed.status().ToString().find(bad.expect), std::string::npos)
        << "error was: " << parsed.status().ToString();
  }
}

}  // namespace
}  // namespace maps
