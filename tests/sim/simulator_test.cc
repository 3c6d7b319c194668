#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "pricing/maps.h"
#include "sim/synthetic.h"
#include "util/thread_pool.h"

namespace maps {
namespace {

using testing_util::MakeTask;
using testing_util::MakeWorker;

/// Prices every grid at a fixed value; optionally lies about the vector
/// size to exercise the simulator's defenses.
class FixedPriceStrategy : public PricingStrategy {
 public:
  explicit FixedPriceStrategy(double price, bool wrong_size = false)
      : price_(price), wrong_size_(wrong_size) {}

  std::string name() const override { return "Fixed"; }

  Status PriceRound(const MarketSnapshot& snapshot,
                    std::vector<double>* grid_prices) override {
    grid_prices->assign(
        wrong_size_ ? snapshot.num_grids() + 1 : snapshot.num_grids(),
        price_);
    ++rounds_;
    return Status::OK();
  }

  void ObserveFeedback(const MarketSnapshot&, const std::vector<double>&,
                       const std::vector<bool>& accepted) override {
    for (bool a : accepted) feedback_ += a ? 1 : 0;
  }

  int rounds() const { return rounds_; }
  int accepted_seen() const { return feedback_; }

 private:
  double price_;
  bool wrong_size_;
  int rounds_ = 0;
  int feedback_ = 0;
};

Workload TinyWorkload(std::vector<double> valuations) {
  auto grid = GridPartition::Make(Rect{0, 0, 10, 10}, 1, 1).ValueOrDie();
  DemandOracle oracle = testing_util::TableOneOracle(1);
  Workload w(grid, std::move(oracle));
  w.name = "tiny";
  w.num_periods = 2;
  // Three tasks in period 0 with distances 3, 2, 1; one worker reaching all.
  w.tasks = {MakeTask(w.grid, 0, {5, 5}, 3.0, 0),
             MakeTask(w.grid, 1, {5, 6}, 2.0, 0),
             MakeTask(w.grid, 2, {6, 5}, 1.0, 0)};
  w.valuations = std::move(valuations);
  w.workers = {MakeWorker(w.grid, 0, {5, 5}, 5.0, 0)};
  return w;
}

TEST(SimulatorTest, RevenueIsMaxWeightOverAcceptedTasks) {
  // Valuations {1, 3, 3} at price 2: tasks 1 and 2 accept (v >= p), task 0
  // rejects. One worker serves the heavier accepted task: d=2, revenue 4.
  Workload w = TinyWorkload({1.0, 3.0, 3.0});
  FixedPriceStrategy fixed(2.0);
  auto r = RunSimulation(w, &fixed).ValueOrDie();
  EXPECT_DOUBLE_EQ(r.total_revenue, 2.0 * 2.0);
  EXPECT_EQ(r.num_tasks, 3);
  EXPECT_EQ(r.num_accepted, 2);
  EXPECT_EQ(r.num_matched, 1);
  EXPECT_EQ(fixed.accepted_seen(), 2);
}

TEST(SimulatorTest, AcceptanceRuleIsVGreaterEqualPrice) {
  // Valuation exactly at the price accepts (v >= p).
  Workload w = TinyWorkload({2.0, 1.99, 0.5});
  FixedPriceStrategy fixed(2.0);
  auto r = RunSimulation(w, &fixed).ValueOrDie();
  EXPECT_EQ(r.num_accepted, 1);
  EXPECT_DOUBLE_EQ(r.total_revenue, 3.0 * 2.0);  // task 0, d=3
}

TEST(SimulatorTest, SingleUseWorkerServesOnce) {
  // Two periods, one task each, one single-use worker: only period 0's task
  // is served.
  auto grid = GridPartition::Make(Rect{0, 0, 10, 10}, 1, 1).ValueOrDie();
  Workload w(grid, testing_util::TableOneOracle(1));
  w.num_periods = 2;
  w.tasks = {MakeTask(w.grid, 0, {5, 5}, 2.0, 0),
             MakeTask(w.grid, 1, {5, 5}, 2.0, 1)};
  w.valuations = {5.0, 5.0};
  w.workers = {MakeWorker(w.grid, 0, {5, 5}, 5.0, 0)};
  FixedPriceStrategy fixed(1.0);
  auto r = RunSimulation(w, &fixed).ValueOrDie();
  EXPECT_EQ(r.num_matched, 1);
  EXPECT_DOUBLE_EQ(r.total_revenue, 2.0);
}

TEST(SimulatorTest, TurnaroundWorkerServesAgainAfterRide) {
  // Ride takes ceil(2/1) = 2 periods: matched in period 0, free again in
  // period 2, serving the second task.
  auto grid = GridPartition::Make(Rect{0, 0, 10, 10}, 1, 1).ValueOrDie();
  Workload w(grid, testing_util::TableOneOracle(1));
  w.num_periods = 4;
  w.lifecycle.single_use = false;
  w.lifecycle.speed = 1.0;
  Task t0 = MakeTask(w.grid, 0, {5, 5}, 2.0, 0);
  t0.destination = {7, 5};
  Task t1 = MakeTask(w.grid, 1, {7, 5}, 1.0, 2);
  Task t_blocked = MakeTask(w.grid, 2, {5, 5}, 1.0, 1);  // worker busy
  w.tasks = {t0, t_blocked, t1};
  w.tasks[1].id = 1;
  w.tasks[2].id = 2;
  std::swap(w.tasks[1], w.tasks[1]);
  w.valuations = {5.0, 5.0, 5.0};
  Worker ww = MakeWorker(w.grid, 0, {5, 5}, 5.0, 0);
  ww.duration = 100;
  w.workers = {ww};
  FixedPriceStrategy fixed(1.0);
  auto r = RunSimulation(w, &fixed).ValueOrDie();
  // t0 (d=2) and t1 (d=1) are served; the period-1 task finds no worker.
  EXPECT_EQ(r.num_matched, 2);
  EXPECT_DOUBLE_EQ(r.total_revenue, 2.0 + 1.0);
}

TEST(SimulatorTest, WorkerRetiresAfterDuration) {
  auto grid = GridPartition::Make(Rect{0, 0, 10, 10}, 1, 1).ValueOrDie();
  Workload w(grid, testing_util::TableOneOracle(1));
  w.num_periods = 10;
  w.lifecycle.single_use = false;
  w.lifecycle.speed = 1.0;
  // Worker enters at period 0 with duration 3: gone from period 3 onward.
  Worker ww = MakeWorker(w.grid, 0, {5, 5}, 5.0, 0);
  ww.duration = 3;
  w.workers = {ww};
  w.tasks = {MakeTask(w.grid, 0, {5, 5}, 1.0, 5)};
  w.valuations = {5.0};
  FixedPriceStrategy fixed(1.0);
  auto r = RunSimulation(w, &fixed).ValueOrDie();
  EXPECT_EQ(r.num_matched, 0);
  EXPECT_DOUBLE_EQ(r.total_revenue, 0.0);
}

TEST(SimulatorTest, ConservationInvariants) {
  SyntheticConfig cfg;
  cfg.num_workers = 100;
  cfg.num_tasks = 400;
  cfg.num_periods = 20;
  cfg.grid_rows = 4;
  cfg.grid_cols = 4;
  cfg.seed = 5;
  // (Using the synthetic generator here gives a non-trivial instance.)
  Workload w = GenerateSynthetic(cfg).ValueOrDie();
  FixedPriceStrategy fixed(2.0);
  SimOptions opts;
  opts.collect_per_period = true;
  auto r = RunSimulation(w, &fixed, opts).ValueOrDie();
  EXPECT_EQ(r.num_tasks, 400);
  EXPECT_LE(r.num_matched, r.num_accepted);
  EXPECT_LE(r.num_accepted, r.num_tasks);
  EXPECT_LE(r.num_matched, 100);  // single-use workers
  double revenue = 0.0;
  int64_t matched = 0;
  for (const auto& ps : r.per_period) {
    EXPECT_LE(ps.num_matched, ps.num_accepted);
    EXPECT_LE(ps.num_accepted, ps.num_tasks);
    EXPECT_LE(ps.num_matched, ps.num_available_workers);
    revenue += ps.revenue;
    matched += ps.num_matched;
  }
  EXPECT_NEAR(revenue, r.total_revenue, 1e-9);
  EXPECT_EQ(matched, r.num_matched);
}

TEST(SimulatorTest, DeterministicRuns) {
  SyntheticConfig cfg;
  cfg.num_workers = 50;
  cfg.num_tasks = 200;
  cfg.num_periods = 10;
  cfg.grid_rows = 3;
  cfg.grid_cols = 3;
  cfg.seed = 12;
  Workload w = GenerateSynthetic(cfg).ValueOrDie();
  FixedPriceStrategy f1(2.0), f2(2.0);
  auto r1 = RunSimulation(w, &f1).ValueOrDie();
  auto r2 = RunSimulation(w, &f2).ValueOrDie();
  EXPECT_DOUBLE_EQ(r1.total_revenue, r2.total_revenue);
  EXPECT_EQ(r1.num_matched, r2.num_matched);
}

TEST(SimulatorMcPoolBackedTest, McDiagnosticDeterministicAcrossThreadCounts) {
  // The Monte-Carlo expected-revenue diagnostic samples period t's worlds
  // from counter streams (mc_seed + t, world): the metric must be identical
  // with no pool and with 1/2/8-thread pools, and must not perturb the
  // simulation itself.
  SyntheticConfig cfg;
  cfg.num_workers = 50;
  cfg.num_tasks = 200;
  cfg.num_periods = 10;
  cfg.grid_rows = 3;
  cfg.grid_cols = 3;
  cfg.seed = 12;
  Workload w = GenerateSynthetic(cfg).ValueOrDie();

  FixedPriceStrategy base_strategy(2.0);
  auto base = RunSimulation(w, &base_strategy).ValueOrDie();
  EXPECT_DOUBLE_EQ(base.mc_expected_revenue, 0.0);  // disabled by default

  SimOptions mc;
  mc.engine.mc_worlds = 500;
  FixedPriceStrategy s0(2.0);
  auto serial = RunSimulation(w, &s0, mc).ValueOrDie();
  EXPECT_GT(serial.mc_expected_revenue, 0.0);
  // The diagnostic is passive: realized outcomes match the plain run.
  EXPECT_DOUBLE_EQ(serial.total_revenue, base.total_revenue);
  EXPECT_EQ(serial.num_matched, base.num_matched);

  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    SimOptions pooled = mc;
    pooled.engine.pool = &pool;
    FixedPriceStrategy s(2.0);
    auto r = RunSimulation(w, &s, pooled).ValueOrDie();
    EXPECT_EQ(r.mc_expected_revenue, serial.mc_expected_revenue)
        << threads << " threads";
    EXPECT_DOUBLE_EQ(r.total_revenue, base.total_revenue);
  }

  // A different seed family samples different worlds; more worlds shrink
  // the gap to the realized revenue's expectation but never change the
  // realized outcomes.
  SimOptions reseeded = mc;
  reseeded.engine.mc_seed = 999;
  FixedPriceStrategy s1(2.0);
  auto r = RunSimulation(w, &s1, reseeded).ValueOrDie();
  EXPECT_NE(r.mc_expected_revenue, serial.mc_expected_revenue);
  EXPECT_DOUBLE_EQ(r.total_revenue, base.total_revenue);
}

TEST(SimulatorMcPoolBackedTest, McDiagnosticTracksExpectedRevenue) {
  // Fixed price 2 on Table-1 demand (S(2) = 0.8): with enough worlds the
  // per-period estimate approaches the analytic E[U], which for the tiny
  // workload (one worker, tasks of distance 3/2/1, all priced at 2) is
  // dominated by the best accepted task: E = 2 * E[max accepted distance].
  Workload w = TinyWorkload({5.0, 5.0, 5.0});  // everyone accepts price 2
  SimOptions mc;
  mc.engine.mc_worlds = 20000;
  FixedPriceStrategy s(2.0);
  auto r = RunSimulation(w, &s, mc).ValueOrDie();
  // P(accept) = 0.8 each; E[max accepted d] = 3*0.8 + 2*0.2*0.8 +
  // 1*0.04*0.8 = 2.752; times price 2 = 5.504.
  EXPECT_NEAR(r.mc_expected_revenue, 5.504, 0.1);
  // Realized revenue with all-accepting valuations: worker takes d=3 at
  // price 2.
  EXPECT_DOUBLE_EQ(r.total_revenue, 6.0);
}

TEST(SimulatorTest, HigherValuationsNeverReduceFixedPriceRevenue) {
  // With all valuations raised above the price, every task accepts.
  Workload lo = TinyWorkload({1.0, 1.0, 1.0});
  Workload hi = TinyWorkload({5.0, 5.0, 5.0});
  FixedPriceStrategy f1(2.0), f2(2.0);
  const double rev_lo = RunSimulation(lo, &f1).ValueOrDie().total_revenue;
  const double rev_hi = RunSimulation(hi, &f2).ValueOrDie().total_revenue;
  EXPECT_LE(rev_lo, rev_hi);
  EXPECT_DOUBLE_EQ(rev_hi, 3.0 * 2.0);  // heaviest accepted task
}

TEST(SimulatorTest, RejectsNullStrategyAndBadPriceVector) {
  Workload w = TinyWorkload({1.0, 1.0, 1.0});
  EXPECT_FALSE(RunSimulation(w, nullptr).ok());
  FixedPriceStrategy liar(2.0, /*wrong_size=*/true);
  auto r = RunSimulation(w, &liar);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

/// Prices one designated grid high and the rest low.
class SurgeOneGridStrategy : public PricingStrategy {
 public:
  explicit SurgeOneGridStrategy(GridId hot) : hot_(hot) {}
  std::string name() const override { return "SurgeOne"; }
  Status PriceRound(const MarketSnapshot& snapshot,
                    std::vector<double>* grid_prices) override {
    grid_prices->assign(snapshot.num_grids(), 1.0);
    (*grid_prices)[hot_] = 5.0;
    return Status::OK();
  }

 private:
  GridId hot_;
};

TEST(SimulatorTest, RepositioningDriftsIdleWorkersTowardSurge) {
  // 2x2 grid; all workers start in cell 0; cell 3 surges every period.
  // With reposition_prob = 1 every idle worker steps toward the surge via
  // the 8-neighborhood each period.
  auto grid = GridPartition::Make(Rect{0, 0, 20, 20}, 2, 2).ValueOrDie();
  Workload w(grid, testing_util::TableOneOracle(4));
  w.num_periods = 6;
  w.lifecycle.reposition_prob = 1.0;
  for (int i = 0; i < 8; ++i) {
    w.workers.push_back(MakeWorker(w.grid, i, {2.0 + 0.2 * i, 2.0}, 3.0, 0));
  }
  // One task at the end inside the surged cell, reachable only if workers
  // migrated there (origin is far from cell 0).
  Task late = MakeTask(w.grid, 0, {15.0, 15.0}, 2.0, 5);
  w.tasks = {late};
  w.valuations = {5.0};  // accepts the surge price
  SurgeOneGridStrategy strategy(3);
  auto r = RunSimulation(w, &strategy).ValueOrDie();
  // Without migration no worker could reach (15,15) (radius 3 from ~(2,2));
  // with it the task is served at the surge price.
  EXPECT_EQ(r.num_matched, 1);
  EXPECT_DOUBLE_EQ(r.total_revenue, 2.0 * 5.0);
}

TEST(SimulatorTest, RepositioningOffKeepsWorkersPut) {
  auto grid = GridPartition::Make(Rect{0, 0, 20, 20}, 2, 2).ValueOrDie();
  Workload w(grid, testing_util::TableOneOracle(4));
  w.num_periods = 6;
  w.lifecycle.reposition_prob = 0.0;
  for (int i = 0; i < 8; ++i) {
    w.workers.push_back(MakeWorker(w.grid, i, {2.0 + 0.2 * i, 2.0}, 3.0, 0));
  }
  Task late = MakeTask(w.grid, 0, {15.0, 15.0}, 2.0, 5);
  w.tasks = {late};
  w.valuations = {5.0};
  SurgeOneGridStrategy strategy(3);
  auto r = RunSimulation(w, &strategy).ValueOrDie();
  EXPECT_EQ(r.num_matched, 0);
  EXPECT_DOUBLE_EQ(r.total_revenue, 0.0);
}

TEST(SimulatorTest, RepositioningIsDeterministic) {
  SyntheticConfig cfg;
  cfg.num_workers = 80;
  cfg.num_tasks = 300;
  cfg.num_periods = 15;
  cfg.grid_rows = 3;
  cfg.grid_cols = 3;
  cfg.seed = 77;
  Workload w = GenerateSynthetic(cfg).ValueOrDie();
  w.lifecycle.reposition_prob = 0.4;
  FixedPriceStrategy f1(2.0), f2(2.0);
  auto r1 = RunSimulation(w, &f1).ValueOrDie();
  auto r2 = RunSimulation(w, &f2).ValueOrDie();
  EXPECT_DOUBLE_EQ(r1.total_revenue, r2.total_revenue);
  EXPECT_EQ(r1.num_matched, r2.num_matched);
}

TEST(SimulatorTest, StrategySeesEveryNonEmptyPeriod) {
  Workload w = TinyWorkload({1.0, 1.0, 1.0});
  // Period 1 has no tasks but the (unmatched at price 99) worker remains
  // available, so the strategy is still consulted.
  FixedPriceStrategy fixed(99.0);
  auto r = RunSimulation(w, &fixed).ValueOrDie();
  EXPECT_DOUBLE_EQ(r.total_revenue, 0.0);
  EXPECT_EQ(fixed.rounds(), 2);
}

// ---------------------------------------------------------------------------
// Pool-backed runs must be bit-identical to the serial path at every thread
// count, per-period.
// ---------------------------------------------------------------------------

/// Deterministic fields of a run, compared exactly across configurations.
struct RunDigest {
  double total_revenue = 0.0;
  int64_t num_tasks = 0;
  int64_t num_accepted = 0;
  int64_t num_matched = 0;
  std::vector<std::pair<int32_t, double>> per_period;  // (period, revenue)
  std::vector<int32_t> available;                      // per recorded period

  bool operator==(const RunDigest& other) const {
    return total_revenue == other.total_revenue &&
           num_tasks == other.num_tasks &&
           num_accepted == other.num_accepted &&
           num_matched == other.num_matched &&
           per_period == other.per_period && available == other.available;
  }
};

RunDigest RunMapsSimulation(const Workload& w, ThreadPool* pool) {
  MapsOptions opts;
  Maps strategy(opts);
  SimOptions options;
  options.collect_per_period = true;
  options.engine.pool = pool;
  auto r = RunSimulation(w, &strategy, options).ValueOrDie();
  RunDigest digest;
  digest.total_revenue = r.total_revenue;
  digest.num_tasks = r.num_tasks;
  digest.num_accepted = r.num_accepted;
  digest.num_matched = r.num_matched;
  for (const PeriodStats& ps : r.per_period) {
    digest.per_period.push_back({ps.period, ps.revenue});
    digest.available.push_back(ps.num_available_workers);
  }
  return digest;
}

TEST(SimulatorPoolBackedTest, PipelinedPeriodsBitIdenticalAcrossThreads) {
  SyntheticConfig cfg;
  cfg.num_workers = 60;
  cfg.num_tasks = 400;
  cfg.num_periods = 20;
  cfg.grid_rows = 3;
  cfg.grid_cols = 3;
  cfg.seed = 31;
  Workload w = GenerateSynthetic(cfg).ValueOrDie();
  w.lifecycle.reposition_prob = 0.3;  // exercise the sequential RNG too

  const RunDigest serial = RunMapsSimulation(w, nullptr);
  ASSERT_GT(serial.total_revenue, 0.0);
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_TRUE(RunMapsSimulation(w, &pool) == serial)
        << threads << " threads";
  }
}

TEST(SimulatorPoolBackedTest, PipelineHandlesEmptyAndSkippedPeriods) {
  // Sparse horizon: most periods have no tasks, several have no workers
  // either (skipped entirely); the snapshot a skipped period leaves behind
  // must not leak into later periods.
  Workload w = TinyWorkload({5.0, 5.0, 5.0});
  w.num_periods = 6;
  FixedPriceStrategy serial_s(2.0), pooled_s(2.0);
  SimOptions serial_opts;
  serial_opts.collect_per_period = true;
  auto serial = RunSimulation(w, &serial_s, serial_opts).ValueOrDie();

  ThreadPool pool(2);
  SimOptions pooled_opts = serial_opts;
  pooled_opts.engine.pool = &pool;
  auto pooled = RunSimulation(w, &pooled_s, pooled_opts).ValueOrDie();

  EXPECT_DOUBLE_EQ(pooled.total_revenue, serial.total_revenue);
  EXPECT_EQ(pooled.num_matched, serial.num_matched);
  ASSERT_EQ(pooled.per_period.size(), serial.per_period.size());
  for (size_t i = 0; i < serial.per_period.size(); ++i) {
    EXPECT_EQ(pooled.per_period[i].period, serial.per_period[i].period);
    EXPECT_DOUBLE_EQ(pooled.per_period[i].revenue,
                     serial.per_period[i].revenue);
  }
}

TEST(SimulatorTest, MemoryBytesCountsTheSnapshotAndIsStable) {
  // The engine rebuilds one snapshot per period, reusing its storage, so
  // the peak platform footprint must cover the larger period's 100 tasks
  // even though the 80-task period closed last. And like the
  // strategy-side peak_round_bytes guard, repeated identical runs — and a
  // pooled run — must report the identical peak.
  auto grid = GridPartition::Make(Rect{0, 0, 10, 10}, 1, 1).ValueOrDie();
  Workload w(grid, testing_util::TableOneOracle(1));
  w.num_periods = 2;
  for (int i = 0; i < 180; ++i) {
    const int32_t period = i < 100 ? 0 : 1;
    w.tasks.push_back(MakeTask(w.grid, i, {5, 5}, 2.0, period));
    w.valuations.push_back(5.0);
  }
  w.workers = {MakeWorker(w.grid, 0, {5, 5}, 5.0, 0)};

  FixedPriceStrategy f1(2.0);
  auto r1 = RunSimulation(w, &f1).ValueOrDie();
  EXPECT_GE(r1.memory_bytes, 100 * sizeof(Task));

  FixedPriceStrategy f2(2.0);
  auto r2 = RunSimulation(w, &f2).ValueOrDie();
  EXPECT_EQ(r2.memory_bytes, r1.memory_bytes)
      << "identical runs must report the identical peak";

  ThreadPool pool(2);
  SimOptions pooled;
  pooled.engine.pool = &pool;
  FixedPriceStrategy f3(2.0);
  auto r3 = RunSimulation(w, &f3, pooled).ValueOrDie();
  EXPECT_EQ(r3.memory_bytes, r1.memory_bytes)
      << "a pool adds no snapshot";
}

}  // namespace
}  // namespace maps
