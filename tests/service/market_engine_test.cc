#include "service/market_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "../invariants.h"
#include "../test_util.h"
#include "obs/metrics.h"
#include "pricing/maps.h"
#include "sim/beijing.h"
#include "sim/simulator.h"
#include "sim/synthetic.h"
#include "util/thread_pool.h"

namespace maps {
namespace {

using testing_util::MakeTask;
using testing_util::MakeWorker;

/// Forwards to an inner strategy and records every round's price vector, so
/// a simulator run and a hand-fed engine run can be compared price-by-price.
class RecordingStrategy : public PricingStrategy {
 public:
  explicit RecordingStrategy(std::unique_ptr<PricingStrategy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  Status Warmup(const GridPartition& grid, DemandOracle* history) override {
    return inner_->Warmup(grid, history);
  }
  void LendPool(ThreadPool* pool) override { inner_->LendPool(pool); }
  Status PriceRound(const MarketSnapshot& snapshot,
                    std::vector<double>* grid_prices) override {
    MAPS_RETURN_NOT_OK(inner_->PriceRound(snapshot, grid_prices));
    rounds_.push_back(*grid_prices);
    return Status::OK();
  }
  void ObserveFeedback(const MarketSnapshot& snapshot,
                       const std::vector<double>& grid_prices,
                       const std::vector<bool>& accepted) override {
    inner_->ObserveFeedback(snapshot, grid_prices, accepted);
  }
  size_t MemoryFootprintBytes() const override {
    return inner_->MemoryFootprintBytes();
  }

  const std::vector<std::vector<double>>& rounds() const { return rounds_; }

 private:
  std::unique_ptr<PricingStrategy> inner_;
  std::vector<std::vector<double>> rounds_;
};

/// Everything the equivalence matrix compares, bit-exactly.
struct Trace {
  std::vector<std::vector<double>> prices;  // one vector per priced round
  std::vector<int32_t> periods;             // recorded (non-skipped) periods
  std::vector<double> revenue;              // per recorded period
  std::vector<int32_t> accepted;
  std::vector<int32_t> matched;
  std::vector<int32_t> available;
  double total_revenue = 0.0;

  bool operator==(const Trace& other) const {
    return prices == other.prices && periods == other.periods &&
           revenue == other.revenue && accepted == other.accepted &&
           matched == other.matched && available == other.available &&
           total_revenue == other.total_revenue;
  }
};

Trace SimulatorTrace(const Workload& w, ThreadPool* pool) {
  RecordingStrategy strategy(std::make_unique<Maps>(MapsOptions{}));
  SimOptions options;
  options.collect_per_period = true;
  options.engine.pool = pool;
  auto r = RunSimulation(w, &strategy, options).ValueOrDie();
  Trace trace;
  trace.prices = strategy.rounds();
  trace.total_revenue = r.total_revenue;
  for (const PeriodStats& ps : r.per_period) {
    trace.periods.push_back(ps.period);
    trace.revenue.push_back(ps.revenue);
    trace.accepted.push_back(ps.num_accepted);
    trace.matched.push_back(ps.num_matched);
    trace.available.push_back(ps.num_available_workers);
  }
  return trace;
}

/// Feeds the workload through the raw event API — the same events the
/// replay adapter produces, but hand-rolled so the test is independent of
/// the adapter's implementation. Each period's tasks are submitted after
/// the previous close, before the period's workers are admitted.
Trace EngineTrace(const Workload& w, ThreadPool* pool) {
  RecordingStrategy strategy(std::make_unique<Maps>(MapsOptions{}));
  EngineOptions options;
  options.lifecycle = w.lifecycle;
  options.pool = pool;
  MarketEngine engine(&w.grid, &strategy, options);
  // Same warm-up stream the simulator defaults to (SimOptions default 7).
  DemandOracle history = w.oracle.Fork(7);
  EXPECT_TRUE(strategy.Warmup(w.grid, &history).ok());

  std::vector<std::pair<size_t, size_t>> range(w.num_periods);
  {
    size_t i = 0;
    for (int32_t t = 0; t < w.num_periods; ++t) {
      const size_t begin = i;
      while (i < w.tasks.size() && w.tasks[i].period == t) ++i;
      range[t] = {begin, i};
    }
  }
  const auto submit_period = [&](int32_t t) {
    for (size_t i = range[t].first; i < range[t].second; ++i) {
      EXPECT_TRUE(
          engine.SubmitTask(w.tasks[i], w.valuations[w.tasks[i].id]).ok());
    }
  };

  Trace trace;
  size_t next_entry = 0;
  PeriodOutcome outcome;
  testing_util::InvariantTracker invariants("EngineTrace");
  submit_period(0);
  for (int32_t t = 0; t < w.num_periods; ++t) {
    while (next_entry < w.workers.size() &&
           w.workers[next_entry].period == t) {
      EXPECT_TRUE(engine.AddWorker(w.workers[next_entry]).ok());
      ++next_entry;
    }
    EXPECT_TRUE(engine.ClosePeriod(&outcome).ok());
    {
      const std::vector<Task> period_tasks(
          w.tasks.begin() + static_cast<ptrdiff_t>(range[t].first),
          w.tasks.begin() + static_cast<ptrdiff_t>(range[t].second));
      invariants.Check(outcome, &period_tasks);
    }
    if (t + 1 < w.num_periods) submit_period(t + 1);
    if (outcome.skipped) continue;
    trace.periods.push_back(outcome.period);
    trace.revenue.push_back(outcome.revenue);
    trace.accepted.push_back(static_cast<int32_t>(outcome.accepted.size()));
    trace.matched.push_back(static_cast<int32_t>(outcome.matches.size()));
    trace.available.push_back(outcome.num_available_workers);
    trace.total_revenue += outcome.revenue;
    // The outcome's price copy must equal what the strategy produced.
    EXPECT_EQ(outcome.prices, strategy.rounds().back());
    // Match records must attribute exactly the period revenue.
    double attributed = 0.0;
    for (const MatchRecord& m : outcome.matches) attributed += m.revenue;
    EXPECT_DOUBLE_EQ(attributed, outcome.revenue);
  }
  trace.prices = strategy.rounds();
  return trace;
}

Workload SyntheticCase() {
  SyntheticConfig cfg;
  cfg.num_workers = 60;
  cfg.num_tasks = 400;
  cfg.num_periods = 20;
  cfg.grid_rows = 3;
  cfg.grid_cols = 3;
  cfg.seed = 31;
  Workload w = GenerateSynthetic(cfg).ValueOrDie();
  w.lifecycle.reposition_prob = 0.3;  // exercise the sequential RNG too
  return w;
}

Workload BeijingCase() {
  BeijingConfig cfg;
  cfg.population_scale = 0.01;
  cfg.seed = 9;
  return GenerateBeijing(cfg).ValueOrDie();
}

/// The tentpole contract: RunSimulation and hand-fed engine events produce
/// bit-identical prices, per-period outcomes, and revenue on synthetic and
/// Beijing workloads, across no-pool/1/2/8 threads.
TEST(EnginePoolBackedTest, EventFeedMatchesSimulatorBitIdentical) {
  for (const bool beijing : {false, true}) {
    const Workload w = beijing ? BeijingCase() : SyntheticCase();
    SCOPED_TRACE(beijing ? "beijing" : "synthetic");
    const Trace baseline = SimulatorTrace(w, nullptr);
    ASSERT_GT(baseline.total_revenue, 0.0);
    ASSERT_FALSE(baseline.prices.empty());

    EXPECT_TRUE(EngineTrace(w, nullptr) == baseline) << "no pool";
    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      EXPECT_TRUE(SimulatorTrace(w, &pool) == baseline)
          << threads << " threads, sim";
      EXPECT_TRUE(EngineTrace(w, &pool) == baseline)
          << threads << " threads, engine";
    }
  }
}

// ---------------------------------------------------------------------------
// Direct event-API semantics (no workload behind them).
// ---------------------------------------------------------------------------

/// Prices every grid at a fixed value.
class FixedPriceStrategy : public PricingStrategy {
 public:
  explicit FixedPriceStrategy(double price) : price_(price) {}
  std::string name() const override { return "Fixed"; }
  Status PriceRound(const MarketSnapshot& snapshot,
                    std::vector<double>* grid_prices) override {
    grid_prices->assign(snapshot.num_grids(), price_);
    ++rounds_;
    return Status::OK();
  }
  int rounds() const { return rounds_; }

 private:
  double price_;
  int rounds_ = 0;
};

GridPartition OneCellGrid() {
  return GridPartition::Make(Rect{0, 0, 10, 10}, 1, 1).ValueOrDie();
}

/// A pooled engine fed submitted periods puts no job on the pool when
/// neither the strategy nor the MC diagnostic asks for one: submission only
/// buffers the task, and ClosePeriod builds the period's snapshot inline.
TEST(EnginePoolBackedTest, SubmittedFeedSubmitsNoPoolWork) {
  const GridPartition grid = OneCellGrid();
  FixedPriceStrategy fixed(1.0);
  obs::MetricsRegistry registry;
  ThreadPool pool(2);
  pool.AttachMetrics(&registry);
  EngineOptions options;
  options.pool = &pool;
  options.mc_worlds = 0;
  MarketEngine engine(&grid, &fixed, options);
  ASSERT_TRUE(engine.AddWorker(MakeWorker(grid, 0, {5, 5}, 5.0, 0)).ok());

  PeriodOutcome outcome;
  for (int32_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(
        engine.SubmitTask(MakeTask(grid, 2 * t, {5, 5}, 2.0, t), 9.0).ok());
    ASSERT_TRUE(
        engine.SubmitTask(MakeTask(grid, 2 * t + 1, {5, 6}, 1.0, t), 0.5)
            .ok());
    ASSERT_TRUE(engine.ClosePeriod(&outcome).ok());
  }
  EXPECT_EQ(fixed.rounds(), 4);
  EXPECT_EQ(outcome.num_tasks, 2);  // the submitted tasks arrived
  EXPECT_EQ(registry
                .GetCounter("pool.tasks_submitted",
                            obs::Determinism::kWallClock)
                ->value(),
            0);
}

TEST(MarketEngineTest, RemoveWorkerStopsServingFromNextClose) {
  const GridPartition grid = OneCellGrid();
  FixedPriceStrategy fixed(1.0);
  EngineOptions options;
  options.lifecycle.single_use = false;
  options.lifecycle.speed = 10.0;
  MarketEngine engine(&grid, &fixed, options);

  Worker worker = MakeWorker(grid, 0, {5, 5}, 5.0, 0);
  worker.duration = 100;
  ASSERT_TRUE(engine.AddWorker(worker).ok());
  ASSERT_TRUE(engine.SubmitTask(MakeTask(grid, 0, {5, 5}, 2.0, 0), 9.0).ok());
  PeriodOutcome outcome;
  ASSERT_TRUE(engine.ClosePeriod(&outcome).ok());
  ASSERT_EQ(outcome.matches.size(), 1u);
  EXPECT_EQ(outcome.matches[0].worker, 0);
  EXPECT_EQ(engine.num_live_workers(), 1);

  // The worker signs off mid-horizon: the identical submission now goes
  // unserved, and the engine no longer counts the worker as live.
  ASSERT_TRUE(engine.RemoveWorker(0).ok());
  EXPECT_EQ(engine.num_live_workers(), 0);
  ASSERT_TRUE(engine.SubmitTask(MakeTask(grid, 1, {5, 5}, 2.0, 1), 9.0).ok());
  ASSERT_TRUE(engine.ClosePeriod(&outcome).ok());
  EXPECT_EQ(outcome.matches.size(), 0u);
  EXPECT_EQ(outcome.num_available_workers, 0);

  EXPECT_TRUE(engine.RemoveWorker(0).ok());  // idempotent
  EXPECT_TRUE(engine.RemoveWorker(99).IsNotFound());
}

TEST(MarketEngineTest, ObserveAcceptanceOverridesHiddenValuation) {
  const GridPartition grid = OneCellGrid();
  FixedPriceStrategy fixed(3.0);
  MarketEngine engine(&grid, &fixed, EngineOptions{});
  ASSERT_TRUE(engine.AddWorker(MakeWorker(grid, 0, {5, 5}, 5.0, 0)).ok());
  ASSERT_TRUE(engine.AddWorker(MakeWorker(grid, 1, {5, 5}, 5.0, 0)).ok());

  // Task 0 would decline on valuation (1 < 3) but the platform saw an
  // accept; task 1 would accept (9 >= 3) but the platform saw a decline;
  // task 2 has no valuation at all and no observed bit.
  ASSERT_TRUE(engine.SubmitTask(MakeTask(grid, 0, {5, 5}, 2.0, 0), 1.0).ok());
  ASSERT_TRUE(engine.SubmitTask(MakeTask(grid, 1, {5, 6}, 2.0, 0), 9.0).ok());
  ASSERT_TRUE(engine.SubmitTask(MakeTask(grid, 2, {6, 5}, 2.0, 0)).ok());
  ASSERT_TRUE(engine.ObserveAcceptance(0, true).ok());
  ASSERT_TRUE(engine.ObserveAcceptance(1, false).ok());

  PeriodOutcome outcome;
  ASSERT_TRUE(engine.ClosePeriod(&outcome).ok());
  ASSERT_EQ(outcome.accepted.size(), 1u);
  EXPECT_EQ(outcome.accepted[0], 0);
  ASSERT_EQ(outcome.matches.size(), 1u);
  EXPECT_EQ(outcome.matches[0].task, 0);
  EXPECT_DOUBLE_EQ(outcome.revenue, 2.0 * 3.0);

  // Decisions do not leak into the next period: the same unknown-valuation
  // submission still declines.
  ASSERT_TRUE(engine.SubmitTask(MakeTask(grid, 3, {5, 5}, 2.0, 1)).ok());
  ASSERT_TRUE(engine.ClosePeriod(&outcome).ok());
  EXPECT_TRUE(outcome.accepted.empty());
}

TEST(MarketEngineTest, DeadPeriodSkipsTheStrategy) {
  const GridPartition grid = OneCellGrid();
  FixedPriceStrategy fixed(1.0);
  MarketEngine engine(&grid, &fixed, EngineOptions{});
  PeriodOutcome outcome;
  // No tasks, no workers: skipped, strategy not consulted.
  ASSERT_TRUE(engine.ClosePeriod(&outcome).ok());
  EXPECT_TRUE(outcome.skipped);
  EXPECT_EQ(fixed.rounds(), 0);
  EXPECT_EQ(engine.current_period(), 1);
  // A worker alone makes the period live (the strategy may still quote).
  ASSERT_TRUE(engine.AddWorker(MakeWorker(grid, 0, {5, 5}, 5.0, 0)).ok());
  ASSERT_TRUE(engine.ClosePeriod(&outcome).ok());
  EXPECT_FALSE(outcome.skipped);
  EXPECT_EQ(fixed.rounds(), 1);
  EXPECT_EQ(outcome.num_tasks, 0);
}

TEST(MarketEngineTest, SubmissionGuards) {
  const GridPartition grid = OneCellGrid();
  FixedPriceStrategy fixed(1.0);
  MarketEngine engine(&grid, &fixed, EngineOptions{});
  ASSERT_TRUE(engine.AddWorker(MakeWorker(grid, 0, {5, 5}, 5.0, 0)).ok());

  // Duplicate worker ids and out-of-partition tasks are rejected.
  EXPECT_EQ(engine.AddWorker(MakeWorker(grid, 0, {5, 5}, 5.0, 0)).code(),
            StatusCode::kAlreadyExists);
  Task outside = MakeTask(grid, 9, {5, 5}, 1.0, 2);
  outside.grid = 99;
  EXPECT_FALSE(engine.SubmitTask(outside).ok());
}

/// Hardened event semantics: malformed traffic gets a defined Status and a
/// cumulative counter surfaced in every PeriodOutcome, never silence or UB.
TEST(MarketEngineTest, RejectionCountersTrackMalformedTraffic) {
  const GridPartition grid = OneCellGrid();
  FixedPriceStrategy fixed(1.0);
  EngineOptions options;
  options.lifecycle.single_use = false;
  options.lifecycle.speed = 0.1;  // long rides keep workers busy
  MarketEngine engine(&grid, &fixed, options);

  // Duplicate task id within the open period: AlreadyExists, counted, and
  // the original submission (with its valuation) survives.
  ASSERT_TRUE(engine.SubmitTask(MakeTask(grid, 0, {5, 5}, 2.0, 0), 9.0).ok());
  EXPECT_EQ(engine.SubmitTask(MakeTask(grid, 0, {6, 6}, 3.0, 0), 0.0).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.rejections().duplicate_tasks, 1);

  // Unknown worker removal: NotFound + counted.
  EXPECT_TRUE(engine.RemoveWorker(77).IsNotFound());
  EXPECT_EQ(engine.rejections().unknown_worker_removals, 1);

  // Acceptance for a task never submitted: accepted now (the submission
  // may still arrive), discarded and counted at the close.
  ASSERT_TRUE(engine.ObserveAcceptance(424242, true).ok());

  Worker worker = MakeWorker(grid, 0, {5, 5}, 5.0, 0);
  worker.duration = 100;
  ASSERT_TRUE(engine.AddWorker(worker).ok());
  PeriodOutcome outcome;
  ASSERT_TRUE(engine.ClosePeriod(&outcome).ok());
  ASSERT_EQ(outcome.matches.size(), 1u);  // the original task matched
  EXPECT_EQ(outcome.rejections.duplicate_tasks, 1);
  EXPECT_EQ(outcome.rejections.unknown_worker_removals, 1);
  EXPECT_EQ(outcome.rejections.orphan_acceptances, 1);
  EXPECT_EQ(outcome.rejections.busy_worker_removals, 0);

  // Removing the worker mid-ride is honored but counted.
  ASSERT_TRUE(engine.RemoveWorker(0).ok());
  EXPECT_EQ(engine.rejections().busy_worker_removals, 1);

  // Counters are cumulative and ride along every later outcome, including
  // a dead period's (whose pending bits are all orphans).
  ASSERT_TRUE(engine.ObserveAcceptance(5, true).ok());
  ASSERT_TRUE(engine.ObserveAcceptance(6, false).ok());
  ASSERT_TRUE(engine.ClosePeriod(&outcome).ok());
  EXPECT_TRUE(outcome.skipped);
  EXPECT_EQ(outcome.rejections.orphan_acceptances, 3);
  EXPECT_EQ(outcome.rejections.duplicate_tasks, 1);
  EXPECT_EQ(outcome.rejections.busy_worker_removals, 1);

  // A consumed acceptance bit is not an orphan; task ids may repeat across
  // periods without tripping the duplicate counter.
  ASSERT_TRUE(engine.SubmitTask(MakeTask(grid, 0, {5, 5}, 2.0, 2)).ok());
  ASSERT_TRUE(engine.ObserveAcceptance(0, true).ok());
  ASSERT_TRUE(engine.ClosePeriod(&outcome).ok());
  EXPECT_EQ(outcome.rejections.orphan_acceptances, 3);
  EXPECT_EQ(outcome.rejections.duplicate_tasks, 1);
  ASSERT_EQ(outcome.accepted.size(), 1u);
}

TEST(MarketEngineTest, NullOutcomeAndWrongPriceVectorAreErrors) {
  const GridPartition grid = OneCellGrid();
  FixedPriceStrategy fixed(1.0);
  MarketEngine engine(&grid, &fixed, EngineOptions{});
  EXPECT_FALSE(engine.ClosePeriod(nullptr).ok());

  class Liar : public PricingStrategy {
   public:
    std::string name() const override { return "Liar"; }
    Status PriceRound(const MarketSnapshot& snapshot,
                      std::vector<double>* grid_prices) override {
      grid_prices->assign(snapshot.num_grids() + 1, 1.0);
      return Status::OK();
    }
  } liar;
  MarketEngine lying_engine(&grid, &liar, EngineOptions{});
  ASSERT_TRUE(
      lying_engine.AddWorker(MakeWorker(grid, 0, {5, 5}, 5.0, 0)).ok());
  PeriodOutcome outcome;
  auto st = lying_engine.ClosePeriod(&outcome);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace maps
