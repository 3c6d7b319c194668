// Crash-injection recovery harness (DESIGN.md §12): run a workload through
// the engine event API, checkpoint at an adversarial period boundary, build
// a FRESH engine + strategy (no Warmup) from the checkpoint bytes, resume
// the remaining event feed, and require the resumed run to be bit-identical
// — prices, accepted ids, match assignments, revenue, and the Monte-Carlo
// expected-revenue diagnostic — to the uninterrupted run. The matrix covers
// synthetic and Beijing workloads and no-pool / 1 / 2 / 8 pool threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pricing/maps.h"
#include "service/checkpoint.h"
#include "service/market_engine.h"
#include "sim/beijing.h"
#include "sim/synthetic.h"
#include "util/thread_pool.h"

namespace maps {
namespace {

/// Forwards to an inner strategy, recording each round's prices, and — the
/// part the harness depends on — forwards SaveState/LoadState so the inner
/// learned state rides through checkpoints (the same delegation contract
/// PostprocessedStrategy implements).
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
    last_prices_ = *grid_prices;
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
  Status SaveState(StateWriter* w) const override {
    return inner_->SaveState(w);
  }
  Status LoadState(StateReader* r) override { return inner_->LoadState(r); }

  const std::vector<double>& last_prices() const { return last_prices_; }

 private:
  std::unique_ptr<PricingStrategy> inner_;
  std::vector<double> last_prices_;
};

/// Everything one non-skipped period close produces, compared bit-exactly.
struct Row {
  int32_t period = 0;
  std::vector<double> prices;
  std::vector<TaskId> accepted;
  std::vector<TaskId> match_tasks;
  std::vector<WorkerId> match_workers;
  std::vector<double> match_revenue;
  double revenue = 0.0;
  double mc_expected_revenue = 0.0;
  int32_t num_available_workers = 0;
  EngineRejectionCounters rejections;

  bool operator==(const Row& o) const {
    return period == o.period && prices == o.prices &&
           accepted == o.accepted && match_tasks == o.match_tasks &&
           match_workers == o.match_workers &&
           match_revenue == o.match_revenue && revenue == o.revenue &&
           mc_expected_revenue == o.mc_expected_revenue &&
           num_available_workers == o.num_available_workers &&
           rejections == o.rejections;
  }
};

Row MakeRow(const PeriodOutcome& outcome,
            const RecordingStrategy& strategy) {
  Row row;
  row.period = outcome.period;
  row.prices = strategy.last_prices();
  row.accepted = outcome.accepted;
  for (const MatchRecord& m : outcome.matches) {
    row.match_tasks.push_back(m.task);
    row.match_workers.push_back(m.worker);
    row.match_revenue.push_back(m.revenue);
  }
  row.revenue = outcome.revenue;
  row.mc_expected_revenue = outcome.mc_expected_revenue;
  row.num_available_workers = outcome.num_available_workers;
  row.rejections = outcome.rejections;
  return row;
}

/// Pre-sliced workload: [begin, end) task indices per period, and the first
/// worker index of each period.
struct Feed {
  const Workload* w;
  std::vector<std::pair<size_t, size_t>> task_range;
  std::vector<size_t> first_worker;

  explicit Feed(const Workload& workload) : w(&workload) {
    task_range.resize(static_cast<size_t>(w->num_periods));
    first_worker.resize(static_cast<size_t>(w->num_periods));
    size_t i = 0;
    size_t j = 0;
    for (int32_t t = 0; t < w->num_periods; ++t) {
      const size_t begin = i;
      while (i < w->tasks.size() && w->tasks[i].period == t) ++i;
      task_range[static_cast<size_t>(t)] = {begin, i};
      first_worker[static_cast<size_t>(t)] = j;
      while (j < w->workers.size() && w->workers[j].period <= t) ++j;
    }
  }

  void SubmitPeriod(MarketEngine* engine, int32_t t) const {
    const auto [begin, end] = task_range[static_cast<size_t>(t)];
    for (size_t i = begin; i < end; ++i) {
      ASSERT_TRUE(
          engine->SubmitTask(w->tasks[i], w->valuations[w->tasks[i].id]).ok());
    }
  }

  /// Runs periods [from, num_periods) on an engine whose open period is
  /// `from` and whose period-`from` tasks are already in (submitted by the
  /// previous iteration or restored from a checkpoint). When `save_at` >= 0,
  /// checkpoints at that boundary into `blob`.
  void Run(MarketEngine* engine, RecordingStrategy* strategy, int32_t from,
           int32_t save_at, std::string* blob, std::vector<Row>* rows) const {
    PeriodOutcome outcome;
    for (int32_t t = from; t < w->num_periods; ++t) {
      if (t == save_at) {
        ASSERT_TRUE(engine->SaveCheckpoint(blob).ok());
      }
      for (size_t j = first_worker[static_cast<size_t>(t)];
           j < w->workers.size() && w->workers[j].period == t; ++j) {
        ASSERT_TRUE(engine->AddWorker(w->workers[j]).ok());
      }
      ASSERT_TRUE(engine->ClosePeriod(&outcome).ok());
      if (t + 1 < w->num_periods) SubmitPeriod(engine, t + 1);
      if (!outcome.skipped) rows->push_back(MakeRow(outcome, *strategy));
    }
  }
};

EngineOptions MakeOptions(const Workload& w, ThreadPool* pool) {
  EngineOptions options;
  options.lifecycle = w.lifecycle;
  options.pool = pool;
  options.mc_worlds = 4;  // exercise the MC diagnostic through the restore
  options.mc_oracle = &w.oracle;
  return options;
}

/// The uninterrupted run, checkpointing at boundary `save_at`.
std::vector<Row> Baseline(const Feed& feed, ThreadPool* pool, int32_t save_at,
                          std::string* blob) {
  RecordingStrategy strategy(std::make_unique<Maps>(MapsOptions{}));
  MarketEngine engine(&feed.w->grid, &strategy, MakeOptions(*feed.w, pool));
  DemandOracle history = feed.w->oracle.Fork(7);
  EXPECT_TRUE(strategy.Warmup(feed.w->grid, &history).ok());
  std::vector<Row> rows;
  feed.SubmitPeriod(&engine, 0);
  feed.Run(&engine, &strategy, 0, save_at, blob, &rows);
  return rows;
}

/// The crash-recovery run: a fresh engine and a NEVER-warmed fresh strategy
/// rebuilt purely from the checkpoint bytes, resuming the remaining feed.
std::vector<Row> Resume(const Feed& feed, ThreadPool* pool,
                        const std::string& blob) {
  RecordingStrategy strategy(std::make_unique<Maps>(MapsOptions{}));
  MarketEngine engine(&feed.w->grid, &strategy, MakeOptions(*feed.w, pool));
  EXPECT_TRUE(engine.RestoreFromCheckpoint(blob).ok());
  std::vector<Row> rows;
  feed.Run(&engine, &strategy, engine.current_period(), /*save_at=*/-1,
           nullptr, &rows);
  return rows;
}

/// Baseline rows from period `from` onward.
std::vector<Row> TailOf(const std::vector<Row>& rows, int32_t from) {
  std::vector<Row> tail;
  for (const Row& row : rows) {
    if (row.period >= from) tail.push_back(row);
  }
  return tail;
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
  w.lifecycle.reposition_prob = 0.3;  // the sequential RNG must resume too
  return w;
}

Workload BeijingCase() {
  BeijingConfig cfg;
  cfg.population_scale = 0.01;
  cfg.seed = 9;
  return GenerateBeijing(cfg).ValueOrDie();
}

/// The acceptance matrix: kill/restore at a mid-horizon boundary on both
/// workloads, across no-pool/1/2/8 threads, resumes bit-identically.
TEST(RecoveryHarnessTest, RestoreAtBoundaryResumesBitIdentical) {
  for (const bool beijing : {false, true}) {
    SCOPED_TRACE(beijing ? "beijing" : "synthetic");
    const Workload w = beijing ? BeijingCase() : SyntheticCase();
    const Feed feed(w);
    const int32_t save_at = w.num_periods / 2;

    std::string blob;
    const std::vector<Row> baseline =
        Baseline(feed, nullptr, save_at, &blob);
    ASSERT_FALSE(baseline.empty());
    ASSERT_FALSE(blob.empty());
    const std::vector<Row> tail = TailOf(baseline, save_at);
    ASSERT_FALSE(tail.empty());
    // The MC diagnostic actually ran, so the comparison below is real.
    double mc_max = 0.0;
    for (const Row& row : tail) {
      mc_max = std::max(mc_max, row.mc_expected_revenue);
    }
    ASSERT_GT(mc_max, 0.0);

    EXPECT_TRUE(Resume(feed, nullptr, blob) == tail) << "no pool";
    for (const int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      EXPECT_TRUE(Resume(feed, &pool, blob) == tail) << threads << " threads";
    }
  }
}

/// Adversarial boundaries: right after the first close, and right before
/// the last. Also crosses checkpoint producers: a pool-backed baseline's
/// checkpoint restores into a no-pool engine and vice versa.
TEST(RecoveryHarnessTest, AdversarialBoundariesAndCrossConfigRestore) {
  const Workload w = SyntheticCase();
  const Feed feed(w);
  ThreadPool pool(2);

  for (const int32_t save_at : {1, w.num_periods - 1}) {
    SCOPED_TRACE(save_at);
    std::string blob;
    const std::vector<Row> baseline =
        Baseline(feed, &pool, save_at, &blob);
    const std::vector<Row> tail = TailOf(baseline, save_at);
    ASSERT_FALSE(blob.empty());

    // The checkpoint carries the open period's submitted tasks; both a
    // pool-backed and a no-pool engine must resume identically.
    EXPECT_TRUE(Resume(feed, &pool, blob) == tail);
    EXPECT_TRUE(Resume(feed, nullptr, blob) == tail);
  }

  // And a no-pool checkpoint resumes under a pool.
  std::string blob;
  const std::vector<Row> baseline = Baseline(feed, nullptr, 7, &blob);
  ThreadPool pool8(8);
  EXPECT_TRUE(Resume(feed, &pool8, blob) == TailOf(baseline, 7));
}

}  // namespace
}  // namespace maps
