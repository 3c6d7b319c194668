#include "service/sharded_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../invariants.h"
#include "../test_util.h"
#include "geo/region_partition.h"
#include "rng/random.h"
#include "sharded_test_util.h"
#include "util/thread_pool.h"

namespace maps {
namespace {

using testing_util::CellLocalStrategy;
using testing_util::MakeTask;
using testing_util::MakeWorker;

// ---------------------------------------------------------------------------
// Scripted event streams: one pre-generated sequence drives the serial
// monolith and every sharded configuration, so any divergence is the
// engine's, never the generator's.

struct PeriodScript {
  std::vector<Worker> workers;
  std::vector<WorkerId> removals;
  std::vector<Task> tasks;
  std::vector<double> valuations;                 // aligned with tasks
  std::vector<std::pair<TaskId, bool>> accept_bits;
};

template <typename Engine>
std::vector<PeriodOutcome> Drive(const std::vector<PeriodScript>& script,
                                 Engine* engine) {
  std::vector<PeriodOutcome> outs;
  PeriodOutcome out;
  testing_util::InvariantTracker invariants("Drive");
  for (const PeriodScript& p : script) {
    for (const Worker& w : p.workers) {
      const Status s = engine->AddWorker(w);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    for (WorkerId id : p.removals) {
      const Status ignored = engine->RemoveWorker(id);
      (void)ignored;  // scripted removals include deliberate unknown ids
    }
    for (size_t i = 0; i < p.tasks.size(); ++i) {
      const Status s = engine->SubmitTask(p.tasks[i], p.valuations[i]);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    for (const auto& [task, accepted] : p.accept_bits) {
      EXPECT_TRUE(engine->ObserveAcceptance(task, accepted).ok());
    }
    const Status s = engine->ClosePeriod(&out);
    EXPECT_TRUE(s.ok()) << s.ToString();
    invariants.Check(out, &p.tasks);
    outs.push_back(out);
  }
  return outs;
}

void ExpectOutcomesBitIdentical(const std::vector<PeriodOutcome>& ref,
                                const std::vector<PeriodOutcome>& got,
                                const std::string& label) {
  ASSERT_EQ(ref.size(), got.size()) << label;
  for (size_t t = 0; t < ref.size(); ++t) {
    SCOPED_TRACE(label + " period " + std::to_string(t));
    const PeriodOutcome& a = ref[t];
    const PeriodOutcome& b = got[t];
    EXPECT_EQ(a.period, b.period);
    EXPECT_EQ(a.skipped, b.skipped);
    EXPECT_EQ(a.prices, b.prices);  // exact: bit-identical quotes
    EXPECT_EQ(a.accepted, b.accepted);
    ASSERT_EQ(a.matches.size(), b.matches.size());
    for (size_t i = 0; i < a.matches.size(); ++i) {
      EXPECT_EQ(a.matches[i].task, b.matches[i].task) << "match " << i;
      EXPECT_EQ(a.matches[i].worker, b.matches[i].worker) << "match " << i;
      EXPECT_EQ(a.matches[i].revenue, b.matches[i].revenue) << "match " << i;
    }
    EXPECT_EQ(a.revenue, b.revenue);  // exact: same FP fold order
    EXPECT_EQ(a.num_tasks, b.num_tasks);
    EXPECT_EQ(a.num_available_workers, b.num_available_workers);
    EXPECT_TRUE(a.rejections == b.rejections);
  }
}

/// A worker whose reach disc stays strictly inside one band for EVERY
/// partition under test (boundary rows at y = 25, 50, 75 on the extent-100
/// grid) can never see a foreign task, so the sharded close has nothing to
/// stitch and must agree with the monolith bit for bit.
bool CrossesNoBoundary(const Point& loc, double radius) {
  for (double line : {25.0, 50.0, 75.0}) {
    if (std::fabs(loc.y - line) <= radius + 0.5) return false;
  }
  return true;
}

std::vector<PeriodScript> MakeBoundaryFreeScript(const GridPartition& grid,
                                                 int num_periods,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<PeriodScript> script(num_periods);
  WorkerId next_worker = 1;
  auto add_workers = [&](PeriodScript* p, int n) {
    while (n > 0) {
      const Point loc{rng.NextDouble(0.0, 100.0), rng.NextDouble(0.0, 100.0)};
      const double radius = rng.NextDouble(2.0, 8.0);
      if (!CrossesNoBoundary(loc, radius)) continue;  // rejection sample
      p->workers.push_back(MakeWorker(grid, next_worker++, loc, radius));
      --n;
    }
  };
  add_workers(&script[0], 40);
  if (num_periods > 5) add_workers(&script[5], 10);
  for (int t = 0; t < num_periods; ++t) {
    for (int i = 0; i < 8; ++i) {
      const Point o{rng.NextDouble(0.0, 100.0), rng.NextDouble(0.0, 100.0)};
      script[t].tasks.push_back(
          MakeTask(grid, t * 1000 + i, o, rng.NextDouble(0.5, 5.0)));
      script[t].valuations.push_back(rng.NextDouble(1.0, 6.0));
    }
    // An explicit platform-observed decision overriding one valuation, plus
    // an orphan bit nobody submitted — both must be counted identically.
    script[t].accept_bits.push_back({t * 1000 + 0, t % 2 == 0});
    script[t].accept_bits.push_back({-77, true});
    if (t == 3) {
      script[t].removals.push_back(2);       // a live worker signs off
      script[t].removals.push_back(999999);  // an unknown id, counted
    }
  }
  return script;
}

// The engine keeps non-owning pointers into the run, so everything it
// points at is heap-allocated (moving the struct must not invalidate them).
struct ShardedRun {
  std::unique_ptr<RegionPartition> partition;
  std::vector<std::unique_ptr<CellLocalStrategy>> strategies;
  std::unique_ptr<ShardedMarketEngine> engine;
};

ShardedRun MakeShardedRun(const GridPartition& grid, int k,
                          const EngineOptions& options) {
  ShardedRun run;
  run.partition = std::make_unique<RegionPartition>(
      RegionPartition::Make(grid, k).ValueOrDie());
  std::vector<PricingStrategy*> raw;
  for (int i = 0; i < k; ++i) {
    run.strategies.push_back(std::make_unique<CellLocalStrategy>());
    raw.push_back(run.strategies.back().get());
  }
  run.engine = std::make_unique<ShardedMarketEngine>(
      &grid, run.partition.get(), std::move(raw), options);
  return run;
}

TEST(ShardedEquivalenceTest, BoundaryFreeShardingIsBitIdenticalToMonolith) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 8, 8).ValueOrDie();
  const std::vector<PeriodScript> script =
      MakeBoundaryFreeScript(grid, 20, /*seed=*/1234);

  EngineOptions base;
  base.lifecycle.single_use = true;
  base.lifecycle.reposition_prob = 0.0;
  base.mc_worlds = 0;

  CellLocalStrategy reference_strategy;
  MarketEngine reference(&grid, &reference_strategy, base);
  const std::vector<PeriodOutcome> ref = Drive(script, &reference);

  // Sanity: the script must exercise a non-trivial market.
  double total_revenue = 0.0;
  size_t total_matches = 0;
  for (const PeriodOutcome& o : ref) {
    total_revenue += o.revenue;
    total_matches += o.matches.size();
  }
  ASSERT_GT(total_matches, 10u);
  ASSERT_GT(total_revenue, 0.0);

  for (int k : {1, 2, 4}) {
    for (int threads : {0, 2, 8}) {
      SCOPED_TRACE("K=" + std::to_string(k) +
                   " threads=" + std::to_string(threads));
      std::unique_ptr<ThreadPool> pool;
      EngineOptions options = base;
      if (threads > 0) {
        pool = std::make_unique<ThreadPool>(threads);
        options.pool = pool.get();
      }
      ShardedRun run = MakeShardedRun(grid, k, options);
      const std::vector<PeriodOutcome> got = Drive(script, run.engine.get());
      ExpectOutcomesBitIdentical(
          ref, got,
          "K=" + std::to_string(k) + " threads=" + std::to_string(threads));
      EXPECT_EQ(run.engine->current_period(), 20);
      EXPECT_EQ(run.engine->num_live_workers(), reference.num_live_workers());
    }
  }
}

TEST(ShardedEquivalenceTest, SingleRegionMatchesMonolithEvenWithBoundaryWorkers) {
  // K = 1 has no boundary cells at all, so even workers whose discs would
  // cross the K > 1 seams shard equivalently.
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 4, 4).ValueOrDie();
  Rng rng(99);
  std::vector<PeriodScript> script(8);
  for (int i = 0; i < 20; ++i) {
    const Point loc{rng.NextDouble(0.0, 100.0), rng.NextDouble(0.0, 100.0)};
    script[0].workers.push_back(
        MakeWorker(grid, i + 1, loc, rng.NextDouble(10.0, 40.0)));
  }
  for (int t = 0; t < 8; ++t) {
    for (int i = 0; i < 6; ++i) {
      const Point o{rng.NextDouble(0.0, 100.0), rng.NextDouble(0.0, 100.0)};
      script[t].tasks.push_back(
          MakeTask(grid, t * 100 + i, o, rng.NextDouble(0.5, 5.0)));
      script[t].valuations.push_back(rng.NextDouble(1.0, 6.0));
    }
  }

  EngineOptions options;
  options.lifecycle.single_use = true;
  CellLocalStrategy reference_strategy;
  MarketEngine reference(&grid, &reference_strategy, options);
  const std::vector<PeriodOutcome> ref = Drive(script, &reference);

  ShardedRun run = MakeShardedRun(grid, 1, options);
  const std::vector<PeriodOutcome> got = Drive(script, run.engine.get());
  ExpectOutcomesBitIdentical(ref, got, "K=1 unfiltered");
}

// ---------------------------------------------------------------------------
// Boundary stitch. Geometry used throughout: 4x4 grid over [0,100]^2
// (cell side 25), K = 2 — region 0 owns rows 0-1 (y < 50), region 1 rows
// 2-3; rows 1 and 2 are the boundary band around the y = 50 seam.

TEST(ShardedStitchTest, ServesAcceptedTaskAcrossTheSeam) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 4, 4).ValueOrDie();
  EngineOptions options;
  options.lifecycle.single_use = true;
  ShardedRun run = MakeShardedRun(grid, 2, options);
  ShardedMarketEngine& engine = *run.engine;

  // The only worker lives just above the seam, in region 1, with a disc
  // reaching well into region 0.
  ASSERT_TRUE(engine.AddWorker(MakeWorker(grid, 1, {50, 55}, 20)).ok());
  // The task is in region 0, where no worker exists; its origin is within
  // the region-1 worker's reach.
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 10, {50, 45}, 3.0), 100.0).ok());

  PeriodOutcome out;
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());
  EXPECT_FALSE(out.skipped);
  ASSERT_EQ(out.accepted, std::vector<TaskId>{10});
  ASSERT_EQ(out.matches.size(), 1u);
  EXPECT_EQ(out.matches[0].task, 10);
  EXPECT_EQ(out.matches[0].worker, 1);
  EXPECT_EQ(out.matches[0].revenue, 3.0 * 2.0);  // distance * base quote
  EXPECT_EQ(out.revenue, 6.0);
  // Single-use: the stitched worker is consumed like any matched worker.
  EXPECT_EQ(engine.num_live_workers(), 0);

  // Next period the same geometry has nobody left to stitch.
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 11, {50, 45}, 3.0), 100.0).ok());
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());
  ASSERT_EQ(out.accepted, std::vector<TaskId>{11});
  EXPECT_TRUE(out.matches.empty());
}

TEST(ShardedStitchTest, TurnaroundMigrationMovesOwnershipWithTheRide) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 4, 4).ValueOrDie();
  EngineOptions options;
  options.lifecycle.single_use = false;
  options.lifecycle.speed = 10.0;  // distance 25 => a 3-period ride
  ShardedRun run = MakeShardedRun(grid, 2, options);
  ShardedMarketEngine& engine = *run.engine;

  ASSERT_TRUE(engine.AddWorker(MakeWorker(grid, 1, {50, 55}, 20)).ok());
  Task task;
  task.id = 10;
  task.origin = {50, 45};
  task.destination = {50, 20};  // row 0: the ride ends deep in region 0
  task.distance = 25.0;
  task.grid = grid.CellOf(task.origin);
  ASSERT_TRUE(engine.SubmitTask(task, 100.0).ok());

  PeriodOutcome out;
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());
  ASSERT_EQ(out.matches.size(), 1u);
  EXPECT_EQ(out.matches[0].worker, 1);
  EXPECT_EQ(out.matches[0].revenue, 25.0 * 2.0);
  // Ownership migrated with the ride: region 0 now holds the worker.
  EXPECT_EQ(engine.region_engine(0)->num_live_workers(), 1);
  EXPECT_EQ(engine.region_engine(1)->num_live_workers(), 0);

  // Removal routes through the updated owner table; the worker is still on
  // its 3-period ride, so this is an honored-but-counted busy removal.
  ASSERT_TRUE(engine.RemoveWorker(1).ok());
  EXPECT_EQ(engine.rejections().busy_worker_removals, 1);
  EXPECT_EQ(engine.rejections().unknown_worker_removals, 0);
}

TEST(ShardedStitchTest, TurnaroundStitchWithinOwnBandDispatchesInPlace) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 4, 4).ValueOrDie();
  EngineOptions options;
  options.lifecycle.single_use = false;
  options.lifecycle.speed = 1000.0;  // every ride takes one period
  ShardedRun run = MakeShardedRun(grid, 2, options);
  ShardedMarketEngine& engine = *run.engine;

  ASSERT_TRUE(engine.AddWorker(MakeWorker(grid, 1, {50, 55}, 20)).ok());
  Task task;
  task.id = 10;
  task.origin = {50, 45};      // region 0: only the stitch can serve it
  task.destination = {50, 60};  // ... but the ride ends back home in region 1
  task.distance = 15.0;
  task.grid = grid.CellOf(task.origin);
  ASSERT_TRUE(engine.SubmitTask(task, 100.0).ok());

  PeriodOutcome out;
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());
  ASSERT_EQ(out.matches.size(), 1u);
  EXPECT_EQ(out.matches[0].worker, 1);
  // No migration: region 1 kept the worker.
  EXPECT_EQ(engine.region_engine(1)->num_live_workers(), 1);
  EXPECT_EQ(engine.region_engine(0)->num_live_workers(), 0);

  // One period later the worker is idle at the destination and serves a
  // region-1 task through the ordinary per-region matching.
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 20, {50, 60}, 2.0), 100.0).ok());
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());
  ASSERT_EQ(out.matches.size(), 1u);
  EXPECT_EQ(out.matches[0].task, 20);
  EXPECT_EQ(out.matches[0].worker, 1);
}

TEST(ShardedStitchTest, RepatriationMovesIdleWorkersToTheOwningRegion) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 4, 4).ValueOrDie();
  EngineOptions options;
  options.lifecycle.single_use = false;
  options.lifecycle.speed = 1000.0;
  ShardedRun run = MakeShardedRun(grid, 2, options);
  ShardedMarketEngine& engine = *run.engine;

  // An interior region-0 match whose ride ends deep inside region 1: the
  // stitch never sees it, the repatriation sweep must.
  ASSERT_TRUE(engine.AddWorker(MakeWorker(grid, 1, {20, 20}, 30)).ok());
  Task task;
  task.id = 10;
  task.origin = {30, 30};
  task.destination = {30, 80};  // row 3, region 1
  task.distance = 25.0;
  task.grid = grid.CellOf(task.origin);
  ASSERT_TRUE(engine.SubmitTask(task, 100.0).ok());

  PeriodOutcome out;
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());
  ASSERT_EQ(out.matches.size(), 1u);
  // Still region 0's worker while riding (home-until-reconciled).
  EXPECT_EQ(engine.region_engine(0)->num_live_workers(), 1);

  // The close after the ride finds the worker idle in a foreign cell and
  // hands it to region 1.
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());
  EXPECT_EQ(engine.region_engine(0)->num_live_workers(), 0);
  EXPECT_EQ(engine.region_engine(1)->num_live_workers(), 1);

  // From then on region 1 serves it like any of its own.
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 20, {30, 80}, 2.0), 100.0).ok());
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());
  ASSERT_EQ(out.matches.size(), 1u);
  EXPECT_EQ(out.matches[0].worker, 1);

  // Removal reaches the region that now holds the worker.
  ASSERT_TRUE(engine.RemoveWorker(1).ok());
  EXPECT_EQ(engine.region_engine(1)->num_live_workers(), 0);
  EXPECT_EQ(engine.rejections().unknown_worker_removals, 0);

  // The id stays burned run-wide: re-adding it in region 0, which no longer
  // holds it, is still a duplicate.
  EXPECT_EQ(engine.AddWorker(MakeWorker(grid, 1, {20, 20}, 30)).code(),
            StatusCode::kAlreadyExists);
}

TEST(ShardedStitchTest, SkippedRegionRepostsItsCachedQuotes) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 4, 4).ValueOrDie();
  EngineOptions options;
  options.lifecycle.single_use = true;
  ShardedRun run = MakeShardedRun(grid, 2, options);
  ShardedMarketEngine& engine = *run.engine;

  const GridId region0_cell = grid.CellOf({20, 30});
  const GridId region1_cell = grid.CellOf({75, 80});

  // Period 0: region 1 is empty, so it skips and its cells carry the
  // pre-first-close cache (zeros); region 0 quotes fresh.
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 10, {20, 30}, 1.0), 0.01).ok());
  PeriodOutcome out;
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());
  EXPECT_FALSE(out.skipped);
  EXPECT_EQ(out.prices[region0_cell], 2.0);
  EXPECT_EQ(out.prices[region1_cell], 0.0);

  // Period 1: region 1 prices for real (and serves one task).
  ASSERT_TRUE(engine.AddWorker(MakeWorker(grid, 1, {80, 80}, 10)).ok());
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 11, {75, 80}, 1.0), 100.0).ok());
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 12, {20, 30}, 1.0), 0.01).ok());
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());
  EXPECT_EQ(out.prices[region1_cell], 2.0);
  ASSERT_EQ(out.matches.size(), 1u);
  EXPECT_EQ(out.matches[0].task, 11);

  // Period 2: region 1 is empty again (its only worker was consumed) and
  // re-posts the period-1 cache — 2.0, not the 2.1 a fresh consult of its
  // strategy would now quote. The documented §13 divergence, pinned here.
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 13, {20, 30}, 1.0), 0.01).ok());
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());
  EXPECT_EQ(out.prices[region1_cell], 2.0);
}

// ---------------------------------------------------------------------------
// Routing-layer rejection accounting.

TEST(ShardedRoutingTest, DuplicateTaskIdsAcrossRegionsAreRejected) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 4, 4).ValueOrDie();
  ShardedRun run = MakeShardedRun(grid, 2, EngineOptions{});
  ShardedMarketEngine& engine = *run.engine;

  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 5, {20, 20}, 1.0), 3.0).ok());
  // Same id, different region: the router's period-wide id set catches it
  // even though the two region engines would each accept it.
  const Status dup = engine.SubmitTask(MakeTask(grid, 5, {20, 80}, 1.0), 3.0);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.rejections().duplicate_tasks, 1);

  PeriodOutcome out;
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());
  EXPECT_EQ(out.num_tasks, 1);
  EXPECT_EQ(out.rejections.duplicate_tasks, 1);

  // Ids may repeat across periods, exactly like the monolith.
  EXPECT_TRUE(
      engine.SubmitTask(MakeTask(grid, 5, {20, 80}, 1.0), 3.0).ok());
}

TEST(ShardedRoutingTest, UnknownRemovalsAndOrphanBitsAreCounted) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 4, 4).ValueOrDie();
  ShardedRun run = MakeShardedRun(grid, 2, EngineOptions{});
  ShardedMarketEngine& engine = *run.engine;

  EXPECT_EQ(engine.RemoveWorker(42).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.rejections().unknown_worker_removals, 1);

  // A bit for a task nobody submitted is buffered (the submission may still
  // arrive this period) and counted as an orphan only at the close.
  ASSERT_TRUE(engine.ObserveAcceptance(777, true).ok());
  EXPECT_EQ(engine.rejections().orphan_acceptances, 0);
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 1, {20, 20}, 1.0), 3.0).ok());
  PeriodOutcome out;
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());
  EXPECT_EQ(out.rejections.orphan_acceptances, 1);
  EXPECT_EQ(out.rejections.unknown_worker_removals, 1);
}

TEST(ShardedRoutingTest, WorkerIdsAreUniqueAcrossRegions) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 4, 4).ValueOrDie();
  ShardedRun run = MakeShardedRun(grid, 2, EngineOptions{});
  ShardedMarketEngine& engine = *run.engine;

  ASSERT_TRUE(engine.AddWorker(MakeWorker(grid, 1, {20, 20}, 5)).ok());
  const Status dup = engine.AddWorker(MakeWorker(grid, 1, {20, 80}, 5));
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.num_live_workers(), 1);
}

}  // namespace
}  // namespace maps
