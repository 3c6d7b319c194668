// Chaos recovery harness for the sharded engine's failure domains
// (DESIGN.md §15): drives one scripted multi-period scenario under every
// (region, period) close-fault site and asserts, for every faulted run,
//
//   * every ClosePeriod still returns OK (a region failure degrades the
//     deployment, it no longer fails the period),
//   * the PeriodOutcome conservation invariants hold on every close,
//   * no task is lost and none is served twice: the num_tasks fold over
//     all closes plus the tasks still parked in deferral queues equals
//     the number of unique submissions, and the set of matched task ids
//     never repeats,
//   * the quarantined region recovers within the deterministic retry
//     schedule (next period for a one-shot fault),
//   * faulted runs are bit-identical across thread counts, and
//   * an UNARMED injector with failure domains enabled is bit-identical
//     to the pre-§15 engine (failure domains disabled), across pools and
//     region counts, and
//   * the exact faulted outcomes of a fixed set of plans match pinned
//     digests, so a rewind that restores the wrong state cannot pass.

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../invariants.h"
#include "../test_util.h"
#include "geo/region_partition.h"
#include "rng/random.h"
#include "service/sharded_engine.h"
#include "sharded_test_util.h"
#include "util/fault_injector.h"
#include "util/thread_pool.h"

namespace maps {
namespace {

using testing_util::CellLocalStrategy;
using testing_util::InvariantTracker;
using testing_util::MakeTask;
using testing_util::MakeWorker;

constexpr int kPeriods = 10;

struct PeriodScript {
  std::vector<Worker> workers;
  std::vector<WorkerId> removals;
  std::vector<Task> tasks;
  std::vector<double> valuations;  // aligned with tasks
  std::vector<std::pair<TaskId, bool>> accept_bits;
};

// A scenario that exercises every worker path a rewind must get right:
// boundary-crossing reach discs (stitch dispatch + turnaround migration),
// multi-period rides (adopt/extract), mid-run sign-ons and sign-offs,
// explicit accept bits.
std::vector<PeriodScript> MakeChaosScript(const GridPartition& grid,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<PeriodScript> script(kPeriods);
  WorkerId next_worker = 1;
  auto add_workers = [&](PeriodScript* p, int n) {
    for (int i = 0; i < n; ++i) {
      const Point loc{rng.NextDouble(0.0, 100.0), rng.NextDouble(0.0, 100.0)};
      p->workers.push_back(
          MakeWorker(grid, next_worker++, loc, rng.NextDouble(5.0, 18.0)));
    }
  };
  add_workers(&script[0], 24);
  add_workers(&script[3], 8);
  for (int t = 0; t < kPeriods; ++t) {
    for (int i = 0; i < 6; ++i) {
      const Point o{rng.NextDouble(0.0, 100.0), rng.NextDouble(0.0, 100.0)};
      script[t].tasks.push_back(
          MakeTask(grid, t * 1000 + i, o, rng.NextDouble(0.5, 5.0)));
      script[t].valuations.push_back(rng.NextDouble(1.0, 6.0));
    }
    script[t].accept_bits.push_back({t * 1000 + 0, t % 2 == 0});
    if (t == 4) {
      script[t].removals.push_back(3);
      script[t].removals.push_back(999999);  // unknown, counted
    }
  }
  return script;
}

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

EngineOptions ChaosOptions(bool failure_domains) {
  EngineOptions options;
  options.lifecycle.single_use = false;
  options.lifecycle.speed = 10.0;
  options.lifecycle.reposition_prob = 0.0;
  options.mc_worlds = 0;
  options.failure_domains.enabled = failure_domains;
  return options;
}

/// What one full scripted run produced, for conservation accounting and
/// cross-run diffing.
struct RunTrace {
  std::vector<PeriodOutcome> outcomes;
  int64_t submitted = 0;       // SubmitTask calls that returned OK
  int64_t deferred_at_end = 0; // tasks still parked when the run ended
  std::vector<int64_t> deferred_after_close;  // queue depth after each close
  std::vector<RegionHealth> final_health;
  EngineRejectionCounters final_rejections;
};

/// Drives the whole script, checking the PeriodOutcome invariants after
/// every close. Every ClosePeriod must return OK (with failure domains a
/// region fault degrades, it never fails the period). Because deferred
/// tasks are served at a LATER close than their submission period, the
/// invariant context gets the cumulative task table instead of the
/// period's own.
RunTrace DriveChaos(const std::vector<PeriodScript>& script,
                    ShardedMarketEngine* engine, const std::string& label) {
  RunTrace trace;
  InvariantTracker invariants(label);
  std::vector<Task> all_tasks;
  std::set<TaskId> matched_ids;
  PeriodOutcome out;
  for (const PeriodScript& p : script) {
    for (const Worker& w : p.workers) {
      const Status s = engine->AddWorker(w);
      EXPECT_TRUE(s.ok()) << label << ": " << s.ToString();
    }
    for (WorkerId id : p.removals) {
      const Status ignored = engine->RemoveWorker(id);
      (void)ignored;  // scripted removals include deliberate unknown ids
    }
    for (size_t i = 0; i < p.tasks.size(); ++i) {
      const Status s = engine->SubmitTask(p.tasks[i], p.valuations[i]);
      EXPECT_TRUE(s.ok()) << label << ": " << s.ToString();
      if (s.ok()) {
        ++trace.submitted;
        all_tasks.push_back(p.tasks[i]);
      }
    }
    for (const auto& [task, accepted] : p.accept_bits) {
      EXPECT_TRUE(engine->ObserveAcceptance(task, accepted).ok());
    }
    const Status s = engine->ClosePeriod(&out);
    EXPECT_TRUE(s.ok()) << label << " period " << engine->current_period()
                        << ": " << s.ToString();
    if (!s.ok()) return trace;  // the run is broken; stop driving it
    invariants.Check(out, &all_tasks);
    for (const MatchRecord& m : out.matches) {
      EXPECT_TRUE(matched_ids.insert(m.task).second)
          << label << ": task " << m.task << " matched twice";
    }
    trace.outcomes.push_back(out);
    trace.deferred_after_close.push_back(engine->num_deferred_tasks());
  }
  trace.deferred_at_end = engine->num_deferred_tasks();
  for (int k = 0; k < engine->num_regions(); ++k) {
    trace.final_health.push_back(engine->region_health(k));
  }
  trace.final_rejections = engine->rejections();
  return trace;
}

/// No task lost, none double-counted: every successful submission is either
/// folded into some close's num_tasks exactly once or still parked in a
/// deferral queue at the end.
void ExpectTaskConservation(const RunTrace& trace, const std::string& label) {
  int64_t closed = 0;
  for (const PeriodOutcome& o : trace.outcomes) closed += o.num_tasks;
  EXPECT_EQ(closed + trace.deferred_at_end, trace.submitted) << label;
}

void ExpectTracesBitIdentical(const RunTrace& ref, const RunTrace& got,
                              const std::string& label,
                              bool compare_health) {
  ASSERT_EQ(ref.outcomes.size(), got.outcomes.size()) << label;
  for (size_t t = 0; t < ref.outcomes.size(); ++t) {
    SCOPED_TRACE(label + " period " + std::to_string(t));
    const PeriodOutcome& a = ref.outcomes[t];
    const PeriodOutcome& b = got.outcomes[t];
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
    if (compare_health) {
      ASSERT_EQ(a.region_health.size(), b.region_health.size());
      for (size_t k = 0; k < a.region_health.size(); ++k) {
        EXPECT_EQ(a.region_health[k].state, b.region_health[k].state);
        EXPECT_EQ(a.region_health[k].attempts, b.region_health[k].attempts);
        EXPECT_EQ(a.region_health[k].quarantined_since,
                  b.region_health[k].quarantined_since);
      }
    }
  }
  EXPECT_EQ(ref.submitted, got.submitted) << label;
  EXPECT_EQ(ref.deferred_at_end, got.deferred_at_end) << label;
  EXPECT_TRUE(ref.final_rejections == got.final_rejections) << label;
}

// ---------------------------------------------------------------------------
// The unarmed engine: failure domains enabled but no plan armed must be
// invisible — bit-identical serving to the pre-§15 engine at every region
// count and thread count.

TEST(ChaosHarnessTest, UnarmedFailureDomainsAreBitIdenticalToDisabled) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 8, 8).ValueOrDie();
  const std::vector<PeriodScript> script = MakeChaosScript(grid, 20260808);

  for (int k : {1, 2, 4}) {
    ShardedRun ref_run = MakeShardedRun(grid, k, ChaosOptions(false));
    const RunTrace ref =
        DriveChaos(script, ref_run.engine.get(), "ref K=" + std::to_string(k));
    ExpectTaskConservation(ref, "ref K=" + std::to_string(k));
    EXPECT_EQ(ref.deferred_at_end, 0);

    for (int threads : {0, 1, 2, 8}) {
      const std::string label =
          "fd-on K=" + std::to_string(k) + " threads=" + std::to_string(threads);
      SCOPED_TRACE(label);
      std::unique_ptr<ThreadPool> pool;
      EngineOptions options = ChaosOptions(true);
      if (threads > 0) {
        pool = std::make_unique<ThreadPool>(threads);
        options.pool = pool.get();
      }
      ShardedRun run = MakeShardedRun(grid, k, options);
      const RunTrace got = DriveChaos(script, run.engine.get(), label);
      ExpectTracesBitIdentical(ref, got, label, /*compare_health=*/false);
      // Failure domains on: health is reported, and everybody is healthy.
      for (const PeriodOutcome& o : got.outcomes) {
        ASSERT_EQ(o.region_health.size(), static_cast<size_t>(k));
        for (const RegionHealth& h : o.region_health) {
          EXPECT_EQ(h.state, RegionHealth::State::kNormal);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The fault sweep: a close failure at EVERY (region, period) site. Each run
// must keep every close OK, conserve tasks, and recover the region at the
// very next close (one-shot fault => the first retry succeeds).

TEST(ChaosHarnessTest, CloseFailureAtEverySiteRecoversNextPeriod) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 8, 8).ValueOrDie();
  const std::vector<PeriodScript> script = MakeChaosScript(grid, 20260808);
  int64_t total_deferred = 0;

  for (int region = 0; region < 2; ++region) {
    for (int period = 0; period + 1 < kPeriods; ++period) {
      const std::string label = "close_fail@r" + std::to_string(region) +
                                "p" + std::to_string(period);
      SCOPED_TRACE(label);
      ScopedFaultPlan plan(label);
      ShardedRun run = MakeShardedRun(grid, 2, ChaosOptions(true));
      const RunTrace trace = DriveChaos(script, run.engine.get(), label);
      ExpectTaskConservation(trace, label);

      // One-shot fault: quarantined at `period`, retried and recovered at
      // `period` + 1, back to normal for good after that.
      for (int t = 0; t < kPeriods; ++t) {
        ASSERT_EQ(trace.outcomes[t].region_health.size(), 2u);
        const RegionHealth& h = trace.outcomes[t].region_health[region];
        if (t == period) {
          EXPECT_EQ(h.state, RegionHealth::State::kQuarantined);
          EXPECT_EQ(h.attempts, 1);
          EXPECT_EQ(h.quarantined_since, period);
        } else if (t == period + 1) {
          EXPECT_EQ(h.state, RegionHealth::State::kRecovered);
        } else {
          EXPECT_EQ(h.state, RegionHealth::State::kNormal);
        }
        const int other = 1 - region;
        EXPECT_EQ(trace.outcomes[t].region_health[other].state,
                  RegionHealth::State::kNormal);
      }
      EXPECT_EQ(trace.deferred_at_end, 0);
      EXPECT_EQ(trace.final_health[region].state, RegionHealth::State::kNormal);
      total_deferred += trace.final_rejections.deferred_tasks;
    }
  }
  // The sweep as a whole must have exercised real deferrals.
  EXPECT_GT(total_deferred, 0);
}

TEST(ChaosHarnessTest, CloseStallIsQuarantinedAndRewoundLikeAFailure) {
  // A stall is the harder rewind: the region's close RAN (consuming
  // workers, advancing its strategy) before the result was discarded; the
  // quarantine must restore the pre-close snapshot.
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 8, 8).ValueOrDie();
  const std::vector<PeriodScript> script = MakeChaosScript(grid, 20260808);

  for (const char* plan_text : {"close_stall@r0p2", "close_stall@r1p6"}) {
    SCOPED_TRACE(plan_text);
    ScopedFaultPlan plan(plan_text);
    ShardedRun run = MakeShardedRun(grid, 2, ChaosOptions(true));
    const RunTrace trace = DriveChaos(script, run.engine.get(), plan_text);
    ExpectTaskConservation(trace, plan_text);
    EXPECT_EQ(trace.deferred_at_end, 0);
    for (const RegionHealth& h : trace.final_health) {
      EXPECT_EQ(h.state, RegionHealth::State::kNormal);
    }
  }
}

// ---------------------------------------------------------------------------
// Permanent failure: a region whose every close fails burns its recovery
// budget on the deterministic backoff schedule (attempts at t = 0, 1, 3, 7)
// and turns kFailed; the rest of the deployment keeps serving.

TEST(ChaosHarnessTest, PersistentFailureDegradesToFailedAfterTheBudget) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 8, 8).ValueOrDie();
  const std::vector<PeriodScript> script = MakeChaosScript(grid, 20260808);

  ScopedFaultPlan plan("close_fail@r1");
  ShardedRun run = MakeShardedRun(grid, 2, ChaosOptions(true));
  const RunTrace trace = DriveChaos(script, run.engine.get(), "persistent r1");
  ExpectTaskConservation(trace, "persistent r1");

  // Recovery attempts: quarantine at 0, retries at 1 (attempt 2), 3
  // (attempt 3), 7 (attempt 4 > budget 3) — kFailed from period 7 on.
  const std::vector<std::pair<int, RegionHealth::State>> expected = {
      {0, RegionHealth::State::kQuarantined},
      {1, RegionHealth::State::kQuarantined},
      {3, RegionHealth::State::kQuarantined},
      {7, RegionHealth::State::kFailed},
      {9, RegionHealth::State::kFailed},
  };
  for (const auto& [t, state] : expected) {
    EXPECT_EQ(trace.outcomes[t].region_health[1].state, state)
        << "period " << t;
  }
  EXPECT_EQ(trace.outcomes[0].region_health[1].quarantined_since, 0);
  EXPECT_EQ(trace.final_health[1].state, RegionHealth::State::kFailed);

  // The failed region's tasks are parked, not lost; region 0 kept serving.
  EXPECT_GT(trace.deferred_at_end, 0);
  EXPECT_GT(trace.final_rejections.deferred_tasks, 0);
  double revenue = 0.0;
  for (const PeriodOutcome& o : trace.outcomes) revenue += o.revenue;
  EXPECT_GT(revenue, 0.0);

  // A degraded deployment refuses to checkpoint (the container has no
  // encoding for deferral queues); the caller is told why.
  std::string blob;
  const Status save = run.engine->SaveCheckpoint(&blob);
  EXPECT_EQ(save.code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Faulted runs are deterministic: the same plan over the same script gives
// bit-identical outcomes (health included) at every thread count.

TEST(ChaosHarnessTest, FaultedRunsAreBitIdenticalAcrossThreadCounts) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 8, 8).ValueOrDie();
  const std::vector<PeriodScript> script = MakeChaosScript(grid, 20260808);
  const std::string plan_text = "seed=5;close_fail@r1p2;close_stall@r0p5";

  RunTrace ref;
  {
    ScopedFaultPlan plan(plan_text);
    ShardedRun run = MakeShardedRun(grid, 2, ChaosOptions(true));
    ref = DriveChaos(script, run.engine.get(), "faulted no-pool");
  }
  for (int threads : {1, 2, 8}) {
    const std::string label = "faulted threads=" + std::to_string(threads);
    SCOPED_TRACE(label);
    ScopedFaultPlan plan(plan_text);
    ThreadPool pool(threads);
    EngineOptions options = ChaosOptions(true);
    options.pool = &pool;
    ShardedRun run = MakeShardedRun(grid, 2, options);
    const RunTrace got = DriveChaos(script, run.engine.get(), label);
    ExpectTracesBitIdentical(ref, got, label, /*compare_health=*/true);
  }
}

// ---------------------------------------------------------------------------
// Exact faulted outcomes, pinned across commits. The suites above check
// health sequences, conservation and thread-count identity — a rewind that
// restored a wrong but self-consistent state would pass all of them. Each
// digest folds every close's full outcome (quotes, accepted ids, matches,
// revenue, counters, region health) and the deferral-queue depth after it.
// A changed digest is a behaviour change of the failure-domain path.

TEST(ChaosHarnessTest, FaultedOutcomeDigestsArePinned) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 8, 8).ValueOrDie();
  const std::vector<PeriodScript> script = MakeChaosScript(grid, 20260808);
  struct Case {
    const char* plan;
    int k;
    uint64_t digest;
  };
  const Case cases[] = {
      {"close_fail@r1p3", 2, 0xd892a165e3014888ULL},
      {"close_fail@r1p3", 4, 0x5a31c1a400fe8515ULL},
      {"close_stall@r0p5", 2, 0xc15131fce9804779ULL},
      {"close_stall@r0p5", 4, 0x6f94b7a4914efe1fULL},
      {"close_fail@r1", 2, 0x7d8df11001f1f151ULL},
      {"close_fail@r1", 4, 0xb65bdeed5fde76b5ULL},
      {"seed=3;close_fail~0.2;close_stall~0.1", 2, 0xd87e4b60e3a75e01ULL},
      {"seed=3;close_fail~0.2;close_stall~0.1", 4, 0x7588f501a785de47ULL},
  };
  for (const Case& c : cases) {
    const std::string label =
        std::string(c.plan) + " K=" + std::to_string(c.k);
    SCOPED_TRACE(label);
    ScopedFaultPlan plan(c.plan);
    ShardedRun run = MakeShardedRun(grid, c.k, ChaosOptions(true));
    const RunTrace trace = DriveChaos(script, run.engine.get(), label);
    ASSERT_EQ(trace.outcomes.size(), static_cast<size_t>(kPeriods));
    testing_util::OutcomeDigest digest;
    bool faulted = false;
    for (size_t t = 0; t < trace.outcomes.size(); ++t) {
      digest.AddOutcome(trace.outcomes[t]);
      digest.Add(static_cast<uint64_t>(trace.deferred_after_close[t]));
      for (const RegionHealth& h : trace.outcomes[t].region_health) {
        faulted = faulted || h.state != RegionHealth::State::kNormal;
      }
    }
    EXPECT_TRUE(faulted) << "the plan never fired";
    EXPECT_EQ(digest.value(), c.digest)
        << "actual 0x" << std::hex << digest.value();
  }
}

// ---------------------------------------------------------------------------
// After a recovery the deployment checkpoints again, and the restored
// deployment continues bit-identically.

TEST(ChaosHarnessTest, RecoveredDeploymentCheckpointsAndResumes) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 8, 8).ValueOrDie();
  const std::vector<PeriodScript> script = MakeChaosScript(grid, 20260808);

  ShardedRun run = MakeShardedRun(grid, 2, ChaosOptions(true));
  ShardedMarketEngine& engine = *run.engine;
  PeriodOutcome out;
  {
    ScopedFaultPlan plan("close_fail@r1p2");
    for (int t = 0; t < 3; ++t) {
      for (const Worker& w : script[t].workers) {
        ASSERT_TRUE(engine.AddWorker(w).ok());
      }
      for (size_t i = 0; i < script[t].tasks.size(); ++i) {
        ASSERT_TRUE(
            engine.SubmitTask(script[t].tasks[i], script[t].valuations[i]).ok());
      }
      ASSERT_TRUE(engine.ClosePeriod(&out).ok());
    }
  }
  // Period 2 closed quarantined: no checkpoint until the region recovers.
  ASSERT_EQ(out.region_health[1].state, RegionHealth::State::kQuarantined);
  std::string blob;
  EXPECT_EQ(engine.SaveCheckpoint(&blob).code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(engine.ClosePeriod(&out).ok());  // period 3: the retry
  ASSERT_EQ(out.region_health[1].state, RegionHealth::State::kRecovered);
  ASSERT_TRUE(engine.SaveCheckpoint(&blob).ok());

  ShardedRun resumed = MakeShardedRun(grid, 2, ChaosOptions(true));
  ASSERT_TRUE(resumed.engine->RestoreFromCheckpoint(blob).ok());
  ASSERT_EQ(resumed.engine->current_period(), 4);

  // Both deployments serve the rest of the script identically.
  PeriodOutcome a, b;
  for (int t = 4; t < kPeriods; ++t) {
    for (size_t i = 0; i < script[t].tasks.size(); ++i) {
      ASSERT_TRUE(
          engine.SubmitTask(script[t].tasks[i], script[t].valuations[i]).ok());
      ASSERT_TRUE(resumed.engine
                      ->SubmitTask(script[t].tasks[i], script[t].valuations[i])
                      .ok());
    }
    ASSERT_TRUE(engine.ClosePeriod(&a).ok());
    ASSERT_TRUE(resumed.engine->ClosePeriod(&b).ok());
    EXPECT_EQ(a.prices, b.prices);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.revenue, b.revenue);
  }
}

// ---------------------------------------------------------------------------
// Without failure domains an injected close failure is what it was before
// §15: the period fails.

TEST(ChaosHarnessTest, InjectionWithoutFailureDomainsFailsThePeriod) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 8, 8).ValueOrDie();
  const std::vector<PeriodScript> script = MakeChaosScript(grid, 20260808);

  ScopedFaultPlan plan("close_fail@r0p1");
  ShardedRun run = MakeShardedRun(grid, 2, ChaosOptions(false));
  ShardedMarketEngine& engine = *run.engine;
  PeriodOutcome out;
  for (const Worker& w : script[0].workers) {
    ASSERT_TRUE(engine.AddWorker(w).ok());
  }
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());  // period 0: site not armed
  const Status s = engine.ClosePeriod(&out);   // period 1: boom
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("injected close failure"), std::string::npos);
}

}  // namespace
}  // namespace maps
