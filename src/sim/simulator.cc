#include "sim/simulator.h"

#include <chrono>
#include <utility>

#include "service/replay_driver.h"
#include "util/logging.h"

namespace maps {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

PeriodStats ToPeriodStats(const PeriodOutcome& outcome) {
  PeriodStats ps;
  ps.period = outcome.period;
  ps.revenue = outcome.revenue;
  ps.mc_expected_revenue = outcome.mc_expected_revenue;
  ps.num_tasks = outcome.num_tasks;
  ps.num_accepted = static_cast<int32_t>(outcome.accepted.size());
  ps.num_matched = static_cast<int32_t>(outcome.matches.size());
  ps.num_available_workers = outcome.num_available_workers;
  return ps;
}

}  // namespace

Result<SimulationResult> RunSimulation(const Workload& workload,
                                       PricingStrategy* strategy,
                                       const SimOptions& options) {
  if (strategy == nullptr) {
    return Status::InvalidArgument("null strategy");
  }
  MAPS_RETURN_NOT_OK(ValidateWorkload(workload));

  SimulationResult result;

  // The engine owns the per-period loop; the market-shaped engine knobs
  // come from the workload, everything else from the caller. Construction
  // lends the pool to the strategy (clearing a stale pool on reuse).
  EngineOptions engine_options = options.engine;
  engine_options.lifecycle = workload.lifecycle;
  engine_options.mc_oracle = &workload.oracle;
  MarketEngine engine(&workload.grid, strategy, engine_options);

  // Warm-up against a fork of the ground truth: independent probe
  // randomness, identical demand.
  if (!options.skip_warmup) {
    const auto warm_start = Clock::now();
    DemandOracle history = workload.oracle.Fork(options.warmup_stream);
    MAPS_RETURN_NOT_OK(strategy->Warmup(workload.grid, &history));
    result.warmup_time_sec = Seconds(warm_start, Clock::now());
  }

  // Per-period task ranges over the validated, period-sorted task array.
  std::vector<std::pair<size_t, size_t>> task_range(workload.num_periods);
  {
    size_t i = 0;
    for (int32_t t = 0; t < workload.num_periods; ++t) {
      const size_t begin = i;
      while (i < workload.tasks.size() && workload.tasks[i].period == t) ++i;
      task_range[t] = {begin, i};
    }
  }
  const Task* task_base = workload.tasks.data();
  const double* val_base = workload.valuations.data();

  // Replay: submit period 0, then per period bulk-stage t+1, admit the
  // period's workers, and close.
  if (workload.num_periods > 0) {
    for (size_t i = task_range[0].first; i < task_range[0].second; ++i) {
      MAPS_RETURN_NOT_OK(engine.SubmitTask(task_base[i], val_base[i]));
    }
  }
  size_t next_entry = 0;
  PeriodOutcome outcome;
  for (int32_t t = 0; t < workload.num_periods; ++t) {
    if (t + 1 < workload.num_periods) {
      const auto [begin, end] = task_range[t + 1];
      MAPS_RETURN_NOT_OK(engine.StageNextPeriodTasks(
          task_base + begin, task_base + end, val_base + begin));
    }
    while (next_entry < workload.workers.size() &&
           workload.workers[next_entry].period == t) {
      MAPS_RETURN_NOT_OK(engine.AddWorker(workload.workers[next_entry]));
      ++next_entry;
    }
    MAPS_RETURN_NOT_OK(engine.ClosePeriod(&outcome));
    if (outcome.skipped) continue;

    result.total_revenue += outcome.revenue;
    result.mc_expected_revenue += outcome.mc_expected_revenue;
    result.num_tasks += outcome.num_tasks;
    result.num_accepted += static_cast<int64_t>(outcome.accepted.size());
    result.num_matched += static_cast<int64_t>(outcome.matches.size());

    if (options.collect_per_period) {
      result.per_period.push_back(ToPeriodStats(outcome));
    }
  }

  result.pricing_time_sec = engine.strategy_seconds();
  result.total_time_sec = result.warmup_time_sec + result.pricing_time_sec;
  result.memory_bytes =
      engine.peak_platform_bytes() + engine.peak_strategy_bytes();
  return result;
}

Result<SimulationResult> RunReplayStream(ReplayEventStream* stream,
                                         const GridPartition& grid,
                                         PricingStrategy* strategy,
                                         const DemandOracle* warmup_oracle,
                                         const SimOptions& options) {
  if (stream == nullptr) return Status::InvalidArgument("null event stream");
  if (strategy == nullptr) return Status::InvalidArgument("null strategy");

  SimulationResult result;
  MarketEngine engine(&grid, strategy, options.engine);

  if (!options.skip_warmup && warmup_oracle != nullptr) {
    const auto warm_start = Clock::now();
    DemandOracle history = warmup_oracle->Fork(options.warmup_stream);
    MAPS_RETURN_NOT_OK(strategy->Warmup(grid, &history));
    result.warmup_time_sec = Seconds(warm_start, Clock::now());
  }

  ReplayStreamOptions drive;
  // A skipped (dead) period has no tasks and no workers, so it adds nothing
  // to the totals and gets no per-period row.
  const bool collect = options.collect_per_period;
  drive.on_close = [&result, collect](const PeriodOutcome& outcome) {
    if (outcome.skipped) return Status::OK();
    result.mc_expected_revenue += outcome.mc_expected_revenue;
    result.num_tasks += outcome.num_tasks;
    if (collect) result.per_period.push_back(ToPeriodStats(outcome));
    return Status::OK();
  };
  auto summary_or = ReplayEventsThroughEngine(stream, grid, &engine, drive);
  MAPS_RETURN_NOT_OK(summary_or.status());
  const ReplayStreamSummary& summary = summary_or.ValueOrDie();
  result.total_revenue = summary.total_revenue;
  result.num_accepted = summary.total_accepted;
  result.num_matched = summary.total_matched;

  result.pricing_time_sec = engine.strategy_seconds();
  result.total_time_sec = result.warmup_time_sec + result.pricing_time_sec;
  result.memory_bytes =
      engine.peak_platform_bytes() + engine.peak_strategy_bytes();
  return result;
}

}  // namespace maps
