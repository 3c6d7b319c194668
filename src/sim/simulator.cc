#include "sim/simulator.h"

#include <chrono>

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

  // Replay, per period: submit its tasks (the validated task array is
  // period-sorted), admit its workers, and close.
  size_t next_task = 0;
  size_t next_entry = 0;
  PeriodOutcome outcome;
  for (int32_t t = 0; t < workload.num_periods; ++t) {
    for (; next_task < workload.tasks.size() &&
           workload.tasks[next_task].period == t;
         ++next_task) {
      MAPS_RETURN_NOT_OK(engine.SubmitTask(workload.tasks[next_task],
                                           workload.valuations[next_task]));
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

}  // namespace maps
