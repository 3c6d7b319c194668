// The platform simulator, now a thin REPLAY ADAPTER over the online
// MarketEngine (service/market_engine.h): RunSimulation feeds a
// pre-materialized Workload through the engine's event API — per period
// SubmitTask for each task, AddWorker for each entrant, then ClosePeriod —
// and accumulates the per-period outcomes. The per-period mechanics (pricing,
// acceptance draw, max-weight matching, worker lifecycle, MC diagnostic)
// live in the engine; identical (workload, strategy, options) runs are
// bit-identical to the former batch loop at any thread count (tested in
// tests/service/market_engine_test.cc).

#pragma once

#include <vector>

#include "pricing/strategy.h"
#include "service/market_engine.h"
#include "sim/workload.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace maps {

/// \brief Simulation knobs: the shared online-engine surface plus the
/// replay-only extras. Engine fields that describe the market itself
/// (`engine.lifecycle`, `engine.mc_oracle`) are overridden from the
/// workload by RunSimulation.
struct SimOptions {
  /// Stream id for the strategy's warm-up oracle fork, so different
  /// strategies draw independent probe randomness over identical ground
  /// truth.
  uint64_t warmup_stream = 7;
  /// Record per-period statistics (tests; costs memory on long runs).
  bool collect_per_period = false;
  /// Skip the strategy Warmup() call (for pre-warmed strategies).
  bool skip_warmup = false;
  /// Online-engine knobs shared with live deployments: the Monte-Carlo
  /// diagnostic (mc_worlds/mc_seed) and the lent pool. See EngineOptions.
  EngineOptions engine;
};

/// \brief Per-period accounting (optional).
struct PeriodStats {
  int32_t period = 0;
  double revenue = 0.0;
  /// MC-estimated E[U(B^t)] of the period's prices (0 when mc_worlds == 0).
  double mc_expected_revenue = 0.0;
  int32_t num_tasks = 0;
  int32_t num_accepted = 0;
  int32_t num_matched = 0;
  int32_t num_available_workers = 0;
};

/// \brief Aggregate outcome of one simulation run.
struct SimulationResult {
  double total_revenue = 0.0;
  /// Sum over periods of the MC-estimated expected revenue of the posted
  /// prices under true demand (see EngineOptions::mc_worlds; 0 disabled).
  double mc_expected_revenue = 0.0;
  /// Warm-up wall time (Algorithm 1 probing etc.).
  double warmup_time_sec = 0.0;
  /// Strategy wall time across all periods (PriceRound + ObserveFeedback).
  double pricing_time_sec = 0.0;
  /// warmup + pricing: the per-strategy cost reported by the benches.
  double total_time_sec = 0.0;
  /// Peak strategy footprint plus the platform share: the engine's snapshot
  /// (with the period's matching graph) and the worker table.
  size_t memory_bytes = 0;
  int64_t num_tasks = 0;
  int64_t num_accepted = 0;
  int64_t num_matched = 0;
  std::vector<PeriodStats> per_period;
};

/// \brief Runs `strategy` over the workload by replaying it through a
/// MarketEngine. The workload is not mutated; identical (workload,
/// strategy, options) runs are bit-identical.
Result<SimulationResult> RunSimulation(const Workload& workload,
                                       PricingStrategy* strategy,
                                       const SimOptions& options = {});

}  // namespace maps
