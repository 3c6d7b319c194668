// ReplayDriver: drives an engine (monolithic or sharded) from a streaming
// ReplayEventStream, one event in memory at a time. This is the single
// ingestion path for event logs (`maps_cli replay`, the end-to-end
// replay bench): grid assignment, distance derivation, period
// stamping, resume skipping, and per-close accounting live here once, so a
// 10^6+-event log is replayed with O(1) ingestion memory regardless of the
// consumer.

#pragma once

#include <cstdint>
#include <functional>

#include "geo/grid.h"
#include "service/market_engine.h"
#include "service/replay_log.h"
#include "service/sharded_engine.h"
#include "util/result.h"

namespace maps {

/// \brief Knobs for one streaming replay drive.
struct ReplayStreamOptions {
  /// Number of close_period events to skip before applying anything —
  /// the resume path: a restored engine at period P has already consumed
  /// everything up to and including the P-th close.
  int64_t skip_closes = 0;
  /// Invoked after every applied ClosePeriod (skipped periods included)
  /// with the merged outcome — the CLI's table/checkpoint hook. A non-OK
  /// return aborts the drive. May be empty.
  std::function<Status(const PeriodOutcome&)> on_close;
};

/// \brief Accounting for one streaming replay drive (events skipped by
/// `skip_closes` resume logic are not counted).
struct ReplayStreamSummary {
  /// Events applied to the engine by this drive.
  int64_t events_applied = 0;
  /// close_period events applied by this drive.
  int64_t periods_closed = 0;
  double total_revenue = 0.0;
  int64_t total_accepted = 0;
  int64_t total_matched = 0;
};

/// \brief Streams every event through `engine`: tasks get their grid cell,
/// submission period, and (when the log omitted it) Euclidean distance;
/// workers get their grid cell and admission period. Engine errors carry
/// the offending log line number.
Result<ReplayStreamSummary> ReplayEventsThroughEngine(
    ReplayEventStream* stream, const GridPartition& grid, MarketEngine* engine,
    const ReplayStreamOptions& options = {});

/// \brief Sharded overload: identical semantics, events routed by the
/// sharded engine's own partition.
Result<ReplayStreamSummary> ReplayEventsThroughEngine(
    ReplayEventStream* stream, const GridPartition& grid,
    ShardedMarketEngine* engine, const ReplayStreamOptions& options = {});

}  // namespace maps
