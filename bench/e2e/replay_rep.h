// One rep of the end-to-end benchmark: a freshly warmed deployment replays
// the whole event log. The timed loop calls ReplayEventStream::Next and the
// engine's public event API itself, stamping tasks and workers exactly as
// service/replay_driver.cc does, so it can time each period without
// instrumenting src/. The parity rep runs the same log through
// ReplayEventsThroughEngine, and equal digests prove the two loops agree.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "geo/grid.h"
#include "geo/region_partition.h"
#include "market/demand_oracle.h"
#include "obs/metrics.h"
#include "pricing/strategy.h"
#include "service/market_engine.h"
#include "service/sharded_engine.h"
#include "workloads.h"

namespace maps {
namespace e2e {

/// What `maps_cli replay` builds before the first event: a square grid, a
/// truncated-normal warm-up oracle, one warmed MAPS instance per region,
/// and MarketEngine (K = 1) or ShardedMarketEngine (K > 1).
class Deployment {
 public:
  /// `metrics` (may be null) is attached to the engine. `warm` = false
  /// skips Warmup, for a deployment about to restore a checkpoint.
  static Result<std::unique_ptr<Deployment>> Make(const BenchWorkload& workload,
                                                  obs::MetricsRegistry* metrics,
                                                  bool warm = true);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const GridPartition& grid() const { return *grid_; }
  /// Null for K = 1.
  const RegionPartition* partition() const {
    return partition_ ? &*partition_ : nullptr;
  }
  /// Exactly one of these is non-null.
  MarketEngine* monolith() { return monolith_.get(); }
  ShardedMarketEngine* sharded() { return sharded_.get(); }

  /// Wall time of engine construction and of warming all K strategies.
  double construct_s() const { return construct_s_; }
  double warmup_s() const { return warmup_s_; }

 private:
  Deployment() = default;

  std::optional<GridPartition> grid_;
  std::optional<RegionPartition> partition_;
  std::optional<DemandOracle> oracle_;
  std::vector<std::unique_ptr<PricingStrategy>> strategies_;
  std::unique_ptr<MarketEngine> monolith_;
  std::unique_ptr<ShardedMarketEngine> sharded_;
  double construct_s_ = 0.0;
  double warmup_s_ = 0.0;
};

/// Bench-side spans of a traced rep, in nanoseconds. Every span lies inside
/// a period segment, so their sum over the segment total is the ledger's
/// coverage.
struct TraceSpans {
  int64_t next_ns = 0;   // ReplayEventStream::Next
  int64_t apply_ns = 0;  // SubmitTask / AddWorker / RemoveWorker / Observe
  int64_t apply_calls = 0;
  int64_t close_ns = 0;  // ClosePeriod
  int64_t save_ns = 0;   // scheduled SaveCheckpoint
};

struct RepResult {
  /// Per period t: from the Next call that reads t's first event through
  /// the return of close t and its scheduled save (segment), and from the
  /// ClosePeriod call through the same point (close).
  std::vector<int64_t> segment_ns;
  std::vector<int64_t> close_ns;
  TraceSpans spans;  // traced reps only

  int64_t events = 0;  // events applied, closes included
  int64_t tasks = 0;
  int64_t accepted = 0;
  int64_t matched = 0;
  double revenue = 0.0;
  /// FNV-1a over every close's prices, accepted ids, matches and revenue.
  uint64_t digest = 0;

  int64_t calls = 0;   // engine calls attempted: events, closes, saves
  int64_t failed = 0;  // non-OK returns among them
  /// Scheduled saves: written, refused while a region was unhealthy (the
  /// FailedPrecondition `maps_cli replay` reports as "checkpoint skipped"),
  /// and bytes written.
  int64_t saves = 0;
  int64_t skipped = 0;
  int64_t save_bytes = 0;
  std::string last_blob;  // the last blob written, for the restore check

  /// First violated CheckPeriodOutcomeInvariants (traced reps only).
  Status invariants;
};

enum class RepKind {
  kTimed,   // period segments only; nothing else is timed
  kTraced,  // plus a span around every call and invariant checks
  kParity,  // through ReplayEventsThroughEngine; untimed
};

/// Replays the log at `log_path` through `deployment` once. A non-OK
/// status means the rep could not run at all; engine-call failures are
/// counted in RepResult::failed instead.
Result<RepResult> RunRep(const BenchWorkload& workload,
                         const std::string& log_path, RepKind kind,
                         Deployment* deployment,
                         obs::MetricsRegistry* metrics);

/// Restores `blob` into a fresh, unwarmed deployment of `workload` and
/// checks that it saves back byte-identically.
Status CheckRestoreRoundTrip(const BenchWorkload& workload,
                             const std::string& blob);

}  // namespace e2e
}  // namespace maps
