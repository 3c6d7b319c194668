// The pinned workloads of the end-to-end replay benchmark (README.md in this
// directory explains why each one exists). A workload is a scenario-fuzzer
// spec, which makes the event log a pure function of the seed, plus the
// deployment the log is replayed through.

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/scenario_fuzzer.h"
#include "util/status.h"

namespace maps {
namespace e2e {

struct BenchWorkload {
  std::string name;
  ScenarioSpec spec;
  /// K: 1 replays through MarketEngine, K > 1 through ShardedMarketEngine.
  int regions = 1;
  /// Adds remove_worker and observe_acceptance events to the fuzzer's log,
  /// which emits only add_worker, submit_task and close_period.
  bool decorate = false;
  /// In-memory SaveCheckpoint after every N-th close (0: never), as
  /// `maps_cli replay --checkpoint_every=N` schedules it.
  int checkpoint_every = 0;
  bool failure_domains = false;
  /// FaultPlan grammar (util/fault_injector.h); armed afresh for every rep
  /// so each rep sees the same faults. Empty: no faults.
  std::string fault_plan;
};

/// peak_k1, churn_ingest, seam_k4, durable_k2, in that order.
const std::vector<BenchWorkload>& Workloads();

/// Null when no workload has that name.
const BenchWorkload* FindWorkload(const std::string& name);

/// The --smoke variant: the same deployment over 1/20 of the periods
/// (at least 10).
BenchWorkload SmokeScale(BenchWorkload workload);

/// Writes the workload's JSONL event log for `seed` (byte-identical per
/// seed). Decorated workloads get, on top of WriteScenarioLog's output, an
/// observe_acceptance after every 4th task (accepted = valuation >= 3.0)
/// and a remove_worker for every 4th worker in the period after it joined.
Status WriteWorkloadLog(const BenchWorkload& workload, uint64_t seed,
                        std::ostream& out);

}  // namespace e2e
}  // namespace maps
