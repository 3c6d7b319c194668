// MarketEngine: the online serving core of the platform — events in, quotes
// out. A production deployment does not hand us a pre-materialized workload;
// it streams task submissions, worker arrivals/departures, and acceptance
// feedback, and asks for per-grid price quotes each period. The engine owns
// everything the per-period loop needs: the period's MarketSnapshot, the
// lent ThreadPool, the strategy's PriceRound/ObserveFeedback cycle, the
// max-weight matching step, the worker-lifecycle state machine, and the
// optional Monte-Carlo expected-revenue diagnostic.
//
// Event model (batch semantics of Sec. 2, made incremental):
//   * Between two ClosePeriod() calls the engine has one OPEN period.
//     SubmitTask / AddWorker / RemoveWorker / ObserveAcceptance all apply to
//     it; ClosePeriod() then prices the period, resolves acceptance, runs
//     the matching, advances the lifecycle, and returns the PeriodOutcome.
//   * Acceptance resolution, per task: an explicit ObserveAcceptance() bit
//     wins (deployments where the platform, not the engine, sees requester
//     decisions); otherwise a hidden valuation attached at SubmitTask()
//     decides (v >= price, the simulation path); a task with neither is
//     treated as declined.
//   * Each event kind has one entry point: tasks arrive only through
//     SubmitTask(), and ClosePeriod() builds the period's one snapshot from
//     the open period's stage.
//
// RunSimulation (sim/simulator.h) is a thin replay adapter that feeds a
// Workload through exactly this API; the determinism contract (identical
// events => bit-identical outcomes at any thread count) is tested against
// it.

#pragma once

#include <cstdint>
#include <limits>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "geo/grid.h"
#include "graph/max_weight_matching.h"
#include "graph/possible_worlds.h"
#include "market/demand_oracle.h"
#include "market/market_state.h"
#include "market/task.h"
#include "market/worker.h"
#include "pricing/strategy.h"
#include "rng/random.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace maps {

namespace obs {
class Counter;
class Histogram;
class MetricsRegistry;
class TraceLog;
}  // namespace obs

/// \brief Per-region failure-domain knobs (DESIGN.md §15). Honored only by
/// ShardedMarketEngine: a region whose close fails is quarantined instead
/// of failing the whole close — its engine restores the snapshot taken
/// just before that close, then quiet-advances one period; its cells serve
/// cached quotes and its open tasks defer to its next close attempt.
/// MarketEngine ignores this.
struct FailureDomainOptions {
  /// Off by default: a region-close error fails ClosePeriod, the pre-§15
  /// behavior. When on with no fault armed, outcomes are bit-identical to
  /// off (the chaos harness pins this).
  bool enabled = false;
  /// Recovery attempts before a region is declared kFailed and serves
  /// cached quotes permanently. Attempt n is retried after a deterministic
  /// backoff of 2^(n-1) periods (attempt counts, never wall clock).
  int max_recovery_attempts = 3;
};

/// \brief Online engine knobs. SimOptions composes this (one shared option
/// surface; the simulator adds only replay-specific knobs on top).
struct EngineOptions {
  /// What happens to workers after a match (single-use vs turnaround,
  /// idle repositioning). The replay adapter overrides this with the
  /// workload's lifecycle.
  WorkerLifecycle lifecycle;
  /// Monte-Carlo worlds per period for the expected-revenue diagnostic:
  /// when > 0 and mc_oracle is set, each closed period also estimates
  /// E[U(B^t)] of the posted prices under the TRUE acceptance ratios by
  /// sampling this many possible worlds (world w of period t draws from
  /// CounterRng stream (mc_seed + t, w), so the estimate is bit-identical
  /// for any thread count). 0 disables (no cost).
  int mc_worlds = 0;
  /// Seed family for the Monte-Carlo diagnostic worlds.
  uint64_t mc_seed = 0x6d63776f726c64ULL;  // "mcworld"
  /// Ground-truth demand for the diagnostic. Non-owning; simulation-only —
  /// a live deployment has no oracle and leaves this null.
  const DemandOracle* mc_oracle = nullptr;
  /// Optional pool lent to the strategy (warm-up probe schedule, MAPS's
  /// per-round maximizer precompute) and used by the Monte-Carlo
  /// diagnostic. Non-owning; must not be a pool whose
  /// workers call into THIS engine (nested waits can deadlock). Results are
  /// bit-identical with or without it.
  ThreadPool* pool = nullptr;
  /// Quarantine-instead-of-fail for region closes; sharded engine only.
  FailureDomainOptions failure_domains;
  /// Optional observability registry (DESIGN.md §16). Non-owning, like the
  /// pool; must outlive the engine. Metric handles are resolved once at
  /// construction, so a null registry costs one predictable branch per
  /// instrumented site. Telemetry NEVER changes engine outputs — runs with
  /// and without a registry are bit-identical (the Obs suites pin this).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional structured trace ring (period opens/closes, region health
  /// transitions, fault firings). Non-owning. The sharded engine owns the
  /// canonical trace and does NOT propagate this to its region engines —
  /// region closes run concurrently and would interleave sequence ids.
  obs::TraceLog* trace = nullptr;
};

/// \brief Cumulative counts of rejected or ignored events since engine
/// construction (restored from checkpoints). Surfaced in every
/// PeriodOutcome so operators can monitor malformed traffic; a live
/// deployment alerting on these catches duplicate submissions or stale
/// acceptance reports without failing the period.
struct EngineRejectionCounters {
  /// SubmitTask calls rejected because a task id was already submitted for
  /// the same period.
  int64_t duplicate_tasks = 0;
  /// RemoveWorker calls rejected because the id was never admitted.
  int64_t unknown_worker_removals = 0;
  /// RemoveWorker calls that targeted a worker currently on a ride. These
  /// are honored (the worker finishes the ride and never returns to the
  /// pool) but counted, since callers often expect removal of an idle
  /// worker.
  int64_t busy_worker_removals = 0;
  /// ObserveAcceptance bits whose task id was not part of the period at
  /// its close (discarded there).
  int64_t orphan_acceptances = 0;
  /// Tasks deferred to the next period because their region was
  /// quarantined at the close (sharded failure domains, DESIGN.md §15).
  /// Conservation accounting: a deferred task is counted here once per
  /// deferral and served (or rejected on its own merits) later — never
  /// silently dropped.
  int64_t deferred_tasks = 0;

  bool operator==(const EngineRejectionCounters&) const = default;

  EngineRejectionCounters& operator+=(const EngineRejectionCounters& o) {
    duplicate_tasks += o.duplicate_tasks;
    unknown_worker_removals += o.unknown_worker_removals;
    busy_worker_removals += o.busy_worker_removals;
    orphan_acceptances += o.orphan_acceptances;
    deferred_tasks += o.deferred_tasks;
    return *this;
  }
};

/// \brief Registry mirrors of EngineRejectionCounters: every increment site
/// bumps the struct field and (when a registry is attached) the
/// corresponding "engine.reject.*" counter in one place
/// (obs::BumpMirrored), so the PeriodOutcome view and telemetry can never
/// drift. All-null when no registry is attached.
struct RejectionCounterHandles {
  obs::Counter* duplicate_tasks = nullptr;
  obs::Counter* unknown_worker_removals = nullptr;
  obs::Counter* busy_worker_removals = nullptr;
  obs::Counter* orphan_acceptances = nullptr;
  obs::Counter* deferred_tasks = nullptr;

  /// Resolves the five counters from `registry` (no-op when null). Both
  /// the monolithic and sharded engines resolve the SAME names, so the
  /// registry totals match ShardedMarketEngine::rejections()'s merge.
  void Resolve(obs::MetricsRegistry* registry);

  /// Re-syncs the mirrors after a checkpoint restore replaced the struct
  /// counters `before` with `after`: each counter absorbs the jump, so the
  /// registry stays equal to the (possibly multi-engine) sum of the struct
  /// counters (DESIGN.md §16). No-op when unresolved.
  void Resync(const EngineRejectionCounters& before,
              const EngineRejectionCounters& after) const;
};

/// \brief Per-region serving health reported in a sharded PeriodOutcome
/// when failure domains are enabled (DESIGN.md §15). Empty for the
/// monolithic engine and when failure domains are off.
struct RegionHealth {
  enum class State {
    kNormal = 0,   ///< served this close normally
    kQuarantined,  ///< close failed; cached quotes served, tasks deferred
    kRecovered,    ///< re-admitted this period after a quarantine
    kFailed,       ///< recovery attempts exhausted; degraded permanently
  };
  int region = 0;
  State state = State::kNormal;
  /// Recovery attempts consumed so far (0 while normal).
  int attempts = 0;
  /// Period the current quarantine began; -1 when not quarantined.
  int32_t quarantined_since = -1;
};

/// \brief Canonical lowercase name of a RegionHealth::State ("normal",
/// "quarantined", "recovered", "failed"). Used as the detail string of
/// kRegionHealth trace events; stable — the nightly chaos drill parses it.
const char* RegionHealthStateName(RegionHealth::State state);

/// \brief One task-to-worker assignment of a closed period.
struct MatchRecord {
  TaskId task = -1;
  WorkerId worker = -1;
  /// d_r * p_{g(r)} — this match's contribution to the period revenue.
  double revenue = 0.0;
};

/// \brief Everything a period close produces. Vector storage is reused
/// across calls when the caller reuses the outcome object.
struct PeriodOutcome {
  int32_t period = 0;
  /// No tasks were submitted and no worker was available: the strategy was
  /// not consulted and every other field below is empty/zero.
  bool skipped = false;
  /// The posted quote per grid cell (size = grid.num_cells()).
  std::vector<double> prices;
  /// Ids of the tasks whose requesters accepted their quote.
  std::vector<TaskId> accepted;
  /// Max-weight assignment over the accepted tasks (Definition 5).
  std::vector<MatchRecord> matches;
  /// Sum of matches[i].revenue.
  double revenue = 0.0;
  /// MC-estimated E[U(B^t)] of this period's prices (0 when disabled).
  double mc_expected_revenue = 0.0;
  int32_t num_tasks = 0;
  int32_t num_available_workers = 0;
  /// Engine-cumulative rejection/ignore counters as of this close.
  EngineRejectionCounters rejections;
  /// One entry per region, in region order, when sharded failure domains
  /// are enabled; empty otherwise.
  std::vector<RegionHealth> region_health;
};

/// \brief Stateful online market engine; see the file comment for the event
/// model. Not thread-safe: one logical event stream per engine (internal
/// parallelism comes from the lent pool and never changes results).
class MarketEngine {
 public:
  /// Sentinel "no hidden valuation" (NaN compares false against any price,
  /// so an unknown requester without an ObserveAcceptance() bit declines).
  static constexpr double kNoValuation =
      std::numeric_limits<double>::quiet_NaN();

  /// \param grid the city partition; non-owning, must outlive the engine.
  /// \param strategy the pricing strategy driven by ClosePeriod();
  ///        non-owning. The engine lends it `options.pool` immediately
  ///        (clearing any stale pool from a previous owner). Warm it up
  ///        before the first ClosePeriod() — the engine never probes.
  MarketEngine(const GridPartition* grid, PricingStrategy* strategy,
               const EngineOptions& options = {});

  MarketEngine(const MarketEngine&) = delete;
  MarketEngine& operator=(const MarketEngine&) = delete;

  /// Submits a task to the open period. `valuation` is the requester's
  /// hidden v_r when the caller knows it (replay / simulation); online
  /// deployments leave it unset and report the decision via
  /// ObserveAcceptance(). Task ids must be unique within a period: a
  /// duplicate id is rejected with AlreadyExists and counted (ids may
  /// repeat across periods).
  Status SubmitTask(const Task& task, double valuation = kNoValuation);

  /// Admits a worker into the open period. `worker.period` is ignored
  /// (admission time is now); `worker.duration` periods of membership start
  /// at the open period. Worker ids must be unique across the run.
  Status AddWorker(const Worker& worker);

  /// Removes a worker from the open period onward: an idle worker stops
  /// being offered to the matcher; a busy one finishes its ride but never
  /// returns to the pool (counted in rejections().busy_worker_removals).
  /// NotFound for ids never added (counted). Idempotent for known ids.
  Status RemoveWorker(WorkerId id);

  /// Records an externally observed accept/reject decision for a task of
  /// the open period, overriding any hidden valuation. Always OK — the
  /// task may legitimately be submitted later within the same period;
  /// decisions for ids not in the period at the close are discarded there
  /// and counted in rejections().orphan_acceptances.
  Status ObserveAcceptance(TaskId task, bool accepted);

  /// Closes the open period: builds the snapshot, prices it (PriceRound),
  /// resolves acceptance, reports the bits (ObserveFeedback), assigns
  /// workers by max-weight matching, applies the worker lifecycle, and
  /// advances to the next period. `out`'s storage is reused across calls.
  Status ClosePeriod(PeriodOutcome* out);

  /// Serializes the full resumable engine state — period counter, worker
  /// lifecycle table (idle order, busy heap, retire state), the open
  /// period's submitted tasks, pending acceptance bits, repositioning RNG
  /// position, rejection counters, a configuration fingerprint, and the
  /// strategy's learned state (PricingStrategy::SaveState) — into the
  /// versioned binary checkpoint format (DESIGN.md §12,
  /// docs/checkpoint_format.md). Call between events; period boundaries
  /// (right after a
  /// ClosePeriod) are the natural place and what the recovery harness
  /// exercises.
  Status SaveCheckpoint(std::string* out);

  /// SaveCheckpoint's bytes appended to `out`: how a sharded container
  /// embeds each region's blob without copying it. On failure `out` may
  /// end in a partial blob and must be discarded.
  Status AppendCheckpoint(StateWriter* out);

  /// Rebuilds engine state from SaveCheckpoint bytes. The engine must be
  /// configured identically to the saver (same grid partition, worker
  /// lifecycle, and strategy type/config — fingerprint-checked); the
  /// strategy does NOT need Warmup, its learned state is restored. The
  /// restore is all-or-nothing: corrupt, truncated, or version-mismatched
  /// input fails with an offset-bearing Status and leaves the engine
  /// unchanged. Diagnostics (strategy_seconds, peak bytes) restart at
  /// zero — they describe this process, not the run.
  Status RestoreFromCheckpoint(const std::string& data);

  // --- Sharded-serving hooks (DESIGN.md §13) -----------------------------
  // ShardedMarketEngine's boundary stitch runs right after a close and
  // reconciles matches the per-region matchings could not see. Each hook
  // addresses a worker that is IDLE now — known, not consumed, not retired,
  // not mid-ride — and fails with NotFound / FailedPrecondition otherwise.
  // Single-engine deployments never call them.

  /// Appends the Worker base of every idle worker, in idle (admission)
  /// order — the candidate set the boundary stitch scans after a close.
  void CollectIdleWorkers(std::vector<Worker>* out) const;

  /// Consumes an idle worker in place (a single-use stitch match): the
  /// worker is never offered again but its id stays known, like any
  /// consumed single-use worker.
  Status ConsumeIdleWorker(WorkerId id);

  /// Sends an idle worker on a ride ending at `destination` (a turnaround
  /// stitch match whose destination stays in this engine's own region):
  /// the worker leaves the idle list and returns at period `next_free`
  /// from the destination, exactly as if the period matching had assigned
  /// it.
  Status DispatchIdleWorker(WorkerId id, const Point& destination,
                            int32_t next_free);

  /// Removes an idle worker from this engine entirely, handing back its
  /// current base state and retirement period so another engine can adopt
  /// it (cross-region migration). The id becomes unknown to this engine.
  Status ExtractIdleWorker(WorkerId id, Worker* base, int32_t* retire_at);

  /// Admits a worker mid-lifecycle — the receiving half of a migration.
  /// Unlike AddWorker, the caller supplies next_free/retire_at verbatim
  /// (they are absolute periods from the source engine; both engines close
  /// in lockstep, so periods agree). A worker still riding (next_free >
  /// open period) goes straight onto the busy heap.
  Status AdoptWorker(const Worker& base, int32_t next_free,
                     int32_t retire_at);

  /// Advances the open period by one WITHOUT consulting the strategy,
  /// matching, or repositioning — the catch-up step of a quarantine
  /// restore (DESIGN.md §15): busy workers whose rides ended return to the
  /// idle list, the open period's submitted tasks and pending bits are
  /// dropped uncounted (the sharded layer already deferred or accounted
  /// them), and the period counter increments. Deterministic and
  /// RNG-free, so a restored region replayed through Q quiet periods is a
  /// pure function of the checkpoint.
  void AdvanceQuietPeriod();

  /// Whether this engine indexes `id`: from AddWorker / AdoptWorker until
  /// ExtractIdleWorker, through retirement, consumption and RemoveWorker.
  /// A sharded deployment's regions index disjoint ids.
  bool HasWorker(WorkerId id) const { return worker_index_.count(id) > 0; }

  /// Appends every id HasWorker() accepts, in unspecified order.
  void CollectWorkerIds(std::vector<WorkerId>* out) const;

  /// Cumulative rejected/ignored event counters (also in every
  /// PeriodOutcome).
  const EngineRejectionCounters& rejections() const { return rejections_; }

  /// The open (not yet closed) period index; starts at 0.
  int32_t current_period() const { return period_; }
  /// Workers admitted and neither retired, consumed, nor removed.
  int64_t num_live_workers() const;
  /// Cumulative wall time inside the strategy (PriceRound + acceptance +
  /// ObserveFeedback), the per-strategy cost the benches report.
  double strategy_seconds() const { return strategy_seconds_; }
  /// Peak platform-side footprint: the snapshot (with its period's graph)
  /// and the worker-lifecycle table.
  size_t peak_platform_bytes() const { return peak_platform_bytes_; }
  /// Peak strategy footprint observed across closed periods.
  size_t peak_strategy_bytes() const { return peak_strategy_bytes_; }

 private:
  /// Mutable per-worker lifecycle state; `base` carries the current
  /// location/grid (turnaround moves it).
  struct WorkerRecord {
    Worker base;
    int32_t next_free = 0;   // first period the worker is idle again
    int32_t retire_at = 0;   // first period the worker is gone
    bool consumed = false;   // single-use worker already served a task
  };

  /// Tasks submitted to the open period.
  struct Stage {
    std::vector<Task> tasks;
    std::vector<double> valuations;  // aligned; kNoValuation when unknown
    /// Ids already submitted for this period (duplicate-submission guard);
    /// derived from `tasks`, rebuilt — not serialized — on restore.
    std::unordered_set<TaskId> ids;
    void Clear() {
      tasks.clear();
      valuations.clear();
      ids.clear();
    }
  };

  /// Appends and indexes a worker record (the shared half of AddWorker and
  /// AdoptWorker, which place it on the idle list or busy heap).
  Status AppendWorker(const Worker& base, int32_t next_free,
                      int32_t retire_at, int* idx);
  /// Index of the worker a sharded-serving hook may act on (see the hooks'
  /// eligibility rule), or NotFound / FailedPrecondition.
  Status FindStitchableWorker(WorkerId id, int* idx) const;

  const GridPartition* grid_;
  PricingStrategy* strategy_;
  EngineOptions options_;
  int32_t period_ = 0;

  // The period's snapshot, rebuilt by every ClosePeriod() from the open
  // period's stage, which the close then clears.
  MarketSnapshot snapshot_;
  Stage stage_;

  // Worker lifecycle (the simulator's former per-period state machine).
  std::vector<WorkerRecord> workers_;
  std::unordered_map<WorkerId, int> worker_index_;
  using BusyEntry = std::pair<int32_t, int>;  // (next_free, worker index)
  std::priority_queue<BusyEntry, std::vector<BusyEntry>,
                      std::greater<BusyEntry>>
      busy_;
  std::vector<int> idle_;
  std::vector<char> matched_flag_;
  Rng reposition_rng_;

  // Acceptance bits reported for the open period.
  std::unordered_map<TaskId, bool> pending_accept_;

  // Cumulative rejected/ignored event counts (checkpointed).
  EngineRejectionCounters rejections_;

  // Round scratch, pooled across periods (PR 1 workspace contract).
  std::vector<double> prices_;
  std::vector<bool> accepted_;
  std::vector<double> weights_;
  std::vector<Worker> period_workers_;
  std::vector<int> pool_of_;  // snapshot worker index -> workers_ index
  MaxWeightMatchingWorkspace match_ws_;
  std::vector<PricedTask> mc_priced_;
  std::vector<PossibleWorldsWorkspace> mc_workspaces_;

  double strategy_seconds_ = 0.0;
  size_t peak_platform_bytes_ = 0;
  size_t peak_strategy_bytes_ = 0;
  // Size of the last checkpoint blob: the next save reserves that much
  // (plus slack) up front instead of growing its buffer by doubling.
  size_t checkpoint_bytes_hint_ = 0;

  // Observability handles (DESIGN.md §16), resolved once at construction;
  // all null when options.metrics is null so every site is one branch.
  obs::Histogram* m_prebuild_ns_ = nullptr;     // wall-clock
  obs::Histogram* m_price_round_ns_ = nullptr;  // wall-clock
  obs::Histogram* m_matching_ns_ = nullptr;     // wall-clock
  obs::Histogram* m_mc_diag_ns_ = nullptr;      // wall-clock
  obs::Histogram* m_graph_build_ns_ = nullptr;  // wall-clock
  obs::Histogram* m_ckpt_save_ns_ = nullptr;    // wall-clock
  obs::Histogram* m_ckpt_restore_ns_ = nullptr;  // wall-clock
  obs::Histogram* m_ckpt_bytes_ = nullptr;      // deterministic
  obs::Counter* m_periods_closed_ = nullptr;    // deterministic
  obs::Counter* m_dead_periods_ = nullptr;      // deterministic
  obs::Counter* m_graph_builds_ = nullptr;      // deterministic
  obs::Counter* m_graph_edges_ = nullptr;       // deterministic
  RejectionCounterHandles m_reject_;
};

}  // namespace maps
