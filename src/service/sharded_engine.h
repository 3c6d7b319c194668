// ShardedMarketEngine: the multi-region deployment of the serving core
// (DESIGN.md §13). The city grid is split into K contiguous row bands by a
// RegionPartition; each band is served by its own MarketEngine — private
// snapshot pair, private strategy instance, private worker pool shard — and
// the sharded engine is a thin router in front of them:
//
//   * SubmitTask routes by the task's origin cell; AddWorker by the
//     worker's location cell; ObserveAcceptance by this layer's per-period
//     task routes. RemoveWorker goes to the region that holds the worker:
//     the regions' own worker indices are the only record of placement
//     (they hold disjoint id sets; migration moves an id between them).
//   * ClosePeriod closes all K regions — concurrently when a pool was
//     lent, the regions share no mutable state — then merges the per-region
//     outcomes into one PeriodOutcome in GLOBAL SUBMISSION ORDER (every
//     task carries a submission sequence number; accepted ids, matches, and
//     the revenue fold all follow it), so a boundary-free sharded close is
//     bit-identical to the monolithic engine's at any thread count.
//   * After the merge, a deterministic BOUNDARY-STITCH pass reconciles the
//     seams: accepted-but-unmatched tasks in boundary cells are offered to
//     idle unmatched workers of neighboring regions whose reach disc covers
//     the task origin (the exact edge predicate of the matching graph),
//     greedily in (weight desc, task seq asc, worker id asc) order. Matched
//     turnaround workers whose ride ends in a foreign band migrate to the
//     owning region; a final repatriation sweep moves idle workers standing
//     in foreign-owned cells home. Everything after the close barrier is
//     serial and ordered — thread count never changes results.
//
// Known, deliberate divergences from the monolithic engine (all absent from
// the boundary-free equivalence contract): the stitch is one greedy
// augmentation round, not a re-run of the global max-weight matching; each
// region reposition-RNG stream is derived from the base seed; a skipped
// region re-posts its cached last prices into the merged vector; the MC
// diagnostic is summed per region. See DESIGN.md §13 for the full list.
//
// Checkpointing covers all K regions in one container ("MAPSSHRD"): a
// partition-aware fingerprint (grid, K, band layout, lifecycle), this
// layer's routing state, and one embedded single-engine checkpoint per
// region. Restore with a different K or band layout fails with
// FailedPrecondition before anything is touched.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geo/region_partition.h"
#include "service/market_engine.h"

namespace maps {

/// \brief K-region sharded serving engine; same event surface as
/// MarketEngine. Not thread-safe: one logical event stream, like the
/// monolith.
class ShardedMarketEngine {
 public:
  /// \param grid the full city partition (regions price over the full
  ///        grid; cell ownership comes from `partition`). Non-owning.
  /// \param partition the region layout; non-owning, must outlive the
  ///        engine and match `grid`'s dimensions.
  /// \param strategies one strategy per region, each warmed by the caller
  ///        (warm all of them against the SAME oracle stream to make their
  ///        learned state identical — see DESIGN.md §13). Non-owning.
  /// \param options lifecycle/MC knobs as for MarketEngine. `options.pool`
  ///        parallelizes ACROSS regions (each region engine runs serially
  ///        inside).
  ShardedMarketEngine(const GridPartition* grid,
                      const RegionPartition* partition,
                      std::vector<PricingStrategy*> strategies,
                      const EngineOptions& options = {});

  ShardedMarketEngine(const ShardedMarketEngine&) = delete;
  ShardedMarketEngine& operator=(const ShardedMarketEngine&) = delete;

  /// Routes to the region owning the task's origin cell. Duplicate ids
  /// within the open period are rejected here (AlreadyExists, counted) even
  /// across regions, exactly like the monolith's per-period id set.
  Status SubmitTask(const Task& task,
                    double valuation = MarketEngine::kNoValuation);

  /// Routes to the region owning the worker's location cell. Ids must be
  /// unique across the run (and across regions).
  Status AddWorker(const Worker& worker);

  /// Routes to the region whose worker index holds the id (migration moves
  /// it). Ids no region knows are NotFound and counted at this layer.
  Status RemoveWorker(WorkerId id);

  /// Buffered until the close, then forwarded to the submitting region;
  /// bits for tasks not in the period are orphans, counted at the close.
  Status ObserveAcceptance(TaskId task, bool accepted);

  /// Closes the open period on every region (concurrently with a pool),
  /// merges the outcomes in global submission order, runs the boundary
  /// stitch and the repatriation sweep. `out`'s storage is reused.
  Status ClosePeriod(PeriodOutcome* out);

  /// One container for the whole deployment: partition fingerprint,
  /// routing state, and K embedded per-region checkpoints
  /// (docs/checkpoint_format.md).
  Status SaveCheckpoint(std::string* out);

  /// All regions restored from one SaveCheckpoint container. The engine
  /// must be configured like the saver — same grid, same K and band
  /// layout, same lifecycle, same per-region strategy types — or the
  /// restore fails with FailedPrecondition. All-or-nothing: a damaged
  /// container is rejected before any region is touched. A region blob its
  /// engine rejects fails with that engine's code, prefixed "restoring
  /// region k: ", and a worker owner table the restored regions disagree
  /// with is InvalidArgument; both after every region is rolled back.
  Status RestoreFromCheckpoint(const std::string& data);

  /// Merged counters: this layer's routing rejections plus every region's.
  EngineRejectionCounters rejections() const;

  /// Current failure-domain health of region `k` (DESIGN.md §15). Always
  /// kNormal when failure domains are disabled.
  RegionHealth region_health(int k) const;

  /// Tasks currently parked in deferral queues awaiting a region recovery
  /// (0 unless a region is quarantined or failed).
  int64_t num_deferred_tasks() const;

  int32_t current_period() const { return period_; }
  int num_regions() const { return static_cast<int>(regions_.size()); }
  int64_t num_live_workers() const;
  /// Summed over regions (total time inside strategies).
  double strategy_seconds() const;
  /// Summed over regions.
  size_t peak_platform_bytes() const;
  size_t peak_strategy_bytes() const;

  /// The region shard, for tests and diagnostics.
  MarketEngine* region_engine(int k) { return regions_[k].get(); }
  const MarketEngine* region_engine(int k) const { return regions_[k].get(); }

 private:
  /// Where a task of the open period went, plus everything the stitch
  /// needs to reconsider it after the close.
  struct TaskRoute {
    int region = 0;
    int64_t seq = 0;  // global submission order within the run
    Task task;
    /// The hidden valuation as submitted, kept so a deferred task can be
    /// resubmitted identically after a quarantine (DESIGN.md §15).
    double valuation = MarketEngine::kNoValuation;
  };

  // --- Failure domains (DESIGN.md §15); dormant unless
  // options_.failure_domains.enabled. ------------------------------------

  /// A task parked while its region is quarantined; resubmitted with its
  /// ORIGINAL submission sequence at the region's next close attempt, so
  /// the merge order is a pure function of the submission history.
  struct DeferredTask {
    int64_t seq = 0;
    Task task;
    double valuation = MarketEngine::kNoValuation;
    bool has_accept = false;
    bool accept = false;
  };

  /// Per-region failure-domain state.
  struct RegionDomain {
    RegionHealth::State state = RegionHealth::State::kNormal;
    /// The region engine saved just before its latest close attempt:
    /// exactly the state that close found. A failed close restores it and
    /// quiet-advances one period.
    std::string pre_close;
    int attempts = 0;          // recovery attempts consumed
    int backoff = 0;           // periods until the next retry (doubles)
    int32_t next_retry = -1;   // period of the next close attempt
    int32_t quarantined_since = -1;
  };

  bool failure_domains_enabled() const {
    return options_.failure_domains.enabled;
  }
  /// Books a close failure of region k at period t: first failure enters
  /// quarantine (attempt 1, retry next period); a failed retry doubles the
  /// backoff; attempts beyond the budget turn the region kFailed. Always
  /// rewinds the region: restores its pre-close snapshot and quiet-advances
  /// it to period t + 1, in lockstep with the others.
  Status QuarantineRegion(int k, int32_t t);
  /// The open period's routes to region k (every region when k < 0), in
  /// submission order.
  std::vector<const TaskRoute*> RoutesInOrder(int k) const;
  /// Moves every open task routed to (inactive) region k into its deferral
  /// queue, bits included, with conservation accounting.
  void DeferRegionTasks(int k);
  /// Re-forwards region k's deferral queue (original seqs) ahead of a
  /// recovery close attempt.
  Status ResubmitDeferred(int k);

  /// The region whose worker index holds `id`, or -1 when none does.
  int RegionOfWorker(WorkerId id) const;
  /// (worker id, holding region) for every id any region knows, ascending
  /// by id: the checkpoint's owner table.
  std::vector<std::pair<WorkerId, int>> WorkerOwners() const;

  Status CloseAllRegions(int32_t t);
  void MergeOutcomes(int32_t t, PeriodOutcome* out);
  Status StitchBoundary(int32_t t, PeriodOutcome* out);
  Status RepatriateIdleWorkers(int32_t t);

  const GridPartition* grid_;
  const RegionPartition* partition_;
  EngineOptions options_;
  ThreadPool* pool_ = nullptr;
  std::vector<std::unique_ptr<MarketEngine>> regions_;
  std::vector<int> owner_of_cell_;  // cell id -> owning region

  int32_t period_ = 0;
  int64_t next_seq_ = 0;
  std::unordered_map<TaskId, TaskRoute> task_route_;  // open period only
  std::unordered_map<TaskId, bool> pending_accept_;
  /// Routing-layer rejections (duplicates caught here, unknown removals,
  /// orphan bits for never-submitted tasks); merged with the regions' own
  /// counters in rejections().
  EngineRejectionCounters local_rejections_;
  /// Last posted prices per region (full grid vector): a region that skips
  /// a period re-posts its cached quotes into the merged price vector.
  std::vector<std::vector<double>> region_prices_;
  /// Size of the last SaveCheckpoint container, reserved (plus slack) by
  /// the next one.
  size_t checkpoint_bytes_hint_ = 0;

  // Failure-domain state (empty shells when disabled).
  std::vector<RegionDomain> domains_;
  std::vector<std::vector<DeferredTask>> deferred_;

  // Observability handles (DESIGN.md §16), resolved once at construction;
  // all null when options.metrics is null. Region engines share the
  // registry (their counters sum into the same names) but get no trace:
  // region closes run concurrently and would interleave seq ids. All
  // sharded-layer trace appends happen on the serial path of ClosePeriod.
  obs::Histogram* m_region_close_ns_ = nullptr;   // wall-clock, per region
  obs::Histogram* m_merge_ns_ = nullptr;          // wall-clock
  obs::Histogram* m_stitch_ns_ = nullptr;         // wall-clock
  obs::Histogram* m_repatriate_ns_ = nullptr;     // wall-clock
  obs::Counter* m_quarantines_ = nullptr;         // deterministic
  obs::Counter* m_rewinds_ = nullptr;             // deterministic
  obs::Counter* m_backoff_retries_ = nullptr;     // deterministic
  obs::Counter* m_permanent_failures_ = nullptr;  // deterministic
  obs::Counter* m_stitch_matches_ = nullptr;      // deterministic
  obs::Counter* m_repatriations_ = nullptr;       // deterministic
  RejectionCounterHandles m_reject_;

  // Per-close scratch, pooled across periods.
  std::vector<PeriodOutcome> region_outcomes_;
  std::vector<Status> region_status_;
  /// Region k participates in this period's close (healthy, or retrying);
  /// quarantined/failed regions are inactive and quiet-advance instead.
  std::vector<char> region_active_;
  std::vector<std::pair<int64_t, MatchRecord>> merge_matches_;
  std::vector<std::pair<int64_t, TaskId>> merge_accepted_;
  std::vector<Worker> idle_scratch_;
  std::vector<GridId> cell_scratch_;
};

}  // namespace maps
