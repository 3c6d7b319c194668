#include "service/market_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace maps {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int64_t Nanos(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

}  // namespace

const char* RegionHealthStateName(RegionHealth::State state) {
  switch (state) {
    case RegionHealth::State::kNormal:
      return "normal";
    case RegionHealth::State::kQuarantined:
      return "quarantined";
    case RegionHealth::State::kRecovered:
      return "recovered";
    case RegionHealth::State::kFailed:
      return "failed";
  }
  return "?";
}

void RejectionCounterHandles::Resolve(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const auto det = obs::Determinism::kDeterministic;
  duplicate_tasks = registry->GetCounter("engine.reject.duplicate_tasks", det);
  unknown_worker_removals =
      registry->GetCounter("engine.reject.unknown_worker_removals", det);
  busy_worker_removals =
      registry->GetCounter("engine.reject.busy_worker_removals", det);
  orphan_acceptances =
      registry->GetCounter("engine.reject.orphan_acceptances", det);
  deferred_tasks = registry->GetCounter("engine.reject.deferred_tasks", det);
}

void RejectionCounterHandles::Resync(
    const EngineRejectionCounters& before,
    const EngineRejectionCounters& after) const {
  const auto sync = [](obs::Counter* mirror, int64_t from, int64_t to) {
    if (mirror != nullptr && to != from) mirror->Add(to - from);
  };
  sync(duplicate_tasks, before.duplicate_tasks, after.duplicate_tasks);
  sync(unknown_worker_removals, before.unknown_worker_removals,
       after.unknown_worker_removals);
  sync(busy_worker_removals, before.busy_worker_removals,
       after.busy_worker_removals);
  sync(orphan_acceptances, before.orphan_acceptances,
       after.orphan_acceptances);
  sync(deferred_tasks, before.deferred_tasks, after.deferred_tasks);
}

MarketEngine::MarketEngine(const GridPartition* grid,
                           PricingStrategy* strategy,
                           const EngineOptions& options)
    : grid_(grid),
      strategy_(strategy),
      options_(options),
      reposition_rng_(options.lifecycle.reposition_seed) {
  MAPS_CHECK(grid_ != nullptr);
  MAPS_CHECK(strategy_ != nullptr);
  // Lent unconditionally so a pool-less engine clears any pool a previous
  // owner lent to a reused strategy (which may be destroyed by now).
  strategy_->LendPool(options_.pool);
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    const auto det = obs::Determinism::kDeterministic;
    const auto wall = obs::Determinism::kWallClock;
    m_prebuild_ns_ = m->GetHistogram("engine.close.prebuild_ns", wall);
    m_price_round_ns_ = m->GetHistogram("engine.close.price_round_ns", wall);
    m_matching_ns_ = m->GetHistogram("engine.close.matching_ns", wall);
    m_mc_diag_ns_ = m->GetHistogram("engine.close.mc_diag_ns", wall);
    m_graph_build_ns_ = m->GetHistogram("engine.close.graph_build_ns", wall);
    m_ckpt_save_ns_ = m->GetHistogram("checkpoint.save_ns", wall);
    m_ckpt_restore_ns_ = m->GetHistogram("checkpoint.restore_ns", wall);
    m_ckpt_bytes_ = m->GetHistogram("checkpoint.state_bytes", det);
    m_periods_closed_ = m->GetCounter("engine.close.periods", det);
    m_dead_periods_ = m->GetCounter("engine.close.dead_periods", det);
    m_graph_builds_ = m->GetCounter("engine.graph.builds", det);
    m_graph_edges_ = m->GetCounter("engine.graph.edges", det);
    m_reject_.Resolve(m);
  }
}

Status MarketEngine::SubmitTask(const Task& task, double valuation) {
  if (task.grid < 0 || task.grid >= grid_->num_cells()) {
    return Status::InvalidArgument(
        "task " + std::to_string(task.id) + " grid " +
        std::to_string(task.grid) + " outside the partition");
  }
  if (!stage_.ids.insert(task.id).second) {
    obs::BumpMirrored(&rejections_.duplicate_tasks, m_reject_.duplicate_tasks);
    return Status::AlreadyExists("task id " + std::to_string(task.id) +
                                 " already submitted for period " +
                                 std::to_string(period_));
  }
  stage_.tasks.push_back(task);
  stage_.valuations.push_back(valuation);
  return Status::OK();
}

Status MarketEngine::AppendWorker(const Worker& base, int32_t next_free,
                                  int32_t retire_at, int* idx) {
  if (HasWorker(base.id)) {
    return Status::AlreadyExists("worker id " + std::to_string(base.id) +
                                 " already admitted");
  }
  WorkerRecord rec;
  rec.base = base;
  if (rec.base.grid < 0) rec.base.grid = grid_->CellOf(rec.base.location);
  if (rec.base.grid < 0 || rec.base.grid >= grid_->num_cells()) {
    return Status::InvalidArgument("worker " + std::to_string(base.id) +
                                   " outside the partition");
  }
  rec.next_free = next_free;
  rec.retire_at = retire_at;
  *idx = static_cast<int>(workers_.size());
  workers_.push_back(rec);
  matched_flag_.push_back(0);
  worker_index_[base.id] = *idx;
  return Status::OK();
}

Status MarketEngine::AddWorker(const Worker& worker) {
  const int32_t retire_at = worker.duration == Worker::kUnlimitedDuration
                                ? std::numeric_limits<int32_t>::max()
                                : period_ + worker.duration;
  int idx;
  MAPS_RETURN_NOT_OK(AppendWorker(worker, period_, retire_at, &idx));
  idle_.push_back(idx);
  return Status::OK();
}

Status MarketEngine::RemoveWorker(WorkerId id) {
  auto it = worker_index_.find(id);
  if (it == worker_index_.end()) {
    obs::BumpMirrored(&rejections_.unknown_worker_removals,
                      m_reject_.unknown_worker_removals);
    return Status::NotFound("worker id " + std::to_string(id) +
                            " was never added");
  }
  // Retiring as of the open period drops an idle worker at the next
  // availability scan; a busy worker finishes its ride and is dropped on
  // return. Removal is idempotent. Busy removals are honored but counted:
  // callers often believe they are removing an idle worker.
  WorkerRecord& rec = workers_[it->second];
  if (!rec.consumed && rec.next_free > period_ && period_ < rec.retire_at) {
    obs::BumpMirrored(&rejections_.busy_worker_removals,
                      m_reject_.busy_worker_removals);
  }
  rec.retire_at = std::min(rec.retire_at, period_);
  return Status::OK();
}

Status MarketEngine::ObserveAcceptance(TaskId task, bool accepted) {
  pending_accept_[task] = accepted;
  return Status::OK();
}

// --- Sharded-serving hooks (DESIGN.md §13) -------------------------------
// Eligibility for all of them: the worker was offered at the most recently
// closed period and went unmatched — i.e. it sits on the idle list, is not
// consumed or retired, and became free before the now-open period
// (next_free < period_). Workers added during the open period or still on a
// ride fail the next_free test; before the first close nothing qualifies.

namespace {

Status NotStitchable(WorkerId id, const char* why) {
  return Status::FailedPrecondition("worker id " + std::to_string(id) + " " +
                                    why);
}

}  // namespace

void MarketEngine::CollectIdleWorkers(std::vector<Worker>* out) const {
  for (int idx : idle_) {
    const WorkerRecord& rec = workers_[idx];
    if (rec.consumed || rec.retire_at < period_ || rec.next_free >= period_) {
      continue;
    }
    out->push_back(rec.base);
  }
}

Status MarketEngine::FindStitchableWorker(WorkerId id, int* idx) const {
  const auto it = worker_index_.find(id);
  if (it == worker_index_.end()) {
    return Status::NotFound("worker id " + std::to_string(id) +
                            " is unknown to this engine");
  }
  const WorkerRecord& rec = workers_[it->second];
  if (rec.consumed) return NotStitchable(id, "was already consumed");
  if (rec.retire_at < period_) return NotStitchable(id, "has retired");
  if (rec.next_free >= period_) {
    return NotStitchable(id, "was not idle at the last close");
  }
  *idx = it->second;
  return Status::OK();
}

Status MarketEngine::ConsumeIdleWorker(WorkerId id) {
  int idx;
  MAPS_RETURN_NOT_OK(FindStitchableWorker(id, &idx));
  // The idle list drops consumed records at the next availability scan.
  workers_[idx].consumed = true;
  return Status::OK();
}

Status MarketEngine::DispatchIdleWorker(WorkerId id, const Point& destination,
                                        int32_t next_free) {
  if (HasWorker(id) && next_free < period_) {
    return Status::InvalidArgument(
        "dispatch of worker " + std::to_string(id) + " ends at period " +
        std::to_string(next_free) + ", before the open period " +
        std::to_string(period_));
  }
  int idx;
  MAPS_RETURN_NOT_OK(FindStitchableWorker(id, &idx));
  WorkerRecord& rec = workers_[idx];
  idle_.erase(std::find(idle_.begin(), idle_.end(), idx));
  rec.base.location = destination;
  rec.base.grid = grid_->CellOf(destination);
  rec.next_free = next_free;
  busy_.push({next_free, idx});
  return Status::OK();
}

Status MarketEngine::ExtractIdleWorker(WorkerId id, Worker* base,
                                       int32_t* retire_at) {
  int idx;
  MAPS_RETURN_NOT_OK(FindStitchableWorker(id, &idx));
  WorkerRecord& rec = workers_[idx];
  *base = rec.base;
  *retire_at = rec.retire_at;
  // Tombstone: the record stays (indices into workers_ are stable) but the
  // id is forgotten, so the worker can be adopted elsewhere — or even
  // re-adopted here later under the same id.
  rec.consumed = true;
  idle_.erase(std::find(idle_.begin(), idle_.end(), idx));
  worker_index_.erase(id);
  return Status::OK();
}

Status MarketEngine::AdoptWorker(const Worker& base, int32_t next_free,
                                 int32_t retire_at) {
  int idx;
  MAPS_RETURN_NOT_OK(AppendWorker(base, next_free, retire_at, &idx));
  // Still riding (or freed exactly at the open period): the busy heap
  // returns it at the close of period next_free; already free: offer it at
  // the open period's close.
  if (next_free >= period_) {
    busy_.push({next_free, idx});
  } else {
    idle_.push_back(idx);
  }
  return Status::OK();
}

void MarketEngine::AdvanceQuietPeriod() {
  const int32_t t = period_;
  // Rides that ended by now return to the idle list in heap (next_free,
  // index) order, exactly as a real close would have returned them.
  while (!busy_.empty() && busy_.top().first <= t) {
    idle_.push_back(busy_.top().second);
    busy_.pop();
  }
  // Drop the open period's events without accounting: the sharded layer
  // already deferred its tasks and kept (or orphan-counted) its bits.
  pending_accept_.clear();
  stage_.Clear();
  ++period_;
}

void MarketEngine::CollectWorkerIds(std::vector<WorkerId>* out) const {
  for (const auto& [id, idx] : worker_index_) out->push_back(id);
}

int64_t MarketEngine::num_live_workers() const {
  int64_t live = 0;
  for (const WorkerRecord& rec : workers_) {
    if (!rec.consumed && period_ < rec.retire_at) ++live;
  }
  return live;
}

Status MarketEngine::ClosePeriod(PeriodOutcome* out) {
  if (out == nullptr) return Status::InvalidArgument("null outcome");
  const int32_t t = period_;

  // The task side of the snapshot: bucketing and distance prefix sums.
  {
    obs::ScopedTimer prebuild_timer(m_prebuild_ns_);
    snapshot_.ResetTasks(grid_, t, stage_.tasks.data(),
                         stage_.tasks.data() + stage_.tasks.size());
  }

  out->period = t;
  out->skipped = false;
  out->prices.clear();
  out->accepted.clear();
  out->matches.clear();
  out->revenue = 0.0;
  out->mc_expected_revenue = 0.0;
  out->num_tasks = static_cast<int32_t>(stage_.tasks.size());
  out->num_available_workers = 0;

  const bool single_use = options_.lifecycle.single_use;
  const double speed = options_.lifecycle.speed;

  // Return workers whose ride finished. (Entrants were appended to the idle
  // list by AddWorker during the open period, so the list reads: survivors
  // of earlier periods, then this period's entrants, then returns — the
  // same order the batch loop produced.)
  while (!busy_.empty() && busy_.top().first <= t) {
    idle_.push_back(busy_.top().second);
    busy_.pop();
  }

  // Collect available workers, dropping retired ones permanently.
  period_workers_.clear();
  pool_of_.clear();
  size_t keep = 0;
  for (int idx : idle_) {
    const WorkerRecord& rec = workers_[idx];
    if (rec.consumed || t >= rec.retire_at) continue;
    idle_[keep++] = idx;
    period_workers_.push_back(rec.base);
    pool_of_.push_back(idx);
  }
  idle_.resize(keep);
  out->num_available_workers = static_cast<int32_t>(period_workers_.size());

  // Dead period: nothing to price or match; the strategy is not consulted.
  if (stage_.tasks.empty() && period_workers_.empty()) {
    out->skipped = true;
    // No tasks were in the period, so every reported bit is an orphan.
    obs::BumpMirrored(&rejections_.orphan_acceptances,
                      m_reject_.orphan_acceptances,
                      static_cast<int64_t>(pending_accept_.size()));
    out->rejections = rejections_;
    pending_accept_.clear();
    stage_.Clear();
    if (m_periods_closed_ != nullptr) m_periods_closed_->Increment();
    if (m_dead_periods_ != nullptr) m_dead_periods_->Increment();
    if (options_.trace != nullptr) {
      options_.trace->Emit(obs::TraceEvent::Kind::kPeriodClosed, t,
                           /*region=*/-1, /*value=*/0, "dead");
      options_.trace->Emit(obs::TraceEvent::Kind::kPeriodOpened, t + 1,
                           /*region=*/-1, /*value=*/0, "");
    }
    ++period_;
    return Status::OK();
  }

  // Attaching the workers builds the period's one bipartite graph, which
  // the strategy, the diagnostic and the assignment below all read.
  {
    obs::ScopedTimer graph_timer(m_graph_build_ns_);
    snapshot_.SetWorkers(period_workers_.data(),
                         period_workers_.data() + period_workers_.size());
  }
  if (m_graph_builds_ != nullptr) {
    m_graph_builds_->Increment();
    m_graph_edges_->Add(snapshot_.graph().num_edges());
  }

  // Price.
  const auto price_start = Clock::now();
  MAPS_RETURN_NOT_OK(strategy_->PriceRound(snapshot_, &prices_));
  if (static_cast<int>(prices_.size()) != snapshot_.num_grids()) {
    return Status::Internal(strategy_->name() +
                            " returned wrong price vector size");
  }

  // Requesters decide; the strategy sees only the bits. An explicit
  // ObserveAcceptance() bit wins over the hidden valuation; a task with
  // neither declines (kNoValuation is NaN, false against any price). The
  // map lookup is skipped entirely when no bit was observed (the replay
  // path), keeping this loop as cheap as the retired batch loop's.
  const bool has_observed_bits = !pending_accept_.empty();
  size_t consumed_bits = 0;
  accepted_.assign(snapshot_.tasks().size(), false);
  for (size_t i = 0; i < snapshot_.tasks().size(); ++i) {
    const Task& task = snapshot_.tasks()[i];
    bool accepted = stage_.valuations[i] >= prices_[task.grid];
    if (has_observed_bits) {
      const auto it = pending_accept_.find(task.id);
      if (it != pending_accept_.end()) {
        accepted = it->second;
        ++consumed_bits;
      }
    }
    accepted_[i] = accepted;
    if (accepted) out->accepted.push_back(task.id);
  }
  strategy_->ObserveFeedback(snapshot_, prices_, accepted_);
  const auto price_end = Clock::now();
  strategy_seconds_ += Seconds(price_start, price_end);
  if (m_price_round_ns_ != nullptr) {
    m_price_round_ns_->Record(Nanos(price_start, price_end));
  }
  // Bits that matched no task of the period are orphans (task ids are
  // unique within a period, so each consumed bit was counted once).
  obs::BumpMirrored(&rejections_.orphan_acceptances,
                    m_reject_.orphan_acceptances,
                    static_cast<int64_t>(pending_accept_.size() - consumed_bits));
  out->rejections = rejections_;
  pending_accept_.clear();
  out->prices.assign(prices_.begin(), prices_.end());

  // Monte-Carlo expected-revenue diagnostic: E[U(B^t)] of the posted prices
  // under the TRUE acceptance ratios (Def. 6) — simulation-only, since it
  // needs the ground-truth oracle. Period t's worlds live in seed family
  // mc_seed + t so every (period, world) pair is an independent,
  // reproducible stream.
  if (options_.mc_worlds > 0 && options_.mc_oracle != nullptr &&
      !snapshot_.tasks().empty()) {
    obs::ScopedTimer mc_timer(m_mc_diag_ns_);
    mc_priced_.clear();
    for (const Task& task : snapshot_.tasks()) {
      const double p = prices_[task.grid];
      mc_priced_.push_back(PricedTask{
          task.distance, p, options_.mc_oracle->TrueAcceptRatio(task.grid, p)});
    }
    out->mc_expected_revenue = MonteCarloExpectedRevenue(
        snapshot_.graph(), mc_priced_,
        options_.mc_seed + static_cast<uint64_t>(t), options_.mc_worlds,
        options_.pool, &mc_workspaces_);
  }

  // Assignment: maximum-weight matching over accepted tasks (Def. 5).
  // Matching buffers are pooled across periods.
  {
    obs::ScopedTimer matching_timer(m_matching_ns_);
    weights_.assign(snapshot_.tasks().size(), -1.0);
    for (size_t i = 0; i < snapshot_.tasks().size(); ++i) {
      if (!accepted_[i]) continue;
      weights_[i] =
          snapshot_.tasks()[i].distance * prices_[snapshot_.tasks()[i].grid];
    }
    // Called for the matching it leaves in match_ws_.inc; revenue needs
    // per-task attribution below, not the returned total.
    (void)MaxWeightTaskMatchingValue(snapshot_.graph(), weights_, &match_ws_);
  }
  const Matching& period_matching = match_ws_.inc.matching();

  // Revenue and worker lifecycle updates.
  int32_t n_matched = 0;
  for (size_t i = 0; i < snapshot_.tasks().size(); ++i) {
    const int r = period_matching.match_left[i];
    if (r == Matching::kUnmatched) continue;
    MAPS_DCHECK(accepted_[i]);
    ++n_matched;
    out->revenue += weights_[i];
    const int idx = pool_of_[r];
    WorkerRecord& rec = workers_[idx];
    out->matches.push_back(
        MatchRecord{snapshot_.tasks()[i].id, rec.base.id, weights_[i]});
    if (single_use) {
      rec.consumed = true;
    } else {
      const Task& task = snapshot_.tasks()[i];
      const int32_t ride = std::max(
          1, static_cast<int32_t>(std::ceil(task.distance / speed)));
      rec.next_free = t + ride;
      rec.base.location = task.destination;
      rec.base.grid = grid_->CellOf(task.destination);
      busy_.push({rec.next_free, idx});
    }
    matched_flag_[idx] = 1;
  }

  // Drop matched workers from the idle list in one pass.
  if (n_matched > 0) {
    size_t keep2 = 0;
    for (int idx : idle_) {
      if (matched_flag_[idx]) {
        matched_flag_[idx] = 0;
      } else {
        idle_[keep2++] = idx;
      }
    }
    idle_.resize(keep2);
  }

  // Idle workers chase surge prices (Sec. 4.2.3): move to the best-priced
  // adjacent cell with probability reposition_prob.
  if (options_.lifecycle.reposition_prob > 0.0) {
    const GridPartition& gp = *grid_;
    for (int idx : idle_) {
      if (!reposition_rng_.NextBernoulli(
              options_.lifecycle.reposition_prob)) {
        continue;
      }
      WorkerRecord& rec = workers_[idx];
      const GridId here = rec.base.grid;
      const int row = here / gp.cols();
      const int col = here % gp.cols();
      GridId best = here;
      for (int dr = -1; dr <= 1; ++dr) {
        for (int dc = -1; dc <= 1; ++dc) {
          const int nr = row + dr;
          const int nc = col + dc;
          if (nr < 0 || nr >= gp.rows() || nc < 0 || nc >= gp.cols()) {
            continue;
          }
          const GridId cand = nr * gp.cols() + nc;
          if (prices_[cand] > prices_[best]) best = cand;
        }
      }
      if (best != here) {
        rec.base.location = gp.CellCenter(best);
        rec.base.grid = best;
      }
    }
  }

  // Platform footprint: the snapshot (holding the period's graph) + the
  // lifecycle table.
  const size_t platform_bytes = snapshot_.FootprintBytes() +
                                workers_.capacity() * sizeof(WorkerRecord);
  peak_platform_bytes_ = std::max(peak_platform_bytes_, platform_bytes);
  peak_strategy_bytes_ =
      std::max(peak_strategy_bytes_, strategy_->MemoryFootprintBytes());

  stage_.Clear();
  if (m_periods_closed_ != nullptr) m_periods_closed_->Increment();
  if (options_.trace != nullptr) {
    options_.trace->Emit(obs::TraceEvent::Kind::kPeriodClosed, t,
                         /*region=*/-1, /*value=*/n_matched, "");
    options_.trace->Emit(obs::TraceEvent::Kind::kPeriodOpened, t + 1,
                         /*region=*/-1, /*value=*/0, "");
  }
  ++period_;
  return Status::OK();
}

}  // namespace maps
