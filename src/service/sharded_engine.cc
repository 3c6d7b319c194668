#include "service/sharded_engine.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/checkpoint.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/serial.h"

namespace maps {

namespace {

/// Per-region repositioning seed: region 0 keeps the base seed (so a K=1
/// deployment is bit-identical to the monolith even with repositioning on);
/// the others get decorrelated streams derived from it.
uint64_t RegionRepositionSeed(uint64_t base, int k) {
  if (k == 0) return base;
  return base ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(k));
}

// Sharded container sections (magic kShardedCheckpointMagic). Version 2
// added the per-route hidden valuation and the deferred_tasks counter to
// the routing section (failure domains, DESIGN.md §15).
enum ShardedSectionId : uint32_t {
  kShardedSectionPartition = 1,  // grid + band-layout + lifecycle fingerprint
  kShardedSectionRouting = 2,    // this layer's period/routing/cache state
  kShardedSectionRegions = 3,    // K embedded single-engine checkpoints
};
constexpr uint32_t kNumShardedSections = 3;

}  // namespace

ShardedMarketEngine::ShardedMarketEngine(
    const GridPartition* grid, const RegionPartition* partition,
    std::vector<PricingStrategy*> strategies, const EngineOptions& options)
    : grid_(grid), partition_(partition), options_(options) {
  MAPS_CHECK(grid_ != nullptr);
  MAPS_CHECK(partition_ != nullptr);
  MAPS_CHECK(partition_->rows() == grid_->rows());
  MAPS_CHECK(partition_->cols() == grid_->cols());
  MAPS_CHECK(static_cast<int>(strategies.size()) ==
             partition_->num_regions());
  pool_ = options_.pool;

  const int num_regions = partition_->num_regions();
  regions_.reserve(num_regions);
  for (int k = 0; k < num_regions; ++k) {
    MAPS_CHECK(strategies[k] != nullptr);
    // Region engines run serially inside: the lent pool parallelizes
    // ACROSS regions only, which keeps every region close bit-identical to
    // its serial self and the whole close trivially race-free.
    EngineOptions region_options = options_;
    region_options.pool = nullptr;
    // Regions inherit the registry (order-independent counter sums) but
    // never the trace: concurrent region closes would interleave seq ids.
    region_options.trace = nullptr;
    region_options.lifecycle.reposition_seed = RegionRepositionSeed(
        options_.lifecycle.reposition_seed, k);
    regions_.push_back(std::make_unique<MarketEngine>(grid_, strategies[k],
                                                      region_options));
  }

  owner_of_cell_.resize(grid_->num_cells());
  for (GridId g = 0; g < grid_->num_cells(); ++g) {
    owner_of_cell_[g] = partition_->RegionOfGrid(g);
  }
  region_prices_.assign(num_regions,
                        std::vector<double>(grid_->num_cells(), 0.0));
  domains_.resize(num_regions);
  deferred_.resize(num_regions);
  region_outcomes_.resize(num_regions);
  region_status_.resize(num_regions);
  region_active_.assign(num_regions, 1);

  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    const auto det = obs::Determinism::kDeterministic;
    const auto wall = obs::Determinism::kWallClock;
    m_region_close_ns_ = m->GetHistogram("sharded.region_close_ns", wall);
    m_merge_ns_ = m->GetHistogram("sharded.merge_ns", wall);
    m_stitch_ns_ = m->GetHistogram("sharded.stitch_ns", wall);
    m_repatriate_ns_ = m->GetHistogram("sharded.repatriate_ns", wall);
    m_quarantines_ = m->GetCounter("sharded.fd.quarantines", det);
    m_rewinds_ = m->GetCounter("sharded.fd.rewinds", det);
    m_backoff_retries_ = m->GetCounter("sharded.fd.backoff_retries", det);
    m_permanent_failures_ = m->GetCounter("sharded.fd.permanent_failures",
                                          det);
    m_stitch_matches_ = m->GetCounter("sharded.stitch_matches", det);
    m_repatriations_ = m->GetCounter("sharded.repatriations", det);
    m_reject_.Resolve(m);
  }
}

Status ShardedMarketEngine::SubmitTask(const Task& task, double valuation) {
  if (task.grid < 0 || task.grid >= grid_->num_cells()) {
    return Status::InvalidArgument(
        "task " + std::to_string(task.id) + " grid " +
        std::to_string(task.grid) + " outside the partition");
  }
  auto [it, inserted] = task_route_.try_emplace(task.id);
  if (!inserted) {
    obs::BumpMirrored(&local_rejections_.duplicate_tasks,
                      m_reject_.duplicate_tasks);
    return Status::AlreadyExists("task id " + std::to_string(task.id) +
                                 " already submitted for period " +
                                 std::to_string(period_));
  }
  const int region = owner_of_cell_[task.grid];
  // A quarantined region's forwarding is paused: the task is routed (so
  // duplicates and ordering behave normally) and joins the region's close
  // attempt or deferral queue at this period's close.
  if (!failure_domains_enabled() ||
      domains_[region].state == RegionHealth::State::kNormal) {
    const Status forwarded = regions_[region]->SubmitTask(task, valuation);
    if (!forwarded.ok()) {
      task_route_.erase(it);
      return forwarded;
    }
  }
  it->second.region = region;
  it->second.seq = next_seq_++;
  it->second.task = task;
  it->second.valuation = valuation;
  return Status::OK();
}

int ShardedMarketEngine::RegionOfWorker(WorkerId id) const {
  for (int k = 0; k < num_regions(); ++k) {
    if (regions_[k]->HasWorker(id)) return k;
  }
  return -1;
}

Status ShardedMarketEngine::AddWorker(const Worker& worker) {
  if (RegionOfWorker(worker.id) >= 0) {
    return Status::AlreadyExists("worker id " + std::to_string(worker.id) +
                                 " already admitted");
  }
  Worker w = worker;
  if (w.grid < 0) w.grid = grid_->CellOf(w.location);
  if (w.grid < 0 || w.grid >= grid_->num_cells()) {
    return Status::InvalidArgument("worker " + std::to_string(worker.id) +
                                   " outside the partition");
  }
  return regions_[owner_of_cell_[w.grid]]->AddWorker(w);
}

Status ShardedMarketEngine::RemoveWorker(WorkerId id) {
  const int region = RegionOfWorker(id);
  if (region < 0) {
    obs::BumpMirrored(&local_rejections_.unknown_worker_removals,
                      m_reject_.unknown_worker_removals);
    return Status::NotFound("worker id " + std::to_string(id) +
                            " was never added");
  }
  return regions_[region]->RemoveWorker(id);
}

Status ShardedMarketEngine::ObserveAcceptance(TaskId task, bool accepted) {
  pending_accept_[task] = accepted;
  return Status::OK();
}

// --- Failure-domain machinery (DESIGN.md §15) ----------------------------

Status ShardedMarketEngine::QuarantineRegion(int k, int32_t t) {
  RegionDomain& dom = domains_[k];
  region_active_[k] = 0;
  if (dom.state == RegionHealth::State::kNormal) {
    dom.state = RegionHealth::State::kQuarantined;
    dom.attempts = 1;
    dom.backoff = 1;
    dom.next_retry = t + 1;
    dom.quarantined_since = t;
    if (m_quarantines_ != nullptr) m_quarantines_->Increment();
  } else {
    // A recovery attempt just failed: deterministic exponential backoff in
    // periods (attempt counts, never wall clock), then permanent
    // degradation once the budget is spent.
    ++dom.attempts;
    if (dom.attempts > options_.failure_domains.max_recovery_attempts) {
      dom.state = RegionHealth::State::kFailed;
      dom.next_retry = -1;
      if (m_permanent_failures_ != nullptr) m_permanent_failures_->Increment();
    } else {
      dom.backoff *= 2;
      dom.next_retry = t + dom.backoff;
      if (m_backoff_retries_ != nullptr) m_backoff_retries_->Increment();
    }
  }
  // Rewind: the pre-close snapshot is the region exactly as the failed (or
  // stalled) close found it, so restoring it undoes whatever that close
  // did; one quiet advance then has the region sit out period t and open
  // t + 1 in lockstep with everyone else.
  const Status s = regions_[k]->RestoreFromCheckpoint(dom.pre_close);
  if (!s.ok()) {
    return Status::Internal("quarantine restore of region " +
                            std::to_string(k) + ": " + s.message());
  }
  if (m_rewinds_ != nullptr) m_rewinds_->Increment();
  regions_[k]->AdvanceQuietPeriod();
  return Status::OK();
}

std::vector<const ShardedMarketEngine::TaskRoute*>
ShardedMarketEngine::RoutesInOrder(int k) const {
  std::vector<const TaskRoute*> routes;
  for (const auto& [id, route] : task_route_) {
    if (k < 0 || route.region == k) routes.push_back(&route);
  }
  std::sort(routes.begin(), routes.end(),
            [](const TaskRoute* a, const TaskRoute* b) {
              return a->seq < b->seq;
            });
  return routes;
}

void ShardedMarketEngine::DeferRegionTasks(int k) {
  // Sweep the open routes of an inactive region into its deferral queue in
  // submission order; acceptance bits ride along. Existing queue entries
  // carry strictly smaller seqs, so the queue stays seq-sorted.
  for (const TaskRoute* route : RoutesInOrder(k)) {
    const TaskId id = route->task.id;
    DeferredTask d;
    d.seq = route->seq;
    d.task = route->task;
    d.valuation = route->valuation;
    const auto bit = pending_accept_.find(id);
    if (bit != pending_accept_.end()) {
      d.has_accept = true;
      d.accept = bit->second;
    }
    deferred_[k].push_back(std::move(d));
    task_route_.erase(id);  // frees *route, which is not used again
    obs::BumpMirrored(&local_rejections_.deferred_tasks,
                      m_reject_.deferred_tasks);
  }
}

Status ShardedMarketEngine::ResubmitDeferred(int k) {
  // Queue entries rejoin the route table under their ORIGINAL seqs; a
  // collision with a task id submitted fresh this period is a duplicate
  // (counted, deferred copy dropped) exactly like a same-period resubmit.
  for (const DeferredTask& d : deferred_[k]) {
    auto [it, inserted] = task_route_.try_emplace(d.task.id);
    if (!inserted) {
      obs::BumpMirrored(&local_rejections_.duplicate_tasks,
                        m_reject_.duplicate_tasks);
      continue;
    }
    it->second.region = k;
    it->second.seq = d.seq;
    it->second.task = d.task;
    it->second.valuation = d.valuation;
    // An explicit bit observed THIS period wins over the deferred one.
    if (d.has_accept) pending_accept_.try_emplace(d.task.id, d.accept);
  }
  deferred_[k].clear();
  // Nothing routed to this region was forwarded while it was quarantined;
  // forward everything now, in submission order so the region's stage
  // reads like an uninterrupted submission stream.
  for (const TaskRoute* route : RoutesInOrder(k)) {
    MAPS_RETURN_NOT_OK(regions_[k]->SubmitTask(route->task, route->valuation));
  }
  return Status::OK();
}

Status ShardedMarketEngine::CloseAllRegions(int32_t t) {
  const int num_regions = static_cast<int>(regions_.size());
  const bool fd = failure_domains_enabled();

  // Injected fault decisions are made serially BEFORE the dispatch: the
  // injector is not thread-safe and firing order must be deterministic.
  std::vector<char> inject_fail(num_regions, 0);
  std::vector<char> inject_stall(num_regions, 0);
  FaultInjector& injector = FaultInjector::Global();
  if (injector.armed()) {
    for (int k = 0; k < num_regions; ++k) {
      if (!region_active_[k]) continue;
      if (injector.ShouldFire(FaultRule::Kind::kRegionCloseFail, k, t)) {
        inject_fail[k] = 1;
      } else if (injector.ShouldFire(FaultRule::Kind::kRegionCloseStall, k,
                                     t)) {
        inject_stall[k] = 1;
      }
    }
  }

  // Restore points, taken serially before the dispatch: each closing
  // region exactly as its close will find it, staged tasks and bits
  // included. A snapshot error fails ClosePeriod.
  if (fd) {
    for (int k = 0; k < num_regions; ++k) {
      if (!region_active_[k]) continue;
      MAPS_RETURN_NOT_OK(regions_[k]->SaveCheckpoint(&domains_[k].pre_close));
    }
  }

  // A failed close never runs (the fault preempts the dispatch); a stalled
  // close RUNS — mutating the region — and its result is discarded past
  // the deadline, so the quarantine rewind has real work to undo.
  auto close_one = [&](int k) {
    if (inject_fail[k]) {
      region_status_[k] =
          Status::Internal("injected close failure at region " +
                           std::to_string(k) + " period " + std::to_string(t));
      return;
    }
    {
      // Wall-clock only; Histogram::Record is atomic, so concurrent region
      // closes may record freely.
      obs::ScopedTimer close_timer(m_region_close_ns_);
      region_status_[k] = regions_[k]->ClosePeriod(&region_outcomes_[k]);
    }
    if (inject_stall[k] && region_status_[k].ok()) {
      region_status_[k] =
          Status::Internal("injected close stall (deadline exceeded) at "
                           "region " +
                           std::to_string(k) + " period " + std::to_string(t));
    }
  };

  int num_active = 0;
  for (int k = 0; k < num_regions; ++k) num_active += region_active_[k];
  if (pool_ != nullptr && num_active > 1) {
    internal::Latch latch(num_active);
    for (int k = 0; k < num_regions; ++k) {
      if (!region_active_[k]) continue;
      pool_->Submit([&close_one, k, &latch](int /*worker*/) {
        close_one(k);
        latch.Done();
      });
    }
    latch.Wait();
  } else {
    for (int k = 0; k < num_regions; ++k) {
      if (region_active_[k]) close_one(k);
    }
  }

  // Evaluate serially in region order (quarantine processing mutates the
  // injector-independent domain state deterministically).
  for (int k = 0; k < num_regions; ++k) {
    if (!region_active_[k]) {
      // Sitting out this close: advance quietly to stay in lockstep.
      regions_[k]->AdvanceQuietPeriod();
      continue;
    }
    if (region_status_[k].ok()) {
      // Regions close in lockstep with this layer; anything else is a bug.
      MAPS_CHECK(region_outcomes_[k].period == t);
      if (fd && domains_[k].state == RegionHealth::State::kQuarantined) {
        domains_[k].state = RegionHealth::State::kRecovered;
      }
      continue;
    }
    if (!fd) return region_status_[k];  // pre-§15: one region fails the close
    MAPS_RETURN_NOT_OK(QuarantineRegion(k, t));
  }
  return Status::OK();
}

void ShardedMarketEngine::MergeOutcomes(int32_t t, PeriodOutcome* out) {
  const int num_regions = static_cast<int>(regions_.size());
  out->period = t;
  out->skipped = true;
  out->prices.clear();
  out->accepted.clear();
  out->matches.clear();
  out->revenue = 0.0;
  out->mc_expected_revenue = 0.0;
  out->num_tasks = 0;
  out->num_available_workers = 0;
  merge_matches_.clear();
  merge_accepted_.clear();

  // Inactive (quarantined/failed) regions contributed no outcome this
  // period: their open tasks were deferred and their cells serve cached
  // quotes below, so every aggregation here is over ACTIVE regions only.
  for (int k = 0; k < num_regions; ++k) {
    if (!region_active_[k]) continue;
    const PeriodOutcome& o = region_outcomes_[k];
    out->skipped = out->skipped && o.skipped;
    out->num_tasks += o.num_tasks;
    out->num_available_workers += o.num_available_workers;
    out->mc_expected_revenue += o.mc_expected_revenue;
  }
  if (out->skipped) return;

  // Quotes: each region's fresh prices for the cells it owns; a region that
  // skipped this period — or is quarantined — re-posts its cached last
  // quotes (zeros before its first priced period) — a monolith would have
  // consulted its strategy instead, one of the documented §13 divergences.
  for (int k = 0; k < num_regions; ++k) {
    if (region_active_[k] && !region_outcomes_[k].skipped) {
      region_prices_[k] = region_outcomes_[k].prices;
    }
  }
  out->prices.resize(owner_of_cell_.size());
  for (size_t g = 0; g < owner_of_cell_.size(); ++g) {
    out->prices[g] = region_prices_[owner_of_cell_[g]][g];
  }

  // Accepted ids and matches, re-ordered by global submission sequence so
  // the merged outcome (including the FP revenue fold, done after the
  // stitch) reads exactly like a monolithic close of the same events.
  for (int k = 0; k < num_regions; ++k) {
    if (!region_active_[k]) continue;
    const PeriodOutcome& o = region_outcomes_[k];
    for (TaskId id : o.accepted) {
      const auto it = task_route_.find(id);
      MAPS_CHECK(it != task_route_.end());
      merge_accepted_.push_back({it->second.seq, id});
    }
    for (const MatchRecord& m : o.matches) {
      merge_matches_.push_back({task_route_.find(m.task)->second.seq, m});
    }
  }
  std::sort(merge_accepted_.begin(), merge_accepted_.end());
  out->accepted.reserve(merge_accepted_.size());
  for (const auto& [seq, id] : merge_accepted_) out->accepted.push_back(id);
}

Status ShardedMarketEngine::StitchBoundary(int32_t t, PeriodOutcome* out) {
  if (partition_->num_regions() < 2 || out->skipped) return Status::OK();
  const int num_regions = static_cast<int>(regions_.size());

  // Candidate tasks: accepted but unmatched, origin in a boundary cell.
  // (Within one region such a task has no idle worker in range — the
  // max-weight matching would have augmented otherwise — so only the seams
  // can still hold one.)
  struct CandTask {
    int64_t seq;
    const Task* task;  // into task_route_, stable during the close
    double price;
    int region;
  };
  std::vector<CandTask> cand_tasks;
  std::unordered_set<TaskId> matched_ids;
  matched_ids.reserve(merge_matches_.size());
  for (const auto& [seq, m] : merge_matches_) matched_ids.insert(m.task);
  for (TaskId id : out->accepted) {
    if (matched_ids.count(id) > 0) continue;
    const TaskRoute& route = task_route_.find(id)->second;
    if (!partition_->IsBoundaryGrid(route.task.grid)) continue;
    cand_tasks.push_back({route.seq, &route.task,
                          out->prices[route.task.grid], route.region});
  }
  if (cand_tasks.empty()) return Status::OK();

  // Candidate workers: idle and unmatched after the close, standing in a
  // boundary cell, reach disc crossing into a foreign band.
  struct CandWorker {
    Worker w;
    int home;
  };
  std::vector<CandWorker> cand_workers;
  for (int k = 0; k < num_regions; ++k) {
    // A quarantined region's serving is frozen: its idle workers are not
    // offered to the stitch (and its tasks were deferred, so none are
    // candidates above).
    if (!region_active_[k]) continue;
    idle_scratch_.clear();
    regions_[k]->CollectIdleWorkers(&idle_scratch_);
    for (const Worker& w : idle_scratch_) {
      if (!partition_->IsBoundaryGrid(w.grid)) continue;
      grid_->CellsIntersectingDisc(w.location, w.radius, &cell_scratch_);
      for (GridId c : cell_scratch_) {
        if (owner_of_cell_[c] != k) {
          cand_workers.push_back({w, k});
          break;
        }
      }
    }
  }
  if (cand_workers.empty()) return Status::OK();

  // Eligible cross-region pairs under the matching graph's exact edge
  // predicate (squared distance — bipartite_graph.cc), greedily assigned
  // heaviest-first with submission order breaking weight ties. One
  // augmentation round: a task gets at most one worker and vice versa.
  struct CandPair {
    double weight;
    int ti;
    int wi;
  };
  std::vector<CandPair> pairs;
  for (int ti = 0; ti < static_cast<int>(cand_tasks.size()); ++ti) {
    const CandTask& ct = cand_tasks[ti];
    for (int wi = 0; wi < static_cast<int>(cand_workers.size()); ++wi) {
      const CandWorker& cw = cand_workers[wi];
      if (cw.home == ct.region) continue;
      const double dx = ct.task->origin.x - cw.w.location.x;
      const double dy = ct.task->origin.y - cw.w.location.y;
      if (dx * dx + dy * dy > cw.w.radius * cw.w.radius) continue;
      pairs.push_back({ct.task->distance * ct.price, ti, wi});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [&](const CandPair& a, const CandPair& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              if (cand_tasks[a.ti].seq != cand_tasks[b.ti].seq) {
                return cand_tasks[a.ti].seq < cand_tasks[b.ti].seq;
              }
              return cand_workers[a.wi].w.id < cand_workers[b.wi].w.id;
            });
  std::vector<char> task_done(cand_tasks.size(), 0);
  std::vector<char> worker_done(cand_workers.size(), 0);
  std::vector<std::pair<int, int>> assigned;  // (ti, wi)
  for (const CandPair& p : pairs) {
    if (task_done[p.ti] || worker_done[p.wi]) continue;
    task_done[p.ti] = 1;
    worker_done[p.wi] = 1;
    assigned.push_back({p.ti, p.wi});
  }
  if (assigned.empty()) return Status::OK();
  if (m_stitch_matches_ != nullptr) {
    m_stitch_matches_->Add(static_cast<int64_t>(assigned.size()));
  }

  // Apply in task submission order: emit the stitched matches and drive the
  // worker lifecycle across engines.
  std::sort(assigned.begin(), assigned.end(),
            [&](const std::pair<int, int>& a, const std::pair<int, int>& b) {
              return cand_tasks[a.first].seq < cand_tasks[b.first].seq;
            });
  const bool single_use = options_.lifecycle.single_use;
  const double speed = options_.lifecycle.speed;
  for (const auto& [ti, wi] : assigned) {
    const CandTask& ct = cand_tasks[ti];
    const CandWorker& cw = cand_workers[wi];
    const double revenue = ct.task->distance * ct.price;
    merge_matches_.push_back(
        {ct.seq, MatchRecord{ct.task->id, cw.w.id, revenue}});
    if (single_use) {
      MAPS_RETURN_NOT_OK(regions_[cw.home]->ConsumeIdleWorker(cw.w.id));
      continue;
    }
    const int32_t ride = std::max(
        1, static_cast<int32_t>(std::ceil(ct.task->distance / speed)));
    const int32_t next_free = t + ride;
    const GridId dest_grid = grid_->CellOf(ct.task->destination);
    const int dest_region = owner_of_cell_[dest_grid];
    if (dest_region == cw.home || !region_active_[dest_region]) {
      // Same band — or the owning band is quarantined, in which case the
      // worker stays with its current region until the repatriation sweep
      // can hand it over (home-until-reconciled already covers parking in
      // foreign cells).
      MAPS_RETURN_NOT_OK(regions_[cw.home]->DispatchIdleWorker(
          cw.w.id, ct.task->destination, next_free));
    } else {
      // The ride ends in a foreign band: ownership migrates with it.
      Worker base;
      int32_t retire_at = 0;
      MAPS_RETURN_NOT_OK(
          regions_[cw.home]->ExtractIdleWorker(cw.w.id, &base, &retire_at));
      base.location = ct.task->destination;
      base.grid = dest_grid;
      MAPS_RETURN_NOT_OK(
          regions_[dest_region]->AdoptWorker(base, next_free, retire_at));
    }
  }
  return Status::OK();
}

Status ShardedMarketEngine::RepatriateIdleWorkers(int32_t t) {
  // Home-until-reconciled (§13): a turnaround worker parked in a cell some
  // other region owns — cross-band ride destinations, repositioning drift —
  // is transferred to the owning region here, after every close, in a fixed
  // region-then-idle order. Until this sweep runs, the admitting region
  // keeps serving it.
  const int num_regions = static_cast<int>(regions_.size());
  for (int k = 0; k < num_regions; ++k) {
    // Quarantined regions neither give up nor receive workers: their
    // strays repatriate (and strays standing in their cells come home)
    // once they serve again.
    if (!region_active_[k]) continue;
    idle_scratch_.clear();
    regions_[k]->CollectIdleWorkers(&idle_scratch_);
    for (const Worker& w : idle_scratch_) {
      const int owner = owner_of_cell_[w.grid];
      if (owner == k || !region_active_[owner]) continue;
      Worker base;
      int32_t retire_at = 0;
      MAPS_RETURN_NOT_OK(
          regions_[k]->ExtractIdleWorker(w.id, &base, &retire_at));
      // Already free (next_free <= t): the owner offers it from the next
      // close on, exactly when the old region would have.
      MAPS_RETURN_NOT_OK(regions_[owner]->AdoptWorker(base, t, retire_at));
      if (m_repatriations_ != nullptr) m_repatriations_->Increment();
    }
  }
  return Status::OK();
}

Status ShardedMarketEngine::ClosePeriod(PeriodOutcome* out) {
  if (out == nullptr) return Status::InvalidArgument("null outcome");
  const int32_t t = period_;
  const int num_regions = static_cast<int>(regions_.size());
  const bool fd = failure_domains_enabled();

  // Which regions close this period: healthy ones, plus quarantined ones
  // whose deterministic retry came due — those get their deferred tasks
  // back first. kFailed regions never close again.
  region_active_.assign(num_regions, 1);
  if (fd) {
    for (int k = 0; k < num_regions; ++k) {
      RegionDomain& dom = domains_[k];
      if (dom.state == RegionHealth::State::kNormal) continue;
      if (dom.state == RegionHealth::State::kQuarantined &&
          dom.next_retry <= t) {
        MAPS_RETURN_NOT_OK(ResubmitDeferred(k));
        continue;  // active: recovery attempt
      }
      region_active_[k] = 0;
    }
  }

  // Resolve this layer's acceptance buffer: bits for routed tasks go to the
  // submitting region (its close consumes them); bits for tasks nobody
  // submitted are orphans, counted here at the close like the monolith
  // counts its own. The buffer itself is kept until deferral has run —
  // tasks of a region that fails THIS close take their bits into the
  // deferral queue.
  for (const auto& [task, accepted] : pending_accept_) {
    const auto it = task_route_.find(task);
    if (it == task_route_.end()) {
      obs::BumpMirrored(&local_rejections_.orphan_acceptances,
                        m_reject_.orphan_acceptances);
      continue;
    }
    if (!region_active_[it->second.region]) continue;  // held for deferral
    MAPS_RETURN_NOT_OK(
        regions_[it->second.region]->ObserveAcceptance(task, accepted));
  }

  MAPS_RETURN_NOT_OK(CloseAllRegions(t));

  // Park the open tasks of every region that is not serving after the
  // close — just-quarantined ones (their forwarded copies were rewound
  // away) and ones still waiting out their backoff.
  if (fd) {
    for (int k = 0; k < num_regions; ++k) {
      if (!region_active_[k]) DeferRegionTasks(k);
    }
  }
  pending_accept_.clear();

  {
    obs::ScopedTimer merge_timer(m_merge_ns_);
    MergeOutcomes(t, out);
  }
  {
    obs::ScopedTimer stitch_timer(m_stitch_ns_);
    MAPS_RETURN_NOT_OK(StitchBoundary(t, out));
  }

  // Final merged matches + the revenue fold, in global submission order —
  // the same order (and therefore the same FP rounding) as a monolithic
  // close; a sum of per-region sums would not be.
  std::sort(merge_matches_.begin(), merge_matches_.end(),
            [](const std::pair<int64_t, MatchRecord>& a,
               const std::pair<int64_t, MatchRecord>& b) {
              return a.first < b.first;
            });
  for (const auto& [seq, m] : merge_matches_) {
    out->matches.push_back(m);
    out->revenue += m.revenue;
  }
  out->rejections = rejections();

  if (!out->skipped && !options_.lifecycle.single_use) {
    obs::ScopedTimer repatriate_timer(m_repatriate_ns_);
    MAPS_RETURN_NOT_OK(RepatriateIdleWorkers(t));
  }

  // Per-region health report, then post-report transitions: a region that
  // served again is kRecovered for exactly this outcome and kNormal after.
  out->region_health.clear();
  if (fd) {
    out->region_health.resize(num_regions);
    for (int k = 0; k < num_regions; ++k) {
      RegionDomain& dom = domains_[k];
      const RegionHealth& health = out->region_health[k] = region_health(k);
      // One kRegionHealth event per region per close, emitted on this
      // serial path in region order — the nightly chaos drill replays the
      // trace against PeriodOutcome::region_health and expects exact
      // agreement.
      if (options_.trace != nullptr) {
        options_.trace->Emit(obs::TraceEvent::Kind::kRegionHealth, t, k,
                             static_cast<int64_t>(health.state),
                             RegionHealthStateName(health.state));
      }
      if (dom.state == RegionHealth::State::kRecovered) {
        dom.state = RegionHealth::State::kNormal;
        dom.attempts = 0;
        dom.backoff = 0;
        dom.next_retry = -1;
        dom.quarantined_since = -1;
      }
    }
  }

  task_route_.clear();
  if (options_.trace != nullptr) {
    options_.trace->Emit(obs::TraceEvent::Kind::kPeriodClosed, t,
                         /*region=*/-1,
                         static_cast<int64_t>(out->matches.size()),
                         out->skipped ? "dead" : "");
    options_.trace->Emit(obs::TraceEvent::Kind::kPeriodOpened, t + 1,
                         /*region=*/-1, /*value=*/0, "");
  }
  ++period_;
  return Status::OK();
}

std::vector<std::pair<WorkerId, int>> ShardedMarketEngine::WorkerOwners()
    const {
  std::vector<std::pair<WorkerId, int>> owners;
  std::vector<WorkerId> ids;
  for (int k = 0; k < num_regions(); ++k) {
    ids.clear();
    regions_[k]->CollectWorkerIds(&ids);
    for (WorkerId id : ids) owners.push_back({id, k});
  }
  std::sort(owners.begin(), owners.end());
  return owners;
}

EngineRejectionCounters ShardedMarketEngine::rejections() const {
  EngineRejectionCounters total = local_rejections_;
  for (const auto& region : regions_) total += region->rejections();
  return total;
}

RegionHealth ShardedMarketEngine::region_health(int k) const {
  const RegionDomain& dom = domains_[k];
  return RegionHealth{k, dom.state, dom.attempts, dom.quarantined_since};
}

int64_t ShardedMarketEngine::num_deferred_tasks() const {
  int64_t total = 0;
  for (const auto& queue : deferred_) {
    total += static_cast<int64_t>(queue.size());
  }
  return total;
}

int64_t ShardedMarketEngine::num_live_workers() const {
  int64_t total = 0;
  for (const auto& region : regions_) total += region->num_live_workers();
  return total;
}

double ShardedMarketEngine::strategy_seconds() const {
  double total = 0.0;
  for (const auto& region : regions_) total += region->strategy_seconds();
  return total;
}

size_t ShardedMarketEngine::peak_platform_bytes() const {
  size_t total = 0;
  for (const auto& region : regions_) total += region->peak_platform_bytes();
  return total;
}

size_t ShardedMarketEngine::peak_strategy_bytes() const {
  size_t total = 0;
  for (const auto& region : regions_) total += region->peak_strategy_bytes();
  return total;
}

Status ShardedMarketEngine::SaveCheckpoint(std::string* out) {
  if (out == nullptr) return Status::InvalidArgument("null output string");
  const int num_regions = static_cast<int>(regions_.size());

  // A checkpoint must capture a fully-served deployment: while a region is
  // quarantined (or permanently failed) its engine state is a rewound
  // approximation and tasks sit in deferral queues that the container does
  // not encode. Callers retry after the region recovers.
  for (int k = 0; k < num_regions; ++k) {
    if (domains_[k].state != RegionHealth::State::kNormal) {
      return Status::FailedPrecondition(
          "region " + std::to_string(k) +
          " is not healthy (quarantined or failed); checkpoint after it "
          "recovers");
    }
    if (!deferred_[k].empty()) {
      return Status::FailedPrecondition(
          "region " + std::to_string(k) + " has " +
          std::to_string(deferred_[k].size()) +
          " deferred task(s) awaiting recovery; checkpoint after the next "
          "close");
    }
  }

  // Sections are encoded in place (internal::BeginCheckpointSection), and
  // each region appends its blob straight into the regions section.
  StateWriter blob;
  blob.Reserve(internal::CheckpointReserveBytes(checkpoint_bytes_hint_));
  blob.PutBytes(kShardedCheckpointMagic, sizeof(kShardedCheckpointMagic));
  blob.PutU32(kShardedCheckpointFormatVersion);
  blob.PutU32(kNumShardedSections);

  size_t section =
      internal::BeginCheckpointSection(kShardedSectionPartition, &blob);
  internal::PutGridFingerprint(*grid_, &blob);
  blob.PutI32(num_regions);
  for (int k = 0; k < num_regions; ++k) {
    blob.PutI32(partition_->row_begin(k));
  }
  internal::PutLifecycleFingerprint(options_.lifecycle, &blob);
  internal::EndCheckpointSection(section, &blob);

  section = internal::BeginCheckpointSection(kShardedSectionRouting, &blob);
  blob.PutI32(period_);
  internal::PutRejectionCounters(local_rejections_, &blob);
  blob.PutI64(local_rejections_.deferred_tasks);  // v2
  blob.PutI64(next_seq_);
  const std::vector<std::pair<WorkerId, int>> owners = WorkerOwners();
  blob.PutU64(owners.size());
  for (const auto& [id, k] : owners) {
    blob.PutI64(id);
    blob.PutI32(k);
  }
  const std::vector<const TaskRoute*> routes = RoutesInOrder(/*k=*/-1);
  blob.PutU64(routes.size());
  for (const TaskRoute* route : routes) {
    blob.PutI64(route->seq);
    blob.PutI32(route->region);
    internal::PutTask(route->task, &blob);
    blob.PutDouble(route->valuation);  // v2
  }
  internal::PutAcceptanceBits(pending_accept_, &blob);
  for (const std::vector<double>& prices : region_prices_) {
    blob.PutU64(prices.size());
    for (double p : prices) blob.PutDouble(p);
  }
  internal::EndCheckpointSection(section, &blob);

  section = internal::BeginCheckpointSection(kShardedSectionRegions, &blob);
  blob.PutU32(static_cast<uint32_t>(num_regions));
  for (const auto& region : regions_) {
    // The u64 length prefix of a PutString, patched once the blob is in.
    const size_t length_at = blob.size();
    blob.PutU64(0);
    MAPS_RETURN_NOT_OK(region->AppendCheckpoint(&blob));
    blob.OverwriteU64(length_at, blob.size() - length_at - 8);
  }
  internal::EndCheckpointSection(section, &blob);
  checkpoint_bytes_hint_ = blob.size();
  *out = blob.Release();
  if (options_.trace != nullptr) {
    options_.trace->Emit(obs::TraceEvent::Kind::kCheckpointWritten, period_,
                         /*region=*/-1, static_cast<int64_t>(out->size()), "");
  }
  return Status::OK();
}

Status ShardedMarketEngine::RestoreFromCheckpoint(const std::string& data) {
  const int num_regions = static_cast<int>(regions_.size());
  std::vector<std::string> sections;
  MAPS_RETURN_NOT_OK(internal::ParseCheckpointContainer(
      data, kShardedCheckpointMagic, kShardedCheckpointFormatVersion,
      kNumShardedSections, "MAPS sharded checkpoint", &sections));

  {  // Partition fingerprint: grid, band layout, K, lifecycle.
    StateReader r(sections[kShardedSectionPartition - 1]);
    MAPS_RETURN_NOT_OK(internal::CheckGridFingerprint(*grid_, &r));
    int32_t k_saved;
    MAPS_RETURN_NOT_OK(r.GetI32(&k_saved, "region count"));
    if (k_saved != num_regions) {
      return Status::FailedPrecondition(
          "checkpoint was saved with " + std::to_string(k_saved) +
          " region(s), this engine shards into " +
          std::to_string(num_regions));
    }
    for (int k = 0; k < num_regions; ++k) {
      int32_t row_begin;
      MAPS_RETURN_NOT_OK(r.GetI32(&row_begin, "region row_begin"));
      if (row_begin != partition_->row_begin(k)) {
        return Status::FailedPrecondition(
            "checkpoint region " + std::to_string(k) + " starts at row " +
            std::to_string(row_begin) + ", this engine's partition at row " +
            std::to_string(partition_->row_begin(k)));
      }
    }
    MAPS_RETURN_NOT_OK(
        internal::CheckLifecycleFingerprint(options_.lifecycle, &r));
    MAPS_RETURN_NOT_OK(r.ExpectEnd("sharded partition section"));
  }

  int32_t period;
  EngineRejectionCounters rej;
  int64_t next_seq;
  std::vector<std::pair<WorkerId, int>> owners;
  std::unordered_map<TaskId, TaskRoute> task_route;
  std::unordered_map<TaskId, bool> pending;
  std::vector<std::vector<double>> region_prices;
  {  // Routing state.
    StateReader r(sections[kShardedSectionRouting - 1]);
    MAPS_RETURN_NOT_OK(r.GetI32(&period, "period counter"));
    MAPS_RETURN_NOT_OK(internal::GetRejectionCounters(&r, &rej));
    MAPS_RETURN_NOT_OK(r.GetI64(&rej.deferred_tasks, "deferred_tasks"));
    MAPS_RETURN_NOT_OK(r.GetI64(&next_seq, "next submission seq"));
    if (period < 0 || rej.deferred_tasks < 0 || next_seq < 0) {
      return Status::InvalidArgument(
          "sharded routing section has negative counters");
    }
    uint64_t n;
    MAPS_RETURN_NOT_OK(r.GetU64(&n, "worker owner count"));
    MAPS_RETURN_NOT_OK(CheckDecodedCount(r, n, 12, "worker owners"));
    owners.resize(static_cast<size_t>(n));
    for (size_t i = 0; i < owners.size(); ++i) {
      auto& [id, k] = owners[i];
      MAPS_RETURN_NOT_OK(r.GetI64(&id, "worker owner id"));
      MAPS_RETURN_NOT_OK(r.GetI32(&k, "worker owner region"));
      if (k < 0 || k >= num_regions) {
        return Status::InvalidArgument("worker " + std::to_string(id) +
                                       " owned by out-of-range region " +
                                       std::to_string(k));
      }
      // Saved in ascending id order, so a repeat shows up as a non-increase.
      if (i > 0 && id <= owners[i - 1].first) {
        return Status::InvalidArgument(
            "worker id " + std::to_string(id) +
            " repeated or out of order in the owner table");
      }
    }
    MAPS_RETURN_NOT_OK(r.GetU64(&n, "task route count"));
    MAPS_RETURN_NOT_OK(CheckDecodedCount(r, n, 76, "task routes"));
    task_route.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      TaskRoute route;
      MAPS_RETURN_NOT_OK(r.GetI64(&route.seq, "route seq"));
      MAPS_RETURN_NOT_OK(r.GetI32(&route.region, "route region"));
      MAPS_RETURN_NOT_OK(internal::GetTask(*grid_, &r, &route.task));
      MAPS_RETURN_NOT_OK(r.GetDouble(&route.valuation, "route valuation"));
      if (route.region < 0 || route.region >= num_regions) {
        return Status::InvalidArgument(
            "task " + std::to_string(route.task.id) +
            " routed to out-of-range region " + std::to_string(route.region));
      }
      if (route.seq < 0 || route.seq >= next_seq) {
        return Status::InvalidArgument(
            "routed task " + std::to_string(route.task.id) +
            " has sequence " + std::to_string(route.seq) +
            " outside [0, " + std::to_string(next_seq) + ")");
      }
      const TaskId id = route.task.id;
      if (!task_route.emplace(id, std::move(route)).second) {
        return Status::InvalidArgument("task id " + std::to_string(id) +
                                       " appears twice in the route table");
      }
    }
    MAPS_RETURN_NOT_OK(internal::GetAcceptanceBits(&r, &pending));
    region_prices.resize(num_regions);
    for (int k = 0; k < num_regions; ++k) {
      MAPS_RETURN_NOT_OK(r.GetU64(&n, "cached price count"));
      if (n != static_cast<uint64_t>(grid_->num_cells())) {
        return Status::InvalidArgument(
            "region " + std::to_string(k) + " caches " + std::to_string(n) +
            " price(s), the grid has " + std::to_string(grid_->num_cells()) +
            " cell(s)");
      }
      region_prices[k].resize(static_cast<size_t>(n));
      for (double& p : region_prices[k]) {
        MAPS_RETURN_NOT_OK(r.GetDouble(&p, "cached price"));
      }
    }
    MAPS_RETURN_NOT_OK(r.ExpectEnd("sharded routing section"));
  }

  std::vector<std::string> region_blobs(num_regions);
  {  // Embedded per-region checkpoints.
    StateReader r(sections[kShardedSectionRegions - 1]);
    uint32_t count;
    MAPS_RETURN_NOT_OK(r.GetU32(&count, "embedded region count"));
    if (count != static_cast<uint32_t>(num_regions)) {
      return Status::InvalidArgument(
          "regions section embeds " + std::to_string(count) +
          " checkpoint(s), expected " + std::to_string(num_regions));
    }
    for (int k = 0; k < num_regions; ++k) {
      MAPS_RETURN_NOT_OK(r.GetString(&region_blobs[k], "region checkpoint"));
    }
    MAPS_RETURN_NOT_OK(r.ExpectEnd("sharded regions section"));
  }

  // A region blob its engine rejects (corrupt or inconsistent), or an owner
  // table the restored regions disagree with, is found only after regions
  // were restored; the rewind's encoder snapshots them first so every such
  // failure rolls all of them back.
  std::vector<std::string> rollback(num_regions);
  for (int k = 0; k < num_regions; ++k) {
    MAPS_RETURN_NOT_OK(regions_[k]->SaveCheckpoint(&rollback[k]));
  }
  const auto roll_back = [&](const Status& failure) {
    for (int k = 0; k < num_regions; ++k) {
      const Status s = regions_[k]->RestoreFromCheckpoint(rollback[k]);
      if (!s.ok()) {
        return Status::Internal("rolling back region " + std::to_string(k) +
                                ": " + s.message());
      }
    }
    return failure;
  };

  for (int k = 0; k < num_regions; ++k) {
    const Status s = regions_[k]->RestoreFromCheckpoint(region_blobs[k]);
    if (!s.ok()) {
      // Keep the region's code: a strategy-type mismatch is
      // FailedPrecondition, corruption InvalidArgument.
      return roll_back(Status(
          s.code(), "restoring region " + std::to_string(k) + ": " +
                        s.message()));
    }
    if (regions_[k]->current_period() != period) {
      return roll_back(Status::InvalidArgument(
          "region " + std::to_string(k) + " restored at period " +
          std::to_string(regions_[k]->current_period()) +
          ", the sharded layer at " + std::to_string(period)));
    }
  }

  // The owner table is derived state: the restored regions' worker indices
  // must reproduce it exactly.
  if (owners != WorkerOwners()) {
    return roll_back(Status::InvalidArgument(
        "worker owner table disagrees with the restored regions"));
  }

  // Commit this layer. Nothing below can fail. As in the monolith's
  // restore, the mirrored registry counters absorb the jump so the registry
  // stays equal to the summed struct counters (DESIGN.md §16).
  m_reject_.Resync(local_rejections_, rej);
  period_ = period;
  next_seq_ = next_seq;
  local_rejections_ = rej;
  task_route_ = std::move(task_route);
  pending_accept_ = std::move(pending);
  region_prices_ = std::move(region_prices);
  // Failure-domain state restarts clean: checkpoints are only written from
  // fully-healthy deployments, and every close takes its own restore point.
  for (RegionDomain& dom : domains_) dom = RegionDomain{};
  for (auto& queue : deferred_) queue.clear();
  region_active_.assign(regions_.size(), 1);
  if (options_.trace != nullptr) {
    options_.trace->Emit(obs::TraceEvent::Kind::kCheckpointRestored, period_,
                         /*region=*/-1, static_cast<int64_t>(data.size()), "");
  }
  return Status::OK();
}

}  // namespace maps
