#include "replay_rep.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

#include "geo/point.h"
#include "market/demand_model.h"
#include "service/outcome_invariants.h"
#include "service/replay_driver.h"
#include "service/replay_log.h"
#include "sim/metrics.h"
#include "util/fault_injector.h"

namespace maps {
namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

int64_t Ns(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// `maps_cli replay`'s default --oracle-seed.
constexpr uint64_t kOracleSeed = 17;

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

void Mix(uint64_t* h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ULL;
  }
}

template <typename T>
void MixValue(uint64_t* h, T v) {
  Mix(h, &v, sizeof(v));
}

/// Books one successful close into the rep's totals and digest. Doubles go
/// in as raw bits, so the digest is equal only for bit-identical outcomes.
void TallyClose(const PeriodOutcome& o, RepResult* r) {
  r->accepted += static_cast<int64_t>(o.accepted.size());
  r->matched += static_cast<int64_t>(o.matches.size());
  r->revenue += o.revenue;
  uint64_t* h = &r->digest;
  MixValue(h, o.period);
  MixValue(h, o.prices.size());
  Mix(h, o.prices.data(), o.prices.size() * sizeof(double));
  MixValue(h, o.accepted.size());
  Mix(h, o.accepted.data(), o.accepted.size() * sizeof(TaskId));
  MixValue(h, o.matches.size());
  for (const MatchRecord& m : o.matches) {
    MixValue(h, m.task);
    MixValue(h, m.worker);
    MixValue(h, m.revenue);
  }
  MixValue(h, o.revenue);
}

/// The save `maps_cli replay --checkpoint_every=N` makes after a close,
/// kept in memory.
template <typename Engine>
void ScheduledSave(Engine* engine, int every, RepResult* r) {
  if (every <= 0 || engine->current_period() % every != 0) return;
  ++r->calls;
  const Status st = engine->SaveCheckpoint(&r->last_blob);
  if (st.ok()) {
    ++r->saves;
    r->save_bytes += static_cast<int64_t>(r->last_blob.size());
  } else if (st.IsFailedPrecondition()) {
    ++r->skipped;
  } else {
    ++r->failed;
  }
}

/// Tasks an invariant check may see accepted or matched: this period's
/// submissions plus those deferred by a region that is still unhealthy.
void CarryDeferred(const PeriodOutcome& o, const RegionPartition* partition,
                   std::vector<Task>* tasks) {
  if (o.region_health.empty() || partition == nullptr) {
    tasks->clear();
    return;
  }
  std::erase_if(*tasks, [&](const Task& t) {
    const RegionHealth::State s =
        o.region_health[partition->RegionOfGrid(t.grid)].state;
    return s != RegionHealth::State::kQuarantined &&
           s != RegionHealth::State::kFailed;
  });
}

/// The bench's own replay loop: service/replay_driver.cc's stamping, with
/// a clock read at each period boundary. kTraced adds a span around every
/// call, which is what the ledger attributes, and invariant checks, which
/// run between segments.
template <bool kTraced, typename Engine>
Status TimedLoop(const BenchWorkload& workload, ReplayEventStream* stream,
                 const GridPartition& grid, const RegionPartition* partition,
                 Engine* engine, RepResult* r) {
  ReplayEvent ev;
  PeriodOutcome outcome;
  std::vector<Task> period_tasks;
  EngineRejectionCounters previous;
  bool have_previous = false;
  TraceSpans& spans = r->spans;

  Clock::time_point segment_start = Clock::now();
  Clock::time_point mark = segment_start;
  // Times one event call; untraced reps pay nothing here.
  const auto apply = [&](auto&& call) {
    if constexpr (kTraced) {
      const Clock::time_point start = Clock::now();
      const Status st = call();
      mark = Clock::now();
      spans.apply_ns += Ns(start, mark);
      ++spans.apply_calls;
      return st;
    } else {
      return call();
    }
  };

  while (true) {
    auto more = stream->Next(&ev);
    MAPS_RETURN_NOT_OK(more.status());
    if (!more.ValueOrDie()) break;
    if constexpr (kTraced) {
      const Clock::time_point now = Clock::now();
      spans.next_ns += Ns(mark, now);
      mark = now;
    }
    ++r->calls;
    Status st;
    switch (ev.kind) {
      case ReplayEvent::Kind::kSubmitTask: {
        Task task = ev.task;
        task.grid = grid.CellOf(task.origin);
        task.period = engine->current_period();
        if (task.distance <= 0.0) {
          task.distance = EuclideanDistance(task.origin, task.destination);
        }
        const double valuation =
            ev.has_valuation ? ev.valuation : MarketEngine::kNoValuation;
        st = apply([&] { return engine->SubmitTask(task, valuation); });
        if (st.ok()) {
          ++r->tasks;
          if constexpr (kTraced) period_tasks.push_back(task);
        }
        break;
      }
      case ReplayEvent::Kind::kAddWorker: {
        Worker worker = ev.worker;
        worker.grid = grid.CellOf(worker.location);
        worker.period = engine->current_period();
        st = apply([&] { return engine->AddWorker(worker); });
        break;
      }
      case ReplayEvent::Kind::kRemoveWorker:
        st = apply([&] { return engine->RemoveWorker(ev.id); });
        break;
      case ReplayEvent::Kind::kObserveAcceptance:
        st = apply(
            [&] { return engine->ObserveAcceptance(ev.id, ev.accepted); });
        break;
      case ReplayEvent::Kind::kClosePeriod: {
        const Clock::time_point close_start = Clock::now();
        st = engine->ClosePeriod(&outcome);
        const Clock::time_point close_end =
            kTraced ? Clock::now() : close_start;
        if (st.ok()) ScheduledSave(engine, workload.checkpoint_every, r);
        const Clock::time_point segment_end = Clock::now();
        r->segment_ns.push_back(Ns(segment_start, segment_end));
        r->close_ns.push_back(Ns(close_start, segment_end));
        if constexpr (kTraced) {
          spans.close_ns += Ns(close_start, close_end);
          spans.save_ns += Ns(close_end, segment_end);
        }
        // Between segments: bookkeeping the timings must not include.
        if (st.ok()) {
          TallyClose(outcome, r);
          if constexpr (kTraced) {
            InvariantContext context;
            context.period_tasks = &period_tasks;
            if (have_previous) context.previous_rejections = &previous;
            const Status check = CheckPeriodOutcomeInvariants(outcome, context);
            if (!check.ok() && r->invariants.ok()) r->invariants = check;
            previous = outcome.rejections;
            have_previous = true;
            CarryDeferred(outcome, partition, &period_tasks);
          }
        }
        segment_start = Clock::now();
        mark = segment_start;
        break;
      }
    }
    if (st.ok()) {
      ++r->events;
    } else {
      ++r->failed;
    }
  }
  return Status::OK();
}

template <typename Engine>
Status ParityLoop(const BenchWorkload& workload, ReplayEventStream* stream,
                  const GridPartition& grid, Engine* engine, RepResult* r) {
  ReplayStreamOptions options;
  options.on_close = [&](const PeriodOutcome& outcome) {
    TallyClose(outcome, r);
    ScheduledSave(engine, workload.checkpoint_every, r);
    return Status::OK();
  };
  auto summary = ReplayEventsThroughEngine(stream, grid, engine, options);
  if (!summary.ok()) {
    ++r->failed;
    return Status::OK();
  }
  r->events = summary.ValueOrDie().events_applied;
  r->calls += r->events;
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Deployment>> Deployment::Make(
    const BenchWorkload& workload, obs::MetricsRegistry* metrics, bool warm) {
  std::unique_ptr<Deployment> d(new Deployment());
  const ScenarioSpec& spec = workload.spec;
  MAPS_ASSIGN_OR_RETURN(
      GridPartition grid,
      GridPartition::Make(Rect{0, 0, spec.extent, spec.extent}, spec.grid_rows,
                          spec.grid_cols));
  d->grid_.emplace(std::move(grid));

  PricingConfig pricing;
  TruncatedNormalDemand proto(spec.demand_mu, spec.demand_sigma, pricing.p_min,
                              pricing.p_max);
  MAPS_ASSIGN_OR_RETURN(
      DemandOracle oracle,
      DemandOracle::Make(ReplicateDemand(proto, d->grid_->num_cells()),
                         kOracleSeed));
  d->oracle_.emplace(std::move(oracle));

  for (const StrategyFactory& f : DefaultStrategies(pricing)) {
    if (f.name != "MAPS") continue;
    for (int k = 0; k < workload.regions; ++k) {
      d->strategies_.push_back(f.make());
    }
  }

  EngineOptions options;
  options.lifecycle.single_use = false;
  options.lifecycle.speed = spec.worker_speed;
  options.failure_domains.enabled = workload.failure_domains;
  options.metrics = metrics;

  const Clock::time_point start = Clock::now();
  if (workload.regions == 1) {
    d->monolith_ = std::make_unique<MarketEngine>(
        &*d->grid_, d->strategies_[0].get(), options);
  } else {
    MAPS_ASSIGN_OR_RETURN(RegionPartition partition,
                          RegionPartition::Make(*d->grid_, workload.regions));
    d->partition_.emplace(std::move(partition));
    std::vector<PricingStrategy*> region_strategies;
    for (const auto& s : d->strategies_) region_strategies.push_back(s.get());
    d->sharded_ = std::make_unique<ShardedMarketEngine>(
        &*d->grid_, &*d->partition_, region_strategies, options);
  }
  const Clock::time_point built = Clock::now();
  d->construct_s_ = Seconds(start, built);

  if (warm) {
    for (const auto& s : d->strategies_) {
      MAPS_RETURN_NOT_OK(s->Warmup(*d->grid_, &*d->oracle_));
    }
    d->warmup_s_ = Seconds(built, Clock::now());
  }
  return d;
}

Result<RepResult> RunRep(const BenchWorkload& workload,
                         const std::string& log_path, RepKind kind,
                         Deployment* deployment,
                         obs::MetricsRegistry* metrics) {
  std::ifstream in(log_path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + log_path);
  ReplayEventStream stream(in);
  stream.AttachMetrics(metrics);

  RepResult r;
  r.digest = kFnvOffset;
  std::optional<ScopedFaultPlan> faults;
  if (!workload.fault_plan.empty()) faults.emplace(workload.fault_plan);

  const GridPartition& grid = deployment->grid();
  const RegionPartition* partition = deployment->partition();
  const auto run = [&](auto* engine) -> Status {
    switch (kind) {
      case RepKind::kTimed:
        return TimedLoop<false>(workload, &stream, grid, partition, engine,
                                &r);
      case RepKind::kTraced:
        return TimedLoop<true>(workload, &stream, grid, partition, engine,
                               &r);
      case RepKind::kParity:
        return ParityLoop(workload, &stream, grid, engine, &r);
    }
    return Status::Internal("unknown rep kind");
  };
  if (deployment->monolith() != nullptr) {
    MAPS_RETURN_NOT_OK(run(deployment->monolith()));
  } else {
    MAPS_RETURN_NOT_OK(run(deployment->sharded()));
  }
  return r;
}

Status CheckRestoreRoundTrip(const BenchWorkload& workload,
                             const std::string& blob) {
  MAPS_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> fresh,
                        Deployment::Make(workload, nullptr, /*warm=*/false));
  std::string again;
  const auto round_trip = [&](auto* engine) -> Status {
    MAPS_RETURN_NOT_OK(engine->RestoreFromCheckpoint(blob));
    return engine->SaveCheckpoint(&again);
  };
  if (fresh->monolith() != nullptr) {
    MAPS_RETURN_NOT_OK(round_trip(fresh->monolith()));
  } else {
    MAPS_RETURN_NOT_OK(round_trip(fresh->sharded()));
  }
  if (again != blob) {
    return Status::Internal("checkpoint of " + std::to_string(blob.size()) +
                            " bytes re-saved as " +
                            std::to_string(again.size()) +
                            " different bytes after restore");
  }
  return Status::OK();
}

}  // namespace e2e
}  // namespace maps
