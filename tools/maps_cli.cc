// maps_cli: run any strategy on any workload from the command line.
//
//   maps_cli synthetic [--workers=5000 --tasks=20000 --periods=400
//                       --grid=10 --radius=15 --temporal-mu=0.5
//                       --spatial-mean=0.5 --demand-mu=2 --demand-sigma=1
//                       --demand=normal|exponential --metric=euclidean|
//                       manhattan|road --seed=42
//                       --sharded-regions=1 --region-skew=0
//                       --boundary-frac=0 --emit-replay=<out.jsonl>]
//   maps_cli beijing   [--window=peak|night --duration=15 --scale=0.1
//                       --seed=2016]
//   maps_cli replay    --events=events.jsonl
//                      [--grid=4 --extent=100 --strategy=MAPS
//                       --single-use=true --speed=1 --reposition=0
//                       --threads=0 --mc_worlds=0 --regions=1
//                       --demand-mu=2 --demand-sigma=1 --oracle-seed=17
//                       --checkpoint_every=0 --checkpoint_dir=.
//                       --checkpoint_keep=0
//                       --restore_from=<file.ckpt> --skip_bad_events=false
//                       --failure_domains=false --fault_plan=<plan>
//                       --metrics_out=<METRICS.json>
//                       --trace_out=<trace.jsonl>]
//
// `replay` drives the online MarketEngine from a JSONL event file (see
// src/service/replay_log.h for the schema): task submissions, worker
// arrivals/departures, externally observed acceptance, period closes. This
// expresses scenarios the batch workloads cannot — mid-horizon worker
// churn, bursty submissions, feedback-delayed periods. The strategy warms
// up against a truncated-normal demand oracle built from --demand-mu /
// --demand-sigma over [pmin, pmax]; --mc_worlds>0 also reports each
// period's expected revenue under that assumed demand.
//
// The event file is streamed line-at-a-time — a multi-million-event log
// never resides in memory. --regions=K shards the grid into K contiguous
// row bands, each served by its own engine + strategy instance, closed
// concurrently (with --threads) and reconciled by the deterministic
// boundary-stitch pass (DESIGN.md §13); checkpoints then cover all K
// regions in one container.
//
// Checkpointing: --checkpoint_every=N saves the engine (and learned
// strategy state) to --checkpoint_dir every N closed periods;
// --restore_from=<file> resumes a previous run — warm-up is skipped, the
// events already consumed before the checkpointed period boundary are
// skipped, and the resumed run is bit-identical to the uninterrupted one
// (DESIGN.md §12). --skip_bad_events=true drops malformed event lines
// with a warning instead of aborting. --checkpoint_keep=N rotates the
// checkpoint directory down to the N newest checkpoint_<period>.ckpt files
// after every save (0 keeps everything, the old behavior that filled disks
// on long replays).
//
// Robustness drills: --failure_domains=true (with --regions>1) quarantines
// a region whose close fails instead of failing the period — its cells
// serve cached quotes and its tasks defer until the deterministic retry
// succeeds (DESIGN.md §15). --fault_plan=<plan> arms the deterministic
// fault injector for the run, e.g. --fault_plan='close_fail@r1p3' (grammar
// in docs/fault_injection.md).
//
// Telemetry: --metrics_out=<path> writes an obs/v1 METRICS.json at the end
// of the replay (docs/observability.md); --trace_out=<path> writes the
// structured event trace as JSONL. Either flag enables the in-process
// registry + trace; without both, engines run with telemetry disabled.
// Telemetry never changes engine outputs (bit-identity is tested), and the
// "deterministic" slice of METRICS.json is byte-stable across runs of the
// same log at any thread count.
//
// Operator diagnostics (degraded-region, checkpoint-skip, prune lines) go
// to stderr via util/logging so stdout stays a clean report stream.
//
// Common flags:
//   --strategy=MAPS|BaseP|SDR|SDE|CappedUCB|all   (default all; replay
//                                                  takes a single name)
//   --alpha=0.25 --pmin=1 --pmax=5                 pricing ladder
//   --smooth=0.0 --cap=<price>                     post-processing
//   --reposition=0.0                               idle-driver migration
//   --csv=<path>                                   write results as CSV
//
// Unknown or misspelled flags are an error, never silently ignored.

#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "geo/region_partition.h"
#include "market/demand_model.h"
#include "obs/export.h"
#include "pricing/price_postprocess.h"
#include "service/checkpoint.h"
#include "service/market_engine.h"
#include "service/replay_driver.h"
#include "service/replay_log.h"
#include "service/sharded_engine.h"
#include "sim/beijing.h"
#include "sim/metrics.h"
#include "sim/replay_export.h"
#include "sim/simulator.h"
#include "sim/synthetic.h"
#include "util/csv.h"
#include "util/fault_injector.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace maps {
namespace {

int Fail(const std::string& message) {
  std::cerr << "maps_cli: " << message << "\n";
  return 1;
}

Result<Workload> BuildWorkload(const std::string& kind, const FlagSet& flags) {
  if (kind == "synthetic") {
    SyntheticConfig cfg;
    cfg.num_workers = static_cast<int>(flags.GetInt("workers", 5000));
    cfg.num_tasks = static_cast<int>(flags.GetInt("tasks", 20000));
    cfg.num_periods = static_cast<int>(flags.GetInt("periods", 400));
    const int grid = static_cast<int>(flags.GetInt("grid", 10));
    cfg.grid_rows = grid;
    cfg.grid_cols = grid;
    cfg.worker_radius = flags.GetDouble("radius", 15.0);
    cfg.temporal_mu = flags.GetDouble("temporal-mu", 0.5);
    cfg.spatial_mean = flags.GetDouble("spatial-mean", 0.5);
    cfg.demand_mu = flags.GetDouble("demand-mu", 2.0);
    cfg.demand_sigma = flags.GetDouble("demand-sigma", 1.0);
    cfg.demand_rate = flags.GetDouble("demand-rate", 1.0);
    cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    cfg.sharded_regions =
        static_cast<int>(flags.GetInt("sharded-regions", 1));
    cfg.region_skew = flags.GetDouble("region-skew", 0.0);
    cfg.boundary_worker_frac = flags.GetDouble("boundary-frac", 0.0);
    const std::string family = flags.GetString("demand", "normal");
    if (family == "exponential") {
      cfg.demand_family = SyntheticConfig::DemandFamily::kExponential;
    } else if (family != "normal") {
      return Status::InvalidArgument("unknown --demand=" + family);
    }
    const std::string metric = flags.GetString("metric", "euclidean");
    if (metric == "manhattan") {
      cfg.distance_metric = SyntheticConfig::DistanceMetric::kManhattan;
    } else if (metric == "road") {
      cfg.distance_metric = SyntheticConfig::DistanceMetric::kRoadNetwork;
    } else if (metric != "euclidean") {
      return Status::InvalidArgument("unknown --metric=" + metric);
    }
    return GenerateSynthetic(cfg);
  }
  if (kind == "beijing") {
    BeijingConfig cfg;
    const std::string window = flags.GetString("window", "peak");
    if (window == "night") {
      cfg.window = BeijingConfig::Window::kLateNight;
    } else if (window != "peak") {
      return Status::InvalidArgument("unknown --window=" + window);
    }
    cfg.worker_duration = static_cast<int>(flags.GetInt("duration", 15));
    cfg.population_scale = flags.GetDouble("scale", 0.1);
    cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 2016));
    return GenerateBeijing(cfg);
  }
  return Status::InvalidArgument(
      "unknown workload '" + kind + "' (expected synthetic|beijing|replay)");
}

/// Telemetry sinks for one replay run. Both pointers are null when neither
/// --metrics_out nor --trace_out was given — the engines then run with
/// telemetry fully disabled (one branch per site, DESIGN.md §16).
struct ObsSinks {
  obs::MetricsRegistry* registry = nullptr;
  obs::TraceLog* trace = nullptr;
  std::string metrics_out;
  std::string trace_out;
};

/// Detaches the run-local TraceLog from the process-wide fault injector on
/// every exit path of RunReplay (the injector outlives the trace).
struct FaultTraceDetach {
  ~FaultTraceDetach() { FaultInjector::Global().AttachTrace(nullptr); }
};

/// The engine-agnostic tail of `maps_cli replay`: streams the event file
/// through `engine` (monolithic or sharded) with per-close table rows and
/// optional periodic checkpoints, then prints the run summary.
template <typename Engine>
int DriveReplayAndReport(Engine* engine, ReplayEventStream* stream,
                         const GridPartition& grid, const std::string& which,
                         const std::string& csv, int64_t checkpoint_every,
                         const std::string& checkpoint_dir,
                         int64_t checkpoint_keep, const ObsSinks& sinks) {
  Table table({"period", "tasks", "workers", "accepted", "matched",
               "revenue", "mc_revenue"});
  // Checkpoint file IO is timed here (not in the engine) because the engine
  // only ever sees blobs; paths and rotation are a driver concern.
  obs::Histogram* file_write_ns = nullptr;
  obs::Histogram* prune_ns = nullptr;
  if (sinks.registry != nullptr) {
    file_write_ns = sinks.registry->GetHistogram(
        "checkpoint.file_write_ns", obs::Determinism::kWallClock);
    prune_ns = sinks.registry->GetHistogram("checkpoint.prune_ns",
                                            obs::Determinism::kWallClock);
  }
  ReplayStreamOptions drive;
  // Resume from the checkpointed boundary: everything up to and including
  // the current_period()-th close_period was already consumed.
  drive.skip_closes = engine->current_period();
  drive.on_close = [&](const PeriodOutcome& outcome) {
    if (!outcome.skipped) {
      table.AddRow(outcome.period, outcome.num_tasks,
                   outcome.num_available_workers,
                   static_cast<int64_t>(outcome.accepted.size()),
                   static_cast<int64_t>(outcome.matches.size()),
                   outcome.revenue, outcome.mc_expected_revenue);
    }
    // Operator diagnostics go to stderr via util/logging; stdout stays a
    // clean report stream that scripts can parse.
    for (const RegionHealth& h : outcome.region_health) {
      if (h.state == RegionHealth::State::kNormal) continue;
      MAPS_LOG(Info) << "degraded: region " << h.region << " "
                     << RegionHealthStateName(h.state) << " (attempt " << h.attempts
                     << ", since period " << h.quarantined_since << ")";
    }
    if (checkpoint_every > 0 &&
        engine->current_period() % checkpoint_every == 0) {
      std::string blob;
      const Status save = engine->SaveCheckpoint(&blob);
      if (save.IsFailedPrecondition()) {
        // A quarantined deployment has no checkpointable state yet; the
        // next on-schedule save after recovery will cover this window.
        MAPS_LOG(Info) << "checkpoint skipped at period "
                       << engine->current_period() << ": " << save.message();
        return Status::OK();
      }
      MAPS_RETURN_NOT_OK(save);
      const std::string path = checkpoint_dir + "/checkpoint_" +
                               std::to_string(engine->current_period()) +
                               ".ckpt";
      {
        obs::ScopedTimer write_timer(file_write_ns);
        MAPS_RETURN_NOT_OK(WriteCheckpointFile(path, blob));
      }
      std::cout << "checkpoint: " << path << "\n";
      if (checkpoint_keep > 0) {
        std::vector<std::string> removed;
        {
          obs::ScopedTimer prune_timer(prune_ns);
          MAPS_RETURN_NOT_OK(PruneCheckpointFiles(
              checkpoint_dir, "checkpoint_",
              static_cast<int>(checkpoint_keep), &removed));
        }
        for (const std::string& pruned : removed) {
          MAPS_LOG(Info) << "pruned: " << pruned;
        }
      }
    }
    return Status::OK();
  };

  auto summary_or = ReplayEventsThroughEngine(stream, grid, engine, drive);
  if (!summary_or.ok()) {
    return Fail("event replay: " + summary_or.status().ToString());
  }
  const ReplayStreamSummary& summary = summary_or.ValueOrDie();

  std::cout << "replayed " << stream->stats().events_loaded << " events";
  if (stream->stats().lines_skipped > 0) {
    std::cout << " (" << stream->stats().lines_skipped
              << " malformed line(s) skipped)";
  }
  std::cout << ", " << engine->current_period() << " periods closed ("
            << which << ")\n\n"
            << table.ToText() << "\ntotal revenue " << summary.total_revenue
            << ", " << summary.total_accepted << " accepted, "
            << summary.total_matched << " matched, "
            << engine->strategy_seconds() << " s in the strategy\n";
  if (!csv.empty()) {
    if (Status st = table.WriteCsv(csv); !st.ok()) {
      return Fail(st.ToString());
    }
    std::cout << "wrote " << csv << "\n";
  }
  if (!sinks.metrics_out.empty() && sinks.registry != nullptr) {
    if (Status st = obs::WriteMetricsJsonFile(sinks.metrics_out,
                                              *sinks.registry, sinks.trace);
        !st.ok()) {
      return Fail(sinks.metrics_out + ": " + st.ToString());
    }
    std::cout << "wrote " << sinks.metrics_out << "\n";
  }
  if (!sinks.trace_out.empty() && sinks.trace != nullptr) {
    if (Status st = obs::WriteTraceJsonlFile(sinks.trace_out, *sinks.trace);
        !st.ok()) {
      return Fail(sinks.trace_out + ": " + st.ToString());
    }
    std::cout << "wrote " << sinks.trace_out << "\n";
  }
  return 0;
}

/// Drives the online engine from a JSONL event file.
int RunReplay(const FlagSet& flags, const PricingConfig& pricing) {
  // The common flags (see the file comment) apply here too.
  PostprocessOptions post;
  post.smoothing_lambda = flags.GetDouble("smooth", 0.0);
  if (flags.Has("cap")) post.price_cap = flags.GetDouble("cap", 5.0);
  const bool postprocess =
      post.smoothing_lambda > 0.0 || post.price_cap.has_value();
  const std::string csv = flags.GetString("csv", "");

  const std::string events_path = flags.GetString("events", "");
  const int grid_side = static_cast<int>(flags.GetInt("grid", 4));
  const double extent = flags.GetDouble("extent", 100.0);
  const std::string which = flags.GetString("strategy", "MAPS");
  const double demand_mu = flags.GetDouble("demand-mu", 2.0);
  const double demand_sigma = flags.GetDouble("demand-sigma", 1.0);
  const uint64_t oracle_seed =
      static_cast<uint64_t>(flags.GetInt("oracle-seed", 17));
  const int threads = static_cast<int>(flags.GetInt("threads", 0));
  const int mc_worlds = static_cast<int>(flags.GetInt("mc_worlds", 0));
  const int num_regions = static_cast<int>(flags.GetInt("regions", 1));
  const int64_t checkpoint_every = flags.GetInt("checkpoint_every", 0);
  const std::string checkpoint_dir = flags.GetString("checkpoint_dir", ".");
  const int64_t checkpoint_keep = flags.GetInt("checkpoint_keep", 0);
  const std::string restore_from = flags.GetString("restore_from", "");
  const std::string fault_plan_text = flags.GetString("fault_plan", "");
  const std::string metrics_out = flags.GetString("metrics_out", "");
  const std::string trace_out = flags.GetString("trace_out", "");
  ReplayLoadOptions load_options;
  load_options.skip_bad_events = flags.GetBool("skip_bad_events", false);

  EngineOptions engine_options;
  engine_options.lifecycle.single_use = flags.GetBool("single-use", true);
  engine_options.lifecycle.speed = flags.GetDouble("speed", 1.0);
  engine_options.lifecycle.reposition_prob = flags.GetDouble("reposition", 0.0);
  engine_options.mc_worlds = mc_worlds;
  engine_options.failure_domains.enabled =
      flags.GetBool("failure_domains", false);

  if (Status st = flags.RejectUnread(); !st.ok()) return Fail(st.ToString());
  if (events_path.empty()) return Fail("replay needs --events=<file.jsonl>");
  if (num_regions < 1) return Fail("--regions must be >= 1");
  if (checkpoint_keep < 0) return Fail("--checkpoint_keep must be >= 0");
  if (engine_options.failure_domains.enabled && num_regions == 1) {
    MAPS_LOG(Info) << "note: --failure_domains has no effect with --regions=1";
  }

  // Either telemetry flag enables both the registry and the trace; they
  // must outlive the engines, the stream, and the pool below. Telemetry
  // never changes engine outputs (obs_integration_test proves bit-identity).
  std::optional<obs::MetricsRegistry> registry;
  std::optional<obs::TraceLog> trace;
  ObsSinks sinks;
  FaultTraceDetach fault_trace_detach;
  if (!metrics_out.empty() || !trace_out.empty()) {
    registry.emplace();
    trace.emplace();
    sinks.registry = &*registry;
    sinks.trace = &*trace;
    sinks.metrics_out = metrics_out;
    sinks.trace_out = trace_out;
    engine_options.metrics = sinks.registry;
    engine_options.trace = sinks.trace;
    FaultInjector::Global().AttachTrace(sinks.trace);
  }

  if (!fault_plan_text.empty()) {
    auto plan_or = ParseFaultPlan(fault_plan_text);
    if (!plan_or.ok()) {
      return Fail("--fault_plan: " + plan_or.status().ToString());
    }
    if (Status st = FaultInjector::Global().Arm(plan_or.ValueOrDie());
        !st.ok()) {
      return Fail("--fault_plan: " + st.ToString());
    }
    MAPS_LOG(Info) << "fault plan armed: " << fault_plan_text;
  }

  // The event file is STREAMED, not loaded: one line in memory at a time,
  // so multi-million-event logs replay under a constant ingestion
  // footprint (service/replay_log.h).
  std::ifstream in(events_path);
  if (!in) return Fail("cannot open " + events_path);
  ReplayEventStream stream(in, load_options);
  stream.AttachMetrics(sinks.registry);

  auto grid_or =
      GridPartition::Make(Rect{0, 0, extent, extent}, grid_side, grid_side);
  if (!grid_or.ok()) return Fail(grid_or.status().ToString());
  const GridPartition& grid = grid_or.ValueOrDie();

  // Warm-up demand: every strategy trains on probes before serving, so the
  // replay assumes truncated-normal valuations over the price range.
  TruncatedNormalDemand proto(demand_mu, demand_sigma, pricing.p_min,
                              pricing.p_max);
  auto oracle_or = DemandOracle::Make(
      ReplicateDemand(proto, grid.num_cells()), oracle_seed);
  if (!oracle_or.ok()) return Fail(oracle_or.status().ToString());
  DemandOracle& oracle = oracle_or.ValueOrDie();

  // One strategy instance per region (the monolith is the K=1 case), all
  // built from the same factory and all warmed against the SAME oracle so
  // their learned state is identical (probing is read-only on the oracle).
  const std::vector<StrategyFactory> factories = DefaultStrategies(pricing);
  const StrategyFactory* factory = nullptr;
  for (const StrategyFactory& f : factories) {
    if (f.name == which) factory = &f;
  }
  if (factory == nullptr) {
    return Fail("replay takes one --strategy name, got " + which);
  }
  std::vector<std::unique_ptr<PricingStrategy>> strategies;
  for (int k = 0; k < num_regions; ++k) {
    std::unique_ptr<PricingStrategy> s = factory->make();
    if (postprocess) {
      s = std::make_unique<PostprocessedStrategy>(std::move(s), post);
    }
    strategies.push_back(std::move(s));
  }

  std::optional<ThreadPool> pool;
  if (threads > 0) {
    pool.emplace(threads);
    pool->AttachMetrics(sinks.registry);
    engine_options.pool = &*pool;
  }
  if (mc_worlds > 0) engine_options.mc_oracle = &oracle;

  // A restored engine carries the checkpointed learned state, so warm-up
  // runs only on a fresh start.
  const auto warm_or_restore = [&](auto* engine) -> int {
    if (restore_from.empty()) {
      for (const auto& s : strategies) {
        if (Status st = s->Warmup(grid, &oracle); !st.ok()) {
          return Fail(which + " warmup: " + st.ToString());
        }
      }
      return 0;
    }
    std::string blob;
    if (Status st = ReadCheckpointFile(restore_from, &blob); !st.ok()) {
      return Fail(restore_from + ": " + st.ToString());
    }
    if (Status st = engine->RestoreFromCheckpoint(blob); !st.ok()) {
      return Fail(restore_from + ": " + st.ToString());
    }
    std::cout << "restored " << restore_from << " at period "
              << engine->current_period() << "\n";
    return 0;
  };

  if (num_regions == 1) {
    MarketEngine engine(&grid, strategies[0].get(), engine_options);
    if (int rc = warm_or_restore(&engine); rc != 0) return rc;
    return DriveReplayAndReport(&engine, &stream, grid, which, csv,
                                checkpoint_every, checkpoint_dir,
                                checkpoint_keep, sinks);
  }

  auto partition_or = RegionPartition::Make(grid, num_regions);
  if (!partition_or.ok()) return Fail(partition_or.status().ToString());
  const RegionPartition& partition = partition_or.ValueOrDie();
  std::vector<PricingStrategy*> region_strategies;
  for (const auto& s : strategies) region_strategies.push_back(s.get());
  ShardedMarketEngine engine(&grid, &partition, region_strategies,
                             engine_options);
  if (int rc = warm_or_restore(&engine); rc != 0) return rc;
  return DriveReplayAndReport(&engine, &stream, grid, which, csv,
                              checkpoint_every, checkpoint_dir,
                              checkpoint_keep, sinks);
}

}  // namespace
}  // namespace maps

int main(int argc, char** argv) {
  using namespace maps;  // NOLINT

  auto flags_or = FlagSet::Parse(argc, argv);
  if (!flags_or.ok()) return Fail(flags_or.status().ToString());
  const FlagSet& flags = flags_or.ValueOrDie();
  if (flags.positional().size() != 1) {
    return Fail("usage: maps_cli <synthetic|beijing|replay> [--flags]");
  }

  PricingConfig pricing;
  pricing.p_min = flags.GetDouble("pmin", 1.0);
  pricing.p_max = flags.GetDouble("pmax", 5.0);
  pricing.alpha = flags.GetDouble("alpha", 0.25);

  if (flags.positional()[0] == "replay") return RunReplay(flags, pricing);

  PostprocessOptions post;
  post.smoothing_lambda = flags.GetDouble("smooth", 0.0);
  if (flags.Has("cap")) post.price_cap = flags.GetDouble("cap", 5.0);
  const bool postprocess =
      post.smoothing_lambda > 0.0 || post.price_cap.has_value();

  const std::string which = flags.GetString("strategy", "all");
  const double reposition = flags.GetDouble("reposition", 0.0);
  const std::string csv = flags.GetString("csv", "");
  const std::string emit_replay = flags.GetString("emit-replay", "");

  auto workload_or = BuildWorkload(flags.positional()[0], flags);

  if (Status st = flags.RejectUnread(); !st.ok()) return Fail(st.ToString());
  if (!workload_or.ok()) return Fail(workload_or.status().ToString());
  Workload& workload = workload_or.ValueOrDie();
  workload.lifecycle.reposition_prob = reposition;

  // --emit-replay=<path>: write the workload as a JSONL event log for the
  // streaming replay path (maps_cli replay [--regions=K]) and stop.
  if (!emit_replay.empty()) {
    std::ofstream log(emit_replay);
    if (!log) return Fail("cannot open " + emit_replay);
    if (Status st = WriteReplayLog(workload, log); !st.ok()) {
      return Fail(emit_replay + ": " + st.ToString());
    }
    std::cout << "wrote " << emit_replay << ": " << workload.tasks.size()
              << " tasks, " << workload.workers.size() << " workers, "
              << workload.num_periods << " periods\n";
    return 0;
  }

  std::cout << "workload: " << workload.name << " — "
            << workload.tasks.size() << " tasks, " << workload.workers.size()
            << " workers, " << workload.grid.num_cells() << " grids, "
            << workload.num_periods << " periods\n\n";

  Table table({"strategy", "revenue", "time_secs", "memory_mb", "accepted",
               "matched"});
  auto strategies = DefaultStrategies(pricing);
  size_t ran = 0;
  for (size_t s = 0; s < strategies.size(); ++s) {
    if (which != "all" && which != strategies[s].name) continue;
    std::unique_ptr<PricingStrategy> strategy = strategies[s].make();
    if (postprocess) {
      strategy = std::make_unique<PostprocessedStrategy>(std::move(strategy),
                                                         post);
    }
    SimOptions opts;
    opts.warmup_stream = 300 + s;
    auto run = RunSimulation(workload, strategy.get(), opts);
    if (!run.ok()) {
      return Fail(strategies[s].name + ": " + run.status().ToString());
    }
    const SimulationResult& r = run.ValueOrDie();
    table.AddRow(strategy->name(), r.total_revenue, r.total_time_sec,
                 static_cast<double>(r.memory_bytes) / (1024.0 * 1024.0),
                 r.num_accepted, r.num_matched);
    ++ran;
  }
  if (ran == 0) return Fail("no strategy matched --strategy=" + which);
  std::cout << table.ToText();
  if (!csv.empty()) {
    if (Status st = table.WriteCsv(csv); !st.ok()) {
      return Fail(st.ToString());
    }
    std::cout << "\nwrote " << csv << "\n";
  }
  return 0;
}
