// Google-benchmark micro-benchmarks for the computational kernels: bipartite
// graph construction, the three matchers, the possible-world enumerator,
// demand sampling, and a full MAPS pricing round.
//
// After the google-benchmark suite runs, main() emits BENCH_micro.json —
// per-op nanoseconds and peak bytes for the tracked hot paths (PriceRound,
// graph build, OracleSearch, engine closes, checkpoints, replay parsing) —
// so the perf trajectory across PRs is machine-readable. MAPS_BENCH_SCALE
// scales the tracked instance sizes (e.g. 0.05 for a CI smoke pass).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "graph/bipartite_graph.h"
#include "graph/hopcroft_karp.h"
#include "graph/max_weight_matching.h"
#include "graph/possible_worlds.h"
#include "market/demand_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pricing/base_pricing.h"
#include "pricing/maps.h"
#include "pricing/oracle_search.h"
#include "geo/region_partition.h"
#include "rng/counter_rng.h"
#include "rng/random.h"
#include "service/market_engine.h"
#include "service/replay_log.h"
#include "service/sharded_engine.h"
#include "sim/scenario_fuzzer.h"
#include "sim/simulator.h"
#include "sim/synthetic.h"
#include "util/fault_injector.h"
#include "util/serial.h"
#include "util/thread_pool.h"

namespace maps {
namespace {

BipartiteGraph MakeRandomGraph(int nl, int nr, double density,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int, int>> edges;
  for (int l = 0; l < nl; ++l) {
    for (int r = 0; r < nr; ++r) {
      if (rng.NextBernoulli(density)) edges.push_back({l, r});
    }
  }
  return BipartiteGraph::FromEdges(nl, nr, std::move(edges));
}

void BM_HopcroftKarp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const BipartiteGraph g = MakeRandomGraph(n, n, 8.0 / n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HopcroftKarpMatching(g).size);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_HopcroftKarp)->Range(64, 4096)->Complexity();

void BM_MaxWeightTaskMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const BipartiteGraph g = MakeRandomGraph(n, n, 8.0 / n, 2);
  Rng rng(3);
  std::vector<double> weights(n);
  for (auto& w : weights) w = rng.NextDouble(0.1, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxWeightTaskMatching(g, weights).total_weight);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MaxWeightTaskMatching)->Range(64, 4096)->Complexity();

void BM_SpatialGraphBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto grid = GridPartition::Make(Rect{0, 0, 100, 100}, 10, 10).ValueOrDie();
  Rng rng(4);
  std::vector<Task> tasks(n);
  std::vector<Worker> workers(n);
  for (int i = 0; i < n; ++i) {
    tasks[i].id = i;
    tasks[i].origin = {rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
    tasks[i].grid = grid.CellOf(tasks[i].origin);
    workers[i].id = i;
    workers[i].location = {rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
    workers[i].radius = 15.0;
    workers[i].grid = grid.CellOf(workers[i].location);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BipartiteGraph::Build(tasks, workers, grid).num_edges());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SpatialGraphBuild)->Range(64, 4096)->Complexity();

void BM_SpatialGraphBuildPooled(benchmark::State& state) {
  // Steady-state variant: workspace and graph storage reused across builds,
  // as the engine's MarketSnapshot does every period.
  const int n = static_cast<int>(state.range(0));
  auto grid = GridPartition::Make(Rect{0, 0, 100, 100}, 10, 10).ValueOrDie();
  Rng rng(4);
  std::vector<Task> tasks(n);
  std::vector<Worker> workers(n);
  for (int i = 0; i < n; ++i) {
    tasks[i].id = i;
    tasks[i].origin = {rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
    tasks[i].grid = grid.CellOf(tasks[i].origin);
    workers[i].id = i;
    workers[i].location = {rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
    workers[i].radius = 15.0;
    workers[i].grid = grid.CellOf(workers[i].location);
  }
  GraphBuildWorkspace ws;
  BipartiteGraph g;
  for (auto _ : state) {
    BipartiteGraph::BuildInto(tasks, workers, grid, &ws, &g);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SpatialGraphBuildPooled)->Range(64, 4096)->Complexity();

void BM_PossibleWorldEnumeration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const BipartiteGraph g = MakeRandomGraph(n, n / 2 + 1, 0.5, 5);
  std::vector<PricedTask> tasks(n);
  Rng rng(6);
  for (auto& t : tasks) {
    t.distance = rng.NextDouble(0.5, 3.0);
    t.price = rng.NextDouble(1.0, 5.0);
    t.accept_prob = rng.NextDouble(0.2, 0.9);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactExpectedRevenue(g, tasks));
  }
}
BENCHMARK(BM_PossibleWorldEnumeration)->DenseRange(4, 16, 4);

void BM_TruncatedNormalSample(benchmark::State& state) {
  TruncatedNormalDemand demand(2.0, 1.0, 1.0, 5.0);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(demand.Sample(rng));
  }
}
BENCHMARK(BM_TruncatedNormalSample);

void BM_CounterRngBlock(benchmark::State& state) {
  // Raw Philox 4x64-10 throughput: one block = 4 output words.
  CounterRng rng(42, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextUint64());
  }
}
BENCHMARK(BM_CounterRngBlock);

void BM_MonteCarloWorlds(benchmark::State& state) {
  // Counter-streamed Monte-Carlo estimate on a contention-heavy graph; the
  // serial sharded path (pool = nullptr) — the pooled speedup is tracked in
  // BENCH_micro.json where the thread count is recorded alongside.
  const int n = static_cast<int>(state.range(0));
  const BipartiteGraph g = MakeRandomGraph(n, n / 2 + 1, 0.5, 5);
  std::vector<PricedTask> tasks(n);
  Rng rng(6);
  for (auto& t : tasks) {
    t.distance = rng.NextDouble(0.5, 3.0);
    t.price = rng.NextDouble(1.0, 5.0);
    t.accept_prob = rng.NextDouble(0.2, 0.9);
  }
  std::vector<PossibleWorldsWorkspace> ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MonteCarloExpectedRevenue(g, tasks, /*seed=*/11, /*samples=*/4096,
                                  /*pool=*/nullptr, &ws));
  }
}
BENCHMARK(BM_MonteCarloWorlds)->DenseRange(8, 24, 8);

void BM_ObsHistogramRecord(benchmark::State& state) {
  // The telemetry hot path: one bit-width + three relaxed fetch_adds. This
  // is the unit cost every instrumented span pays when a registry is
  // attached, so it has to stay in the few-ns range.
  obs::Histogram h;
  int64_t v = 1;
  for (auto _ : state) {
    h.Record(v);
    v = (v * 2862933555777941757LL + 3037000493LL) & 0x7fffffffffff;
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_ObsCounterIncrementDisabled(benchmark::State& state) {
  // The disabled-telemetry path: a null handle is one predictable branch.
  obs::Counter* counter = nullptr;
  int64_t field = 0;
  for (auto _ : state) {
    obs::BumpMirrored(&field, counter);
    benchmark::DoNotOptimize(field);
  }
}
BENCHMARK(BM_ObsCounterIncrementDisabled);

void BM_MyersonPriceScan(benchmark::State& state) {
  TruncatedNormalDemand demand(2.0, 1.0, 1.0, 5.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(demand.MyersonPrice(1.0, 5.0));
  }
}
BENCHMARK(BM_MyersonPriceScan);

void BM_MapsPriceRound(benchmark::State& state) {
  const int tasks_n = static_cast<int>(state.range(0));
  SyntheticConfig cfg;
  cfg.num_tasks = tasks_n;
  cfg.num_workers = tasks_n / 4;
  cfg.num_periods = 1;  // everything lands in one snapshot
  cfg.temporal_sigma = 0.0001;
  cfg.seed = 99;
  Workload w = GenerateSynthetic(cfg).ValueOrDie();
  MapsOptions opts;
  Maps strategy(opts);
  DemandOracle history = w.oracle.Fork(9);
  if (!strategy.Warmup(w.grid, &history).ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  MarketSnapshot snap(&w.grid, 0, w.tasks, w.workers);
  std::vector<double> prices;
  for (auto _ : state) {
    if (!strategy.PriceRound(snap, &prices).ok()) {
      state.SkipWithError("price round failed");
      return;
    }
    benchmark::DoNotOptimize(prices.data());
  }
  state.SetComplexityN(tasks_n);
}
BENCHMARK(BM_MapsPriceRound)->Range(256, 4096)->Complexity();

void BM_MapsPriceRoundSharded(benchmark::State& state) {
  // Same round with a lent pool: the per-round maximizer precompute shards
  // across it (bit-identical results; see DESIGN.md §10).
  const int tasks_n = static_cast<int>(state.range(0));
  SyntheticConfig cfg;
  cfg.num_tasks = tasks_n;
  cfg.num_workers = tasks_n / 4;
  cfg.num_periods = 1;
  cfg.temporal_sigma = 0.0001;
  cfg.seed = 99;
  Workload w = GenerateSynthetic(cfg).ValueOrDie();
  MapsOptions opts;
  Maps strategy(opts);
  ThreadPool pool(ThreadPool::DefaultThreadCount());
  strategy.LendPool(&pool);
  DemandOracle history = w.oracle.Fork(9);
  if (!strategy.Warmup(w.grid, &history).ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  MarketSnapshot snap(&w.grid, 0, w.tasks, w.workers);
  std::vector<double> prices;
  for (auto _ : state) {
    if (!strategy.PriceRound(snap, &prices).ok()) {
      state.SkipWithError("price round failed");
      return;
    }
    benchmark::DoNotOptimize(prices.data());
  }
  state.SetComplexityN(tasks_n);
}
BENCHMARK(BM_MapsPriceRoundSharded)->Range(256, 4096)->Complexity();

void BM_EnginePeriod(benchmark::State& state) {
  // One online period through the MarketEngine event API: submit a burst of
  // tasks, close the period (price + acceptance + matching + lifecycle).
  // Turnaround workers at effectively infinite speed return every period,
  // so each iteration serves an equally sized market.
  const int tasks_n = static_cast<int>(state.range(0));
  SyntheticConfig cfg;
  cfg.num_tasks = tasks_n;
  cfg.num_workers = tasks_n / 4;
  cfg.num_periods = 1;
  cfg.temporal_sigma = 0.0001;
  cfg.seed = 99;
  Workload w = GenerateSynthetic(cfg).ValueOrDie();
  MapsOptions opts;
  Maps strategy(opts);
  DemandOracle history = w.oracle.Fork(9);
  if (!strategy.Warmup(w.grid, &history).ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  EngineOptions engine_options;
  engine_options.lifecycle.single_use = false;
  engine_options.lifecycle.speed = 1e12;  // rides finish in one period
  MarketEngine engine(&w.grid, &strategy, engine_options);
  for (const Worker& worker : w.workers) {
    if (!engine.AddWorker(worker).ok()) {
      state.SkipWithError("add_worker failed");
      return;
    }
  }
  PeriodOutcome outcome;
  for (auto _ : state) {
    for (size_t i = 0; i < w.tasks.size(); ++i) {
      if (!engine.SubmitTask(w.tasks[i], w.valuations[i]).ok()) {
        state.SkipWithError("submit_task failed");
        return;
      }
    }
    if (!engine.ClosePeriod(&outcome).ok()) {
      state.SkipWithError("close_period failed");
      return;
    }
    benchmark::DoNotOptimize(outcome.revenue);
  }
  state.SetComplexityN(tasks_n);
}
BENCHMARK(BM_EnginePeriod)->Range(256, 4096)->Complexity();

// A 4096-task single-period burst served by a K-region ShardedMarketEngine.
// The workload uses the multi-region generator shape (even band load, wide
// spatial spread) and BaseP's constant posted price, so acceptance — and
// with it the max-weight matching load — is stable across iterations; the
// matching core is the superlinear term the band split exists to shrink.
// With `failure_domains` every close first saves each region's restore
// point (DESIGN.md §15).
void RunShardedEnginePeriod(benchmark::State& state, int num_regions,
                            bool failure_domains) {
  const int tasks_n = 4096;
  SyntheticConfig cfg;
  cfg.num_tasks = tasks_n;
  cfg.num_workers = tasks_n / 2;
  cfg.num_periods = 1;
  cfg.temporal_sigma = 0.0001;
  cfg.spatial_sigma = 35.0;
  cfg.sharded_regions = 4;  // same workload for every K
  cfg.seed = 99;
  Workload w = GenerateSynthetic(cfg).ValueOrDie();
  const RegionPartition partition =
      RegionPartition::Make(w.grid, num_regions).ValueOrDie();
  PricingConfig pricing_config;
  std::vector<std::unique_ptr<BasePricing>> owned;
  std::vector<PricingStrategy*> strategies;
  for (int k = 0; k < num_regions; ++k) {
    auto strategy = std::make_unique<BasePricing>(pricing_config);
    DemandOracle history = w.oracle.Fork(9);
    if (!strategy->Warmup(w.grid, &history).ok()) {
      state.SkipWithError("warmup failed");
      return;
    }
    strategies.push_back(strategy.get());
    owned.push_back(std::move(strategy));
  }
  ThreadPool pool(ThreadPool::DefaultThreadCount());
  EngineOptions engine_options;
  engine_options.lifecycle.single_use = false;
  engine_options.lifecycle.speed = 1e12;  // rides finish in one period
  if (num_regions > 1) engine_options.pool = &pool;
  engine_options.failure_domains.enabled = failure_domains;
  ShardedMarketEngine engine(&w.grid, &partition, strategies, engine_options);
  for (const Worker& worker : w.workers) {
    if (!engine.AddWorker(worker).ok()) {
      state.SkipWithError("add_worker failed");
      return;
    }
  }
  PeriodOutcome outcome;
  for (auto _ : state) {
    for (size_t i = 0; i < w.tasks.size(); ++i) {
      if (!engine.SubmitTask(w.tasks[i], w.valuations[i]).ok()) {
        state.SkipWithError("submit_task failed");
        return;
      }
    }
    if (!engine.ClosePeriod(&outcome).ok()) {
      state.SkipWithError("close_period failed");
      return;
    }
    benchmark::DoNotOptimize(outcome.revenue);
  }
}

void BM_ShardedEnginePeriod(benchmark::State& state) {
  // range(0) = K. K=1 is the sharded router in front of one region (pure
  // routing overhead over the monolith); K>1 additionally closes the
  // regions concurrently when the host has cores to offer.
  RunShardedEnginePeriod(state, static_cast<int>(state.range(0)),
                         /*failure_domains=*/false);
}
BENCHMARK(BM_ShardedEnginePeriod)->Arg(1)->Arg(2)->Arg(4);

void BM_ShardedEnginePeriodFd(benchmark::State& state) {
  // K=2 with failure domains on and no faults: the healthy close plus one
  // restore-point save per region.
  RunShardedEnginePeriod(state, 2, /*failure_domains=*/true);
}
BENCHMARK(BM_ShardedEnginePeriodFd);

// ---------------------------------------------------------------------------
// BENCH_micro.json: machine-readable per-op ns and peak bytes for the three
// tracked hot paths. Kept separate from the google-benchmark suite so the
// file's schema is stable regardless of --benchmark_filter.
// ---------------------------------------------------------------------------

double BenchScale() {
  const char* s = std::getenv("MAPS_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  const double v = std::atof(s);
  return v > 0.0 ? v : 1.0;
}

// Replay ingestion: the churn_storm seed-1 scenario log (every event kind,
// tiny periods — the shape of the e2e churn_ingest workload) held in
// memory, its horizon scaled by MAPS_BENCH_SCALE.
std::string ChurnStormLog() {
  ScenarioSpec spec;
  for (const ScenarioSpec& s : DefaultScenarioMatrix()) {
    if (s.name == "churn_storm") spec = s;
  }
  spec.num_periods = std::max(4, static_cast<int>(160 * BenchScale()));
  std::ostringstream log;
  if (!WriteScenarioLog(spec, 1, log).ok()) std::abort();
  return log.str();
}

/// Streams every event of `log` through ReplayEventStream — the serving
/// parse path, reusing one line and one field buffer. Returns the event
/// count; `peak_bytes` (if set) receives the reader's peak footprint.
int64_t DrainReplayLog(const std::string& log, size_t* peak_bytes = nullptr) {
  std::istringstream in(log);
  ReplayEventStream stream(in);
  ReplayEvent ev;
  int64_t events = 0;
  while (true) {
    auto more = stream.Next(&ev);
    if (!more.ok()) std::abort();
    if (!more.ValueOrDie()) break;
    ++events;
    if (peak_bytes != nullptr) {
      *peak_bytes = std::max(*peak_bytes, stream.FootprintBytes());
    }
  }
  benchmark::DoNotOptimize(ev);
  return events;
}

void BM_ParseReplayEventLine(benchmark::State& state) {
  const std::string log = ChurnStormLog();
  int64_t events = 0;
  for (auto _ : state) events += DrainReplayLog(log);
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_ParseReplayEventLine);

struct TrackedResult {
  std::string name;
  double ns_per_op = 0.0;
  /// Set on a row timed in interleaved pairs against `paired_with`: the
  /// median of the per-pair time ratios (this row / that row).
  std::string paired_with;
  double paired_ratio = 0.0;
  size_t peak_bytes = 0;
  int iterations = 0;
  int problem_size = 0;
};

/// Runs `op` until ~min_seconds of wall time accumulate; returns ns/op.
template <typename Op>
double TimeOp(Op&& op, int* iterations, double min_seconds = 0.25) {
  using Clock = std::chrono::steady_clock;
  int iters = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    op();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  *iterations = iters;
  return elapsed * 1e9 / iters;
}

bool EmitTrackedJson(const std::string& path) {
  const double scale = BenchScale();
  std::vector<TrackedResult> results;

  // Fig-8-scale PriceRound: the paper's scalability sweep tops out around
  // 4k tasks per period at full scale.
  {
    const int tasks_n = std::max(32, static_cast<int>(4096 * scale));
    SyntheticConfig cfg;
    cfg.num_tasks = tasks_n;
    cfg.num_workers = tasks_n / 4;
    cfg.num_periods = 1;
    cfg.temporal_sigma = 0.0001;
    cfg.seed = 99;
    Workload w = GenerateSynthetic(cfg).ValueOrDie();
    MapsOptions opts;
    Maps strategy(opts);
    DemandOracle history = w.oracle.Fork(9);
    if (!strategy.Warmup(w.grid, &history).ok()) {
      std::cerr << "MAPS warmup failed; no tracked results\n";
      return false;
    }
    MarketSnapshot snap(&w.grid, 0, w.tasks, w.workers);
    std::vector<double> prices;
    TrackedResult r;
    r.name = "maps_price_round";
    r.problem_size = tasks_n;
    r.ns_per_op = TimeOp(
        [&] {
          if (!strategy.PriceRound(snap, &prices).ok()) std::abort();
        },
        &r.iterations);
    r.peak_bytes = strategy.peak_round_bytes();
    results.push_back(r);

    // Same round with a lent pool: the maximizer precompute shards over it
    // (bit-identical prices). problem_size records the thread count so the
    // JSON pairs the sharded trajectory with the serial one, mirroring the
    // other *_pooled entries.
    {
      ThreadPool pool(ThreadPool::DefaultThreadCount());
      Maps sharded(opts);
      sharded.LendPool(&pool);
      DemandOracle sharded_history = w.oracle.Fork(9);
      if (!sharded.Warmup(w.grid, &sharded_history).ok()) {
        std::cerr << "MAPS sharded warmup failed; no tracked results\n";
        return false;
      }
      TrackedResult sr;
      sr.name = "maps_price_round_sharded";
      sr.problem_size = pool.num_threads();
      sr.ns_per_op = TimeOp(
          [&] {
            if (!sharded.PriceRound(snap, &prices).ok()) std::abort();
          },
          &sr.iterations);
      sr.peak_bytes = sharded.peak_round_bytes();
      results.push_back(sr);
    }

    // Same market, pooled spatial-join graph build.
    GraphBuildWorkspace ws;
    BipartiteGraph g;
    TrackedResult b;
    b.name = "bipartite_graph_build";
    b.problem_size = tasks_n;
    b.ns_per_op = TimeOp(
        [&] {
          BipartiteGraph::BuildInto(snap.tasks(), snap.workers(), snap.grid(),
                                    &ws, &g);
          benchmark::DoNotOptimize(g.num_edges());
        },
        &b.iterations);
    // Peak = finished CSR plus the build workspace (per-cell worker lists
    // and the worker SoA).
    b.peak_bytes = g.FootprintBytes() + ws.FootprintBytes();
    results.push_back(b);
  }

  // Exact oracle on a tiny instance (its cost is exponential; the tracked
  // number guards the one-build-per-invocation and workspace pooling).
  {
    auto grid = GridPartition::Make(Rect{0, 0, 20, 20}, 2, 2).ValueOrDie();
    Rng rng(7);
    std::vector<Task> tasks;
    std::vector<Worker> workers;
    // Clamp to the exact enumerator's 25-task cap (2^n worlds) so up-scale
    // runs (MAPS_BENCH_SCALE > 2) don't trip its hard check.
    const int num_tasks =
        std::min(20, std::max(4, static_cast<int>(12 * scale)));
    for (int i = 0; i < num_tasks; ++i) {
      Task t;
      t.id = i;
      t.origin = {rng.NextDouble(0, 20), rng.NextDouble(0, 20)};
      t.destination = {rng.NextDouble(0, 20), rng.NextDouble(0, 20)};
      t.distance = rng.NextDouble(0.5, 5.0);
      t.grid = grid.CellOf(t.origin);
      tasks.push_back(t);
    }
    for (int i = 0; i < num_tasks / 2; ++i) {
      Worker w;
      w.id = i;
      w.location = {rng.NextDouble(0, 20), rng.NextDouble(0, 20)};
      w.radius = 8.0;
      w.grid = grid.CellOf(w.location);
      workers.push_back(w);
    }
    MarketSnapshot snap(&grid, 0, std::move(tasks), std::move(workers));
    TabulatedDemand proto({1.0, 2.0, 3.0}, {0.9, 0.8, 0.5});
    DemandOracle oracle =
        DemandOracle::Make(ReplicateDemand(proto, grid.num_cells()), 3)
            .ValueOrDie();
    auto ladder = PriceLadder::FromPrices({1.0, 2.0, 3.0}).ValueOrDie();
    TrackedResult r;
    r.name = "oracle_search";
    r.problem_size = num_tasks;
    r.ns_per_op = TimeOp(
        [&] {
          auto best = OracleSearch(snap, oracle, ladder);
          if (!best.ok()) std::abort();
          benchmark::DoNotOptimize(best.ValueOrDie().expected_revenue);
        },
        &r.iterations, 0.5);
    // The oracle's transient peak is dominated by the one graph it builds
    // (replicated here including the build workspace it uses internally).
    GraphBuildWorkspace ows;
    BipartiteGraph og;
    BipartiteGraph::BuildInto(snap.tasks(), snap.workers(), snap.grid(),
                              &ows, &og);
    r.peak_bytes = og.FootprintBytes() + ows.FootprintBytes();
    results.push_back(r);

    // The same sweep across the thread pool (MAPS_THREADS or hardware
    // concurrency). problem_size reports the thread count so the JSON
    // captures the pooled speedup trajectory next to the serial number;
    // results are bit-identical to the serial sweep by construction.
    ThreadPool pool(ThreadPool::DefaultThreadCount());
    TrackedResult mt;
    mt.name = "oracle_search_pooled";
    mt.problem_size = pool.num_threads();
    mt.ns_per_op = TimeOp(
        [&] {
          auto best = OracleSearch(snap, oracle, ladder, &pool);
          if (!best.ok()) std::abort();
          benchmark::DoNotOptimize(best.ValueOrDie().expected_revenue);
        },
        &mt.iterations, 0.5);
    // Graph (shared, built once) plus one sweep scratch per worker — the
    // per-world workspace is three n-element vectors plus the matching
    // state, so the pooled footprint grows with the thread count and must
    // be visible in the trajectory.
    mt.peak_bytes =
        r.peak_bytes + static_cast<size_t>(pool.num_threads()) *
                           num_tasks * (sizeof(double) + sizeof(int) + 1);
    results.push_back(mt);
  }

  // Algorithm-1 warm-up probe schedule, serial vs pooled: one counter
  // stream per (grid, rung), so both variants draw identical probes and the
  // pooled run is bit-identical — the tracked pair records the wall-clock
  // trajectory of the parallelization. problem_size: total probes for the
  // serial entry, thread count for the pooled one (mirrors oracle_search).
  {
    const int grids_per_side =
        std::max(2, static_cast<int>(10 * std::sqrt(scale)));
    auto grid =
        GridPartition::Make(Rect{0, 0, 100, 100}, grids_per_side,
                            grids_per_side)
            .ValueOrDie();
    TruncatedNormalDemand proto(2.0, 1.0, 1.0, 5.0);
    DemandOracle oracle =
        DemandOracle::Make(ReplicateDemand(proto, grid.num_cells()), 17)
            .ValueOrDie();
    PricingConfig cfg;  // defaults: [1, 5], alpha = 0.5, Hoeffding budgets

    BasePricing serial(cfg);
    TrackedResult r;
    r.name = "warmup_probing";
    r.ns_per_op = TimeOp(
        [&] {
          if (!serial.Warmup(grid, &oracle).ok()) std::abort();
        },
        &r.iterations, 0.5);
    r.problem_size = static_cast<int>(
        oracle.num_probes() / std::max(1, r.iterations));
    r.peak_bytes = serial.MemoryFootprintBytes();
    results.push_back(r);

    ThreadPool pool(ThreadPool::DefaultThreadCount());
    BasePricing pooled(cfg);
    pooled.LendPool(&pool);
    TrackedResult mt;
    mt.name = "warmup_probing_pooled";
    mt.problem_size = pool.num_threads();
    mt.ns_per_op = TimeOp(
        [&] {
          if (!pooled.Warmup(grid, &oracle).ok()) std::abort();
        },
        &mt.iterations, 0.5);
    mt.peak_bytes = pooled.MemoryFootprintBytes();
    results.push_back(mt);
  }

  // Counter-streamed Monte-Carlo world enumeration, serial vs pooled: world
  // w draws from stream (seed, w) regardless of sharding, so the two
  // estimates are bit-identical and the pair measures pure speedup.
  {
    const int n = 20;
    const BipartiteGraph g = MakeRandomGraph(n, n / 2 + 1, 0.5, 5);
    std::vector<PricedTask> tasks(n);
    Rng rng(6);
    for (auto& t : tasks) {
      t.distance = rng.NextDouble(0.5, 3.0);
      t.price = rng.NextDouble(1.0, 5.0);
      t.accept_prob = rng.NextDouble(0.2, 0.9);
    }
    const int samples = std::max(256, static_cast<int>(65536 * scale));
    std::vector<PossibleWorldsWorkspace> ws;

    TrackedResult r;
    r.name = "mc_expected_revenue";
    r.problem_size = samples;
    r.ns_per_op = TimeOp(
        [&] {
          benchmark::DoNotOptimize(MonteCarloExpectedRevenue(
              g, tasks, /*seed=*/11, samples, /*pool=*/nullptr, &ws));
        },
        &r.iterations, 0.5);
    for (const auto& w : ws) r.peak_bytes += w.FootprintBytes();
    results.push_back(r);

    ThreadPool pool(ThreadPool::DefaultThreadCount());
    std::vector<PossibleWorldsWorkspace> pws;
    TrackedResult mt;
    mt.name = "mc_expected_revenue_pooled";
    mt.problem_size = pool.num_threads();
    mt.ns_per_op = TimeOp(
        [&] {
          benchmark::DoNotOptimize(MonteCarloExpectedRevenue(
              g, tasks, /*seed=*/11, samples, &pool, &pws));
        },
        &mt.iterations, 0.5);
    for (const auto& w : pws) mt.peak_bytes += w.FootprintBytes();
    results.push_back(mt);
  }

  // End-to-end period throughput of a serial RunSimulation. A fixed
  // repetition count with a freshly warmed strategy per rep (warm-up
  // outside the timed region) keeps every timed run identical work — a
  // time-budgeted loop on one strategy would accumulate UCB state at a
  // machine-dependent rate and drift the gated metric. problem_size:
  // periods per run.
  {
    SyntheticConfig cfg;
    cfg.num_tasks = std::max(400, static_cast<int>(20000 * scale));
    cfg.num_workers = std::max(100, static_cast<int>(5000 * scale));
    cfg.num_periods = std::max(10, static_cast<int>(100 * scale));
    cfg.seed = 99;
    Workload w = GenerateSynthetic(cfg).ValueOrDie();
    constexpr int kSimReps = 3;

    // Returns mean ns per simulation run, or a negative value on failure.
    const auto time_sim = [&](const SimOptions& options, size_t* bytes) {
      double total_sec = 0.0;
      for (int rep = 0; rep < kSimReps; ++rep) {
        MapsOptions mopts;
        Maps strategy(mopts);
        DemandOracle history = w.oracle.Fork(9);
        if (!strategy.Warmup(w.grid, &history).ok()) return -1.0;
        const auto start = std::chrono::steady_clock::now();
        auto result = RunSimulation(w, &strategy, options);
        total_sec += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
        if (!result.ok()) return -1.0;
        benchmark::DoNotOptimize(result.ValueOrDie().total_revenue);
        *bytes = result.ValueOrDie().memory_bytes;
      }
      return total_sec * 1e9 / kSimReps;
    };

    SimOptions serial_opts;
    serial_opts.skip_warmup = true;
    TrackedResult r;
    r.name = "simulator_periods";
    r.problem_size = cfg.num_periods;
    r.iterations = kSimReps;
    r.ns_per_op = time_sim(serial_opts, &r.peak_bytes);

    if (r.ns_per_op < 0.0) {
      std::cerr << "MAPS simulation failed; no tracked results\n";
      return false;
    }
    results.push_back(r);
  }

  // Online-engine period throughput: the same market class fed through the
  // MarketEngine event API (AddWorker/SubmitTask/ClosePeriod) instead of
  // RunSimulation — the serving path a live deployment pays for. ns_per_op
  // is per CLOSED PERIOD. Each replay gets a fresh warmed-up strategy
  // outside the timed region (same rationale as simulator_periods).
  {
    SyntheticConfig cfg;
    cfg.num_tasks = std::max(400, static_cast<int>(20000 * scale));
    cfg.num_workers = std::max(100, static_cast<int>(5000 * scale));
    cfg.num_periods = std::max(10, static_cast<int>(100 * scale));
    cfg.seed = 99;
    Workload w = GenerateSynthetic(cfg).ValueOrDie();
    // One replay is ~1 ms at smoke scales, too short to time against the
    // 5% overhead budget, so a rep there replays the workload 8 times; at
    // full scale one replay is seconds and is a rep on its own.
    const int kPairs = scale <= 0.1 ? 15 : 3;
    const int kReplaysPerRep = scale <= 0.1 ? 8 : 1;

    std::vector<std::pair<size_t, size_t>> range(w.num_periods);
    {
      size_t i = 0;
      for (int32_t t = 0; t < w.num_periods; ++t) {
        const size_t begin = i;
        while (i < w.tasks.size() && w.tasks[i].period == t) ++i;
        range[t] = {begin, i};
      }
    }

    // Every replay starts from the same warmed-up strategy: one warm-up,
    // saved once and loaded into a fresh strategy before each replay.
    StateWriter warm_state;
    {
      Maps strategy{MapsOptions{}};
      DemandOracle history = w.oracle.Fork(9);
      if (!strategy.Warmup(w.grid, &history).ok() ||
          !strategy.SaveState(&warm_state).ok()) {
        std::cerr << "engine warm-up failed; no tracked results\n";
        return false;
      }
    }

    // One full replay; returns seconds for the timed region, or negative on
    // failure. `metrics` non-null attaches a live registry + trace so the
    // metrics-on variant measures the fully-instrumented close.
    const auto run_once = [&](obs::MetricsRegistry* metrics,
                              obs::TraceLog* trace, size_t* bytes) -> double {
      Maps strategy{MapsOptions{}};
      StateReader warm(warm_state.data());
      if (!strategy.LoadState(&warm).ok()) return -1.0;
      EngineOptions engine_options;
      engine_options.lifecycle = w.lifecycle;
      engine_options.metrics = metrics;
      engine_options.trace = trace;
      const auto start = std::chrono::steady_clock::now();
      MarketEngine engine(&w.grid, &strategy, engine_options);
      size_t next_entry = 0;
      PeriodOutcome outcome;
      const auto submit = [&](int32_t t) {
        for (size_t i = range[t].first; i < range[t].second; ++i) {
          if (!engine.SubmitTask(w.tasks[i], w.valuations[i]).ok()) {
            std::abort();
          }
        }
      };
      submit(0);
      for (int32_t t = 0; t < w.num_periods; ++t) {
        while (next_entry < w.workers.size() &&
               w.workers[next_entry].period == t) {
          if (!engine.AddWorker(w.workers[next_entry]).ok()) std::abort();
          ++next_entry;
        }
        if (!engine.ClosePeriod(&outcome).ok()) return -1.0;
        if (t + 1 < w.num_periods) submit(t + 1);
      }
      const double sec = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
      *bytes = engine.peak_platform_bytes() + engine.peak_strategy_bytes();
      return sec;
    };
    const auto run_rep = [&](obs::MetricsRegistry* metrics,
                             obs::TraceLog* trace, size_t* bytes) -> double {
      double total = 0.0;
      for (int k = 0; k < kReplaysPerRep; ++k) {
        const double sec = run_once(metrics, trace, bytes);
        if (sec < 0.0) return -1.0;
        total += sec;
      }
      return total;
    };

    // engine_period and engine_period_metrics_on are measured as
    // INTERLEAVED pairs of reps, each pair run in alternating order, so
    // both sides sample the same machine conditions. Each key's ns_per_op
    // is its best rep: min (not mean), so one noisy rep cannot distort it.
    // The compare_bench.py overhead gate reads `paired_ratio` instead, the
    // median of the per-pair ratios: two separate minima can each land on
    // a lucky rep and drift a few percent apart on noise alone.
    obs::MetricsRegistry registry;
    obs::TraceLog trace;
    TrackedResult r;
    r.name = "engine_period";
    r.problem_size = cfg.num_periods;
    r.iterations = kPairs * kReplaysPerRep;
    TrackedResult ot;
    ot.name = "engine_period_metrics_on";
    ot.problem_size = cfg.num_periods;
    ot.iterations = kPairs * kReplaysPerRep;
    {
      double best_plain = std::numeric_limits<double>::infinity();
      double best_on = std::numeric_limits<double>::infinity();
      std::vector<double> ratios;
      bool failed = false;
      for (int pair = 0; pair < kPairs && !failed; ++pair) {
        double plain_sec = 0.0;
        double on_sec = 0.0;
        if (pair % 2 == 0) {
          plain_sec = run_rep(nullptr, nullptr, &r.peak_bytes);
          on_sec = run_rep(&registry, &trace, &ot.peak_bytes);
        } else {
          on_sec = run_rep(&registry, &trace, &ot.peak_bytes);
          plain_sec = run_rep(nullptr, nullptr, &r.peak_bytes);
        }
        failed = plain_sec <= 0.0 || on_sec <= 0.0;
        best_plain = std::min(best_plain, plain_sec);
        best_on = std::min(best_on, on_sec);
        ratios.push_back(on_sec / plain_sec);
      }
      const double periods =
          static_cast<double>(w.num_periods) * kReplaysPerRep;
      r.ns_per_op = failed ? -1.0 : best_plain * 1e9 / periods;
      ot.ns_per_op = failed ? -1.0 : best_on * 1e9 / periods;
      std::sort(ratios.begin(), ratios.end());
      ot.paired_with = r.name;
      ot.paired_ratio = ratios[ratios.size() / 2];
    }

    if (r.ns_per_op < 0.0 || ot.ns_per_op < 0.0) {
      std::cerr << "engine replay failed; no tracked results\n";
      return false;
    }
    results.push_back(r);
    results.push_back(ot);
  }

  // Telemetry hot-path unit cost: ns per Histogram::Record (bit-width bucket
  // index + three relaxed atomics). This is what every instrumented span
  // pays per sample when a registry is attached; tracked so a regression in
  // the recording path itself is visible independent of the engine keys.
  {
    obs::Histogram hist;
    TrackedResult r;
    r.name = "obs_histogram_record";
    constexpr int kBatch = 4096;
    r.problem_size = kBatch;
    r.ns_per_op = TimeOp(
                      [&]() {
                        int64_t v = 1;
                        for (int i = 0; i < kBatch; ++i) {
                          hist.Record(v);
                          v = (v * 2862933555777941757LL + 3037000493LL) &
                              0x7fffffffffff;
                        }
                        return hist.count();
                      },
                      &r.iterations) /
                  kBatch;
    r.peak_bytes = sizeof(obs::Histogram);
    results.push_back(r);
  }

  // Sharded close throughput: the BM_ShardedEnginePeriod burst market
  // (even band load, BaseP constant price so the matching core stays
  // loaded every period) served by a K-region ShardedMarketEngine, K in
  // {1, 2, 4}. k1 measures the router's overhead over the monolith (same
  // serial close, one region); k2/k4 close regions concurrently over a
  // pool. The split win is mostly ALGORITHMIC — max-weight matching is
  // superlinear, so K bands of n/K beat one market of n even on one core —
  // which is why these keys are gated while the purely pool-bound keys are
  // not. The k4/k1 ratio is the number the acceptance bar reads.
  {
    const int tasks_n = std::max(256, static_cast<int>(4096 * scale));
    SyntheticConfig cfg;
    cfg.num_tasks = tasks_n;
    cfg.num_workers = tasks_n / 2;
    cfg.num_periods = 1;
    cfg.temporal_sigma = 0.0001;
    cfg.spatial_sigma = 35.0;
    cfg.sharded_regions = 4;  // same workload for every K
    cfg.seed = 99;
    Workload w = GenerateSynthetic(cfg).ValueOrDie();
    ThreadPool pool(ThreadPool::DefaultThreadCount());
    for (const int num_regions : {1, 2, 4}) {
      const RegionPartition partition =
          RegionPartition::Make(w.grid, num_regions).ValueOrDie();
      PricingConfig pricing_config;
      std::vector<std::unique_ptr<BasePricing>> owned;
      std::vector<PricingStrategy*> strategies;
      for (int k = 0; k < num_regions; ++k) {
        auto strategy = std::make_unique<BasePricing>(pricing_config);
        DemandOracle history = w.oracle.Fork(9);
        if (!strategy->Warmup(w.grid, &history).ok()) {
          std::cerr << "BaseP warmup failed; no tracked results\n";
          return false;
        }
        strategies.push_back(strategy.get());
        owned.push_back(std::move(strategy));
      }
      EngineOptions engine_options;
      engine_options.lifecycle.single_use = false;
      engine_options.lifecycle.speed = 1e12;
      if (num_regions > 1) engine_options.pool = &pool;
      ShardedMarketEngine engine(&w.grid, &partition, strategies,
                                 engine_options);
      for (const Worker& worker : w.workers) {
        if (!engine.AddWorker(worker).ok()) std::abort();
      }
      PeriodOutcome outcome;
      TrackedResult r;
      r.name = "sharded_engine_period_k" + std::to_string(num_regions);
      r.problem_size = tasks_n;
      r.ns_per_op = TimeOp(
          [&] {
            for (size_t i = 0; i < w.tasks.size(); ++i) {
              if (!engine.SubmitTask(w.tasks[i], w.valuations[i]).ok()) {
                std::abort();
              }
            }
            if (!engine.ClosePeriod(&outcome).ok()) std::abort();
          },
          &r.iterations);
      r.peak_bytes = engine.peak_platform_bytes() + engine.peak_strategy_bytes();
      results.push_back(r);
    }

    // The same K=2 burst market with failure domains on, under `fault_plan`
    // (none when null), recorded as tracked row `name`.
    const auto run_k2_fd = [&](const char* name,
                               const char* fault_plan) -> bool {
      const RegionPartition partition =
          RegionPartition::Make(w.grid, 2).ValueOrDie();
      PricingConfig pricing_config;
      std::vector<std::unique_ptr<BasePricing>> owned;
      std::vector<PricingStrategy*> strategies;
      for (int k = 0; k < 2; ++k) {
        auto strategy = std::make_unique<BasePricing>(pricing_config);
        DemandOracle history = w.oracle.Fork(9);
        if (!strategy->Warmup(w.grid, &history).ok()) {
          std::cerr << "BaseP warmup failed; no tracked results\n";
          return false;
        }
        strategies.push_back(strategy.get());
        owned.push_back(std::move(strategy));
      }
      EngineOptions engine_options;
      engine_options.lifecycle.single_use = false;
      engine_options.lifecycle.speed = 1e12;
      engine_options.pool = &pool;
      engine_options.failure_domains.enabled = true;
      // Never permanently fail: the bench wants the quarantine/recovery
      // steady state, not a dead region.
      engine_options.failure_domains.max_recovery_attempts = 1 << 20;
      ShardedMarketEngine engine(&w.grid, &partition, strategies,
                                 engine_options);
      for (const Worker& worker : w.workers) {
        if (!engine.AddWorker(worker).ok()) std::abort();
      }
      std::optional<ScopedFaultPlan> plan;
      if (fault_plan != nullptr) plan.emplace(fault_plan);
      PeriodOutcome outcome;
      TrackedResult r;
      r.name = name;
      r.problem_size = tasks_n;
      r.ns_per_op = TimeOp(
          [&] {
            for (size_t i = 0; i < w.tasks.size(); ++i) {
              if (!engine.SubmitTask(w.tasks[i], w.valuations[i]).ok()) {
                std::abort();
              }
            }
            if (!engine.ClosePeriod(&outcome).ok()) std::abort();
          },
          &r.iterations);
      r.peak_bytes = engine.peak_platform_bytes() + engine.peak_strategy_bytes();
      results.push_back(r);
      return true;
    };

    // Healthy failure-domain serving: no faults, so ns_per_op over the
    // sharded_engine_period_k2 row is the cost of the per-close
    // restore-point save of every region (DESIGN.md §15).
    if (!run_k2_fd("sharded_engine_period_fd", nullptr)) return false;

    // Degraded serving: a seeded coin-flip close failure on region 1 (~half
    // the closes quarantine it, the other half recover and drain the
    // deferral queue). ns_per_op averages the quarantine close (rewind +
    // deferral sweep + cached-quote serving) and the recovery close
    // (resubmission) — the price of staying up through a region fault,
    // gated against the healthy sharded_engine_period_k2 trajectory.
    if (!run_k2_fd("sharded_engine_period_degraded",
                   "seed=42;close_fail@r1~0.5")) {
      return false;
    }
  }

  // Checkpoint save/restore on a mid-run engine: serialize the full
  // resumable state (worker lifecycle table, staged tasks, RNG position,
  // MAPS learned state) and rebuild a second engine from the bytes.
  // ns_per_op is one full save (resp. restore); peak_bytes reports the
  // checkpoint blob size, the other axis worth guarding.
  {
    SyntheticConfig cfg;
    cfg.num_tasks = std::max(400, static_cast<int>(20000 * scale));
    cfg.num_workers = std::max(100, static_cast<int>(5000 * scale));
    cfg.num_periods = 20;
    cfg.seed = 99;
    Workload w = GenerateSynthetic(cfg).ValueOrDie();
    MapsOptions mopts;
    Maps strategy(mopts);
    DemandOracle history = w.oracle.Fork(9);
    if (!strategy.Warmup(w.grid, &history).ok()) {
      std::cerr << "MAPS warmup failed; no tracked results\n";
      return false;
    }
    EngineOptions engine_options;
    engine_options.lifecycle = w.lifecycle;
    // Feeds the workload's events to `engine`, closing every period; with
    // `leave_last_open` the last period's tasks and workers arrive, every
    // fourth task gets an explicit acceptance bit, and the period stays
    // open.
    const auto drive = [&w](auto* engine, bool leave_last_open) {
      size_t task_i = 0;
      size_t worker_j = 0;
      PeriodOutcome outcome;
      for (int32_t t = 0; t < w.num_periods; ++t) {
        const bool last = t + 1 == w.num_periods;
        while (task_i < w.tasks.size() && w.tasks[task_i].period == t) {
          const Task& task = w.tasks[task_i];
          if (!engine->SubmitTask(task, w.valuations[task_i]).ok()) {
            std::abort();
          }
          if (last && leave_last_open && task_i % 4 == 0 &&
              !engine->ObserveAcceptance(task.id, true).ok()) {
            std::abort();
          }
          ++task_i;
        }
        while (worker_j < w.workers.size() &&
               w.workers[worker_j].period == t) {
          if (!engine->AddWorker(w.workers[worker_j]).ok()) std::abort();
          ++worker_j;
        }
        if (last && leave_last_open) break;
        if (!engine->ClosePeriod(&outcome).ok()) std::abort();
      }
    };
    MarketEngine engine(&w.grid, &strategy, engine_options);
    drive(&engine, /*leave_last_open=*/false);

    std::string blob;
    TrackedResult save;
    save.name = "checkpoint_save";
    save.problem_size = cfg.num_workers;
    save.ns_per_op = TimeOp(
        [&] {
          blob.clear();
          if (!engine.SaveCheckpoint(&blob).ok()) std::abort();
        },
        &save.iterations);
    save.peak_bytes = blob.size();
    results.push_back(save);

    Maps fresh(mopts);  // never warmed: the restore supplies its state
    MarketEngine target(&w.grid, &fresh, engine_options);
    TrackedResult restore;
    restore.name = "checkpoint_restore";
    restore.problem_size = cfg.num_workers;
    restore.ns_per_op = TimeOp(
        [&] {
          if (!target.RestoreFromCheckpoint(blob).ok()) std::abort();
        },
        &restore.iterations);
    restore.peak_bytes = blob.size();
    results.push_back(restore);

    // The same workload on a K=2 sharded deployment, saved mid-period so
    // the routing section's task routes and acceptance bits are populated
    // next to the worker owner table and the two embedded region blobs.
    const RegionPartition partition =
        RegionPartition::Make(w.grid, 2).ValueOrDie();
    std::vector<std::unique_ptr<Maps>> owned;
    std::vector<PricingStrategy*> warmed;
    std::vector<PricingStrategy*> unwarmed;
    for (int k = 0; k < partition.num_regions(); ++k) {
      owned.push_back(std::make_unique<Maps>(mopts));
      DemandOracle region_history = w.oracle.Fork(9);
      if (!owned.back()->Warmup(w.grid, &region_history).ok()) std::abort();
      warmed.push_back(owned.back().get());
      owned.push_back(std::make_unique<Maps>(mopts));
      unwarmed.push_back(owned.back().get());
    }
    ShardedMarketEngine sharded(&w.grid, &partition, warmed, engine_options);
    drive(&sharded, /*leave_last_open=*/true);

    TrackedResult sharded_save;
    sharded_save.name = "sharded_checkpoint_save";
    sharded_save.problem_size = cfg.num_workers;
    sharded_save.ns_per_op = TimeOp(
        [&] {
          blob.clear();
          if (!sharded.SaveCheckpoint(&blob).ok()) std::abort();
        },
        &sharded_save.iterations);
    sharded_save.peak_bytes = blob.size();
    results.push_back(sharded_save);

    ShardedMarketEngine sharded_target(&w.grid, &partition, unwarmed,
                                       engine_options);
    TrackedResult sharded_restore;
    sharded_restore.name = "sharded_checkpoint_restore";
    sharded_restore.problem_size = cfg.num_workers;
    sharded_restore.ns_per_op = TimeOp(
        [&] {
          if (!sharded_target.RestoreFromCheckpoint(blob).ok()) std::abort();
        },
        &sharded_restore.iterations);
    sharded_restore.peak_bytes = blob.size();
    results.push_back(sharded_restore);
  }

  // Replay ingestion unit cost: ns per event parsed from the in-memory
  // churn_storm log (getline + scan + field decode). The e2e ledger row
  // replay_log.ns_per_event measures the same layer inside a full replay.
  {
    const std::string log = ChurnStormLog();
    TrackedResult r;
    r.name = "replay_parse_event";
    int64_t events = 0;
    const double ns_per_pass = TimeOp(
        [&] { events = DrainReplayLog(log, &r.peak_bytes); }, &r.iterations);
    r.problem_size = static_cast<int>(events);
    r.ns_per_op = ns_per_pass / static_cast<double>(events);
    results.push_back(r);
  }

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    return false;
  }
  out << "{\n  \"schema\": \"maps-bench-micro-v1\",\n  \"scale\": " << scale
      << ",\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const TrackedResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"ns_per_op\": " << r.ns_per_op
        << ", \"peak_bytes\": " << r.peak_bytes
        << ", \"iterations\": " << r.iterations
        << ", \"problem_size\": " << r.problem_size;
    if (!r.paired_with.empty()) {
      out << ", \"paired_with\": \"" << r.paired_with
          << "\", \"paired_ratio\": " << r.paired_ratio;
    }
    out << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return true;
}

}  // namespace
}  // namespace maps

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const char* json_path = std::getenv("MAPS_BENCH_JSON");
  const std::string path =
      json_path != nullptr ? json_path : "BENCH_micro.json";
  if (!maps::EmitTrackedJson(path)) return 1;
  std::cout << "wrote " << path << "\n";
  return 0;
}
