// experiment_runner: one data-driven binary for every figure sweep.
//
// Replaces the 13 per-figure bench binaries (bench/fig6_*.cc, fig7_*.cc,
// fig8_*.cc, fig10_exponential.cc): pick experiments from the registry
// (src/sim/experiments.h), execute the strategy x workload matrix across a
// fixed thread pool, and emit one machine-readable JSON with per-cell
// revenue, timing, memory, and the thread count — plus the same stdout
// table and optional per-experiment CSV the old binaries produced.
//
// Cells (one strategy on one workload) are independent: every strategy
// instance is fresh and warms up on its own oracle fork, so cell results
// are bit-identical no matter how many threads execute the matrix.
//
// Usage:
//   experiment_runner --list
//   experiment_runner --experiments=fig6_workers --scale=0.02 --threads=4
//   experiment_runner --experiments=all --out=experiments.json
//
// Flags:
//   --experiments  comma-separated registry names, or "all" (default all)
//   --scale        population scale (default: MAPS_BENCH_SCALE env, else 1)
//   --threads      pool size (default: MAPS_THREADS env, else hardware)
//   --mc_worlds    Monte-Carlo worlds per period for the expected-revenue
//                  diagnostic column (counter-streamed, thread-count
//                  independent; 0 = off, the default)
//   --out          JSON output path (default experiments.json)
//   --csv_dir      also write <experiment>.csv per experiment ("" disables;
//                  default: MAPS_BENCH_CSV_DIR env, else disabled)

#include <charconv>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiments.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace maps {
namespace {

struct Cell {
  int point = 0;     // x-axis index within the experiment
  int strategy = 0;  // index into the strategy factory list
  Status status = Status::OK();
  SimulationResult result;
};

struct ExperimentRun {
  std::string name;
  std::string x_name;
  std::vector<std::string> x_labels;
  std::vector<Cell> cells;  // point-major, strategy-minor order
  double wall_secs = 0.0;
};

/// Runs one experiment's strategy x workload matrix on the pool. Workloads
/// are generated up front (serially, deterministic per point) and shared
/// read-only across cells; each cell forks the oracle for its warm-up.
Result<ExperimentRun> RunExperiment(
    const ExperimentSpec& spec,
    const std::vector<StrategyFactory>& strategies, ThreadPool* pool,
    ThreadPool* cell_pool, int mc_worlds) {
  ExperimentRun run;
  run.name = spec.name;
  run.x_name = spec.x_name;

  std::vector<Workload> workloads;
  workloads.reserve(spec.points.size());
  for (const ExperimentPoint& point : spec.points) {
    auto workload = point.generate();
    MAPS_RETURN_NOT_OK(workload.status());
    workloads.push_back(std::move(workload).ValueOrDie());
    run.x_labels.push_back(point.label);
  }

  const int num_points = static_cast<int>(spec.points.size());
  const int num_strategies = static_cast<int>(strategies.size());
  run.cells.resize(static_cast<size_t>(num_points) * num_strategies);
  for (int p = 0; p < num_points; ++p) {
    for (int s = 0; s < num_strategies; ++s) {
      Cell& cell = run.cells[p * num_strategies + s];
      cell.point = p;
      cell.strategy = s;
    }
  }

  const auto start = std::chrono::steady_clock::now();
  // One shard per cell: a cell is the natural work unit (a whole simulation
  // run), and its result does not depend on which worker executes it.
  const auto shards =
      SplitRange(static_cast<int64_t>(run.cells.size()),
                 static_cast<int64_t>(run.cells.size()));
  ParallelFor(pool, shards,
              [&](int /*shard*/, const IndexRange& range, int /*worker*/) {
                for (int64_t i = range.begin; i < range.end; ++i) {
                  Cell& cell = run.cells[i];
                  auto strategy = strategies[cell.strategy].make();
                  SimOptions options;
                  // One warm-up stream per strategy: strategies draw
                  // independent probe randomness.
                  options.warmup_stream = 101 + cell.strategy;
                  // Counter-streamed, so the diagnostic is identical no
                  // matter how the matrix is threaded. The cell must NOT
                  // lend the matrix pool to its own simulation (nested
                  // waits on a fixed pool can deadlock): within-cell work
                  // runs on the separate cell pool, whose workers never
                  // wait on the matrix pool. All cell-side parallelism is
                  // bit-identical to the serial path by the DESIGN.md
                  // §8 policy.
                  options.engine.mc_worlds = mc_worlds;
                  options.engine.pool = cell_pool;
                  auto result = RunSimulation(workloads[cell.point],
                                              strategy.get(), options);
                  cell.status = result.status();
                  if (result.ok()) {
                    cell.result = std::move(result).ValueOrDie();
                  }
                }
              });
  run.wall_secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();

  for (const Cell& cell : run.cells) {
    if (!cell.status.ok()) return cell.status;
  }
  return run;
}

Table RunToTable(const ExperimentRun& run,
                 const std::vector<StrategyFactory>& strategies) {
  Table table({run.x_name, "strategy", "revenue", "mc_revenue", "time_secs",
               "memory_mb", "accepted", "matched"});
  for (const Cell& cell : run.cells) {
    const SimulationResult& r = cell.result;
    table.AddRow(run.x_labels[cell.point], strategies[cell.strategy].name,
                 r.total_revenue, r.mc_expected_revenue, r.total_time_sec,
                 static_cast<double>(r.memory_bytes) / (1024.0 * 1024.0),
                 r.num_accepted, r.num_matched);
  }
  return table;
}

/// A double in its shortest spelling that reads back bit-identically
/// (std::to_chars with no precision), so the JSON carries the exact values
/// the runner computed and two runs can be compared for equality.
struct Exact {
  double v;
};

std::ostream& operator<<(std::ostream& out, Exact n) {
  char buf[32];  // the longest spelling, "-2.2250738585072014e-308", is 24
  const auto r = std::to_chars(buf, buf + sizeof(buf), n.v);
  return out.write(buf, r.ptr - buf);
}

Status WriteJson(const std::string& path,
                 const std::vector<ExperimentRun>& runs,
                 const std::vector<StrategyFactory>& strategies, int threads,
                 double scale, int mc_worlds) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out << "{\n  \"schema\": \"maps-experiment-runner-v4\",\n"
      << "  \"threads\": " << threads << ",\n  \"scale\": " << scale
      << ",\n  \"mc_worlds\": " << mc_worlds
      << ",\n  \"experiments\": [\n";
  for (size_t e = 0; e < runs.size(); ++e) {
    const ExperimentRun& run = runs[e];
    out << "    {\"name\": \"" << run.name << "\", \"x_name\": \""
        << run.x_name << "\", \"wall_secs\": " << Exact{run.wall_secs}
        << ", \"cells\": [\n";
    for (size_t c = 0; c < run.cells.size(); ++c) {
      const Cell& cell = run.cells[c];
      const SimulationResult& r = cell.result;
      out << "      {\"x\": \"" << run.x_labels[cell.point]
          << "\", \"strategy\": \"" << strategies[cell.strategy].name
          << "\", \"revenue\": " << Exact{r.total_revenue}
          << ", \"mc_expected_revenue\": " << Exact{r.mc_expected_revenue}
          << ", \"time_secs\": " << Exact{r.total_time_sec}
          << ", \"memory_bytes\": " << r.memory_bytes
          << ", \"accepted\": " << r.num_accepted
          << ", \"matched\": " << r.num_matched << "}"
          << (c + 1 < run.cells.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (e + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return Status::OK();
}

int Main(int argc, char** argv) {
  auto flags_or = FlagSet::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::cerr << flags_or.status() << "\n";
    return 2;
  }
  FlagSet flags = std::move(flags_or).ValueOrDie();

  ExperimentRegistryOptions registry;
  if (flags.Has("scale")) {
    registry.scale = flags.GetDouble("scale", 1.0);
    registry.scale_explicit = true;
  } else if (const char* env = std::getenv("MAPS_BENCH_SCALE")) {
    registry.scale = std::atof(env) > 0.0 ? std::atof(env) : 1.0;
    registry.scale_explicit = true;
  }

  if (flags.GetBool("list", false)) {
    for (const ExperimentSpec& spec : BuildExperiments(registry)) {
      std::cout << spec.name << " (x = " << spec.x_name << ", "
                << spec.points.size() << " points)\n";
    }
    return 0;
  }

  const int threads = static_cast<int>(
      flags.GetInt("threads", ThreadPool::DefaultThreadCount()));
  const int mc_worlds = static_cast<int>(flags.GetInt("mc_worlds", 0));
  if (mc_worlds < 0) {
    std::cerr << "--mc_worlds must be >= 0\n";
    return 2;
  }
  const std::string out_path = flags.GetString("out", "experiments.json");
  const char* csv_env = std::getenv("MAPS_BENCH_CSV_DIR");
  const std::string csv_dir =
      flags.GetString("csv_dir", csv_env == nullptr ? "" : csv_env);
  const std::string selection = flags.GetString("experiments", "all");
  if (Status st = flags.RejectUnread(); !st.ok()) {
    std::cerr << st << "\n";
    return 2;
  }

  std::vector<ExperimentSpec> specs;
  if (selection == "all") {
    specs = BuildExperiments(registry);
  } else {
    std::stringstream ss(selection);
    std::string name;
    while (std::getline(ss, name, ',')) {
      if (name.empty()) continue;
      auto spec = FindExperiment(registry, name);
      if (!spec.ok()) {
        std::cerr << spec.status() << "\n";
        return 2;
      }
      specs.push_back(std::move(spec).ValueOrDie());
    }
  }
  if (specs.empty()) {
    std::cerr << "no experiments selected\n";
    return 2;
  }

  ThreadPool pool(threads);
  // Cell-side pool for the strategy's sharded work and the MC diagnostic:
  // its workers only ever run cell-submitted jobs and never wait on the
  // matrix pool, so the two pools cannot deadlock each other (see
  // RunExperiment).
  ThreadPool cell_pool(threads);
  const auto strategies = DefaultStrategies(ExperimentPricing());
  std::vector<ExperimentRun> runs;
  for (const ExperimentSpec& spec : specs) {
    std::cout << "[experiment_runner] running " << spec.name << " ("
              << spec.points.size() << " points x " << strategies.size()
              << " strategies, " << threads << " threads)\n";
    auto run =
        RunExperiment(spec, strategies, &pool, &cell_pool, mc_worlds);
    if (!run.ok()) {
      std::cerr << spec.name << ": " << run.status() << "\n";
      return 1;
    }
    runs.push_back(std::move(run).ValueOrDie());
    const ExperimentRun& done = runs.back();
    Table table = RunToTable(done, strategies);
    std::cout << "== " << done.name << " ==\n" << table.ToText() << "\n";
    if (!csv_dir.empty()) {
      Status st = table.WriteCsv(csv_dir + "/" + done.name + ".csv");
      if (!st.ok()) {
        std::cerr << done.name << ": " << st << "\n";
        return 1;
      }
    }
  }

  Status st = WriteJson(out_path, runs, strategies, threads, registry.scale,
                        mc_worlds);
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace maps

int main(int argc, char** argv) { return maps::Main(argc, argv); }
