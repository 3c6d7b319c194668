#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <utility>

namespace maps {
namespace e2e {

namespace {

ScenarioSpec Spec(const std::string& name, ScenarioSpec::Family family,
                  int grid, int periods, int tasks, int workers,
                  int initial_workers) {
  ScenarioSpec s;
  s.name = name;
  s.family = family;
  s.grid_rows = grid;
  s.grid_cols = grid;
  s.num_periods = periods;
  s.tasks_per_period = tasks;
  s.workers_per_period = workers;
  s.initial_workers = initial_workers;
  return s;
}

std::vector<BenchWorkload> MakeWorkloads() {
  std::vector<BenchWorkload> out;
  {
    // Large per-cell markets: the close is pricing and matching. At 1200
    // tasks per period the largest period's matching graph straddles a
    // buffer doubling, so peak RSS jumped by ~4 MiB on some seeds only;
    // 1000 keeps every seed below it.
    BenchWorkload w;
    w.name = "peak_k1";
    w.spec = Spec(w.name, ScenarioSpec::Family::kBaseline, 8, 120, 1000, 100,
                  400);
    w.spec.worker_duration = 20;
    out.push_back(std::move(w));
  }
  {
    // Many tiny periods with all five event kinds: the run is ingestion.
    BenchWorkload w;
    w.name = "churn_ingest";
    w.spec = Spec(w.name, ScenarioSpec::Family::kChurnStorm, 4, 5000, 40, 30,
                  12);
    w.spec.churn_storm_duration = 2;
    w.decorate = true;
    out.push_back(std::move(w));
  }
  {
    // Seam-heavy placement across 4 regions: router, merge, stitch and
    // repatriation, which no K=1 workload reaches.
    BenchWorkload w;
    w.name = "seam_k4";
    w.spec = Spec(w.name, ScenarioSpec::Family::kBoundaryHeavy, 8, 150, 1500,
                  120, 400);
    w.spec.num_regions = 4;
    w.spec.boundary_frac = 0.85;
    w.regions = 4;
    out.push_back(std::move(w));
  }
  {
    // Failure domains plus scheduled saves: the only checkpoint traffic.
    BenchWorkload w;
    w.name = "durable_k2";
    w.spec = Spec(w.name, ScenarioSpec::Family::kBaseline, 6, 200, 300, 60,
                  300);
    w.spec.worker_duration = 30;
    w.regions = 2;
    w.checkpoint_every = 5;
    w.failure_domains = true;
    w.fault_plan = "seed=7;close_fail@r1~0.05";
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace

const std::vector<BenchWorkload>& Workloads() {
  static const std::vector<BenchWorkload>* workloads =
      new std::vector<BenchWorkload>(MakeWorkloads());
  return *workloads;
}

const BenchWorkload* FindWorkload(const std::string& name) {
  for (const BenchWorkload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

BenchWorkload SmokeScale(BenchWorkload workload) {
  workload.spec.num_periods = std::max(10, workload.spec.num_periods / 20);
  return workload;
}

Status WriteWorkloadLog(const BenchWorkload& workload, uint64_t seed,
                        std::ostream& out) {
  if (!workload.decorate) return WriteScenarioLog(workload.spec, seed, out);

  std::ostringstream clean_out;
  MAPS_RETURN_NOT_OK(WriteScenarioLog(workload.spec, seed, clean_out));
  const std::string clean = std::move(clean_out).str();
  // The fuzzer writes one fixed field order (sim/replay_export.cc), so the
  // ids and valuations are read by position: parsing every line with
  // ParseReplayEventLine would triple the generation time, which setup_s
  // counts.
  constexpr std::string_view kWorker = "{\"event\":\"add_worker\",\"id\":";
  constexpr std::string_view kTask = "{\"event\":\"submit_task\",\"id\":";
  constexpr std::string_view kClose = "{\"event\":\"close_period\"}";
  constexpr std::string_view kValuation = ",\"valuation\":";
  std::vector<int64_t> joined;  // every 4th worker of the open period
  int closes = 0;
  size_t pos = 0;
  while (pos < clean.size()) {
    size_t end = clean.find('\n', pos);
    if (end == std::string::npos) end = clean.size();
    const std::string_view line(clean.data() + pos, end - pos);
    pos = end + 1;
    out << line << "\n";
    // Every number is followed by ',' or '}', which ends the conversion.
    if (line.starts_with(kWorker)) {
      const int64_t id = std::strtoll(&line[kWorker.size()], nullptr, 10);
      if (id % 4 == 0) joined.push_back(id);
    } else if (line.starts_with(kTask)) {
      const int64_t id = std::strtoll(&line[kTask.size()], nullptr, 10);
      const size_t v = line.find(kValuation);
      if (v == std::string_view::npos) {
        return Status::Internal("task without valuation: " +
                                std::string(line));
      }
      if (id % 4 == 0) {
        const double valuation =
            std::strtod(&line[v + kValuation.size()], nullptr);
        out << "{\"event\":\"observe_acceptance\",\"task\":" << id
            << ",\"accepted\":" << (valuation >= 3.0 ? "true" : "false")
            << "}\n";
      }
    } else if (line == kClose) {
      // The removals open the next period; the last close has none.
      if (++closes < workload.spec.num_periods) {
        for (int64_t id : joined) {
          out << "{\"event\":\"remove_worker\",\"id\":" << id << "}\n";
        }
      }
      joined.clear();
    }
  }
  if (!out) return Status::Internal("event log write failed");
  return Status::OK();
}

}  // namespace e2e
}  // namespace maps
