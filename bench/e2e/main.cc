// maps_e2e_bench: the end-to-end replay benchmark (README.md in this
// directory). Build and run it through run.sh:
//
//   bench/e2e/run.sh [--seed=N] [--smoke]      every workload, full report
//   bench/e2e/run.sh --workload W --seed N [--seconds S] [--trace 0|1]
//
// A single-workload run generates the workload's event log in a child
// process, replays it through freshly warmed deployments (at least R timed
// reps, then one traced rep unless --trace is 0), replays it once more in
// a second child through ReplayEventsThroughEngine (the parity rep, which
// also measures peak RSS), checks the outputs, prints a report, and ends
// its stdout with one JSON object:
//
//   {"correct":true,"attempted":N,"failed":0,"metrics":{"name":
//    {"value":V,"unit":"U"},...}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones,
// and no --trace both. Any failed check exits 1.

#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "replay_rep.h"
#include "util/flags.h"
#include "workloads.h"

extern char** environ;

namespace maps {
namespace e2e {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kTimedReps = 5;
constexpr int kSmokeTimedReps = 2;
constexpr int kMaxTimedReps = 50;
/// Log builds per run; setup_s takes their median.
constexpr int kGenerations = 3;
/// Share of the traced wall the ledger's spans must cover.
constexpr double kMinCoverage = 0.9;

struct EndToEndDef {
  const char* name;
  const char* unit;
  const char* better;
  double bound;
};

/// Mirrors BENCHMARK.json's "end_to_end" list.
constexpr EndToEndDef kEndToEnd[] = {
    {"events_per_s", "events/s", "higher", 0.20},
    {"close_p50_ms", "ms", "lower", 0.20},
    {"close_p90_ms", "ms", "lower", 0.20},
    {"revenue_per_task", "price-dist/task", "higher", 0.025},
    {"peak_rss_mb", "MiB", "lower", 0.20},
    {"setup_s", "s", "lower", 0.25},
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunOptions {
  std::string workload;  // empty: every workload
  uint64_t seed = 1;
  double seconds = 0.0;
  int trace = -1;  // -1: report both metric sets
  bool smoke = false;
  std::string commit = "unknown";
};

int Fail(const std::string& message) {
  std::cerr << "maps_e2e_bench: " << message << "\n";
  return 1;
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: the ceil(p * n)-th smallest value.
int64_t Percentile(std::vector<int64_t> v, double p) {
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

int64_t Sum(const std::vector<int64_t>& v) {
  return std::accumulate(v.begin(), v.end(), int64_t{0});
}

/// VmHWM of this process, in MiB; 0 when /proc is unreadable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string SelfPath() { return fs::read_symlink("/proc/self/exe").string(); }

/// Runs this binary with `args` and waits for it; returns its exit code,
/// or -1 when it could not be started or did not exit normally.
int RunSelf(const std::vector<std::string>& args) {
  std::string exe = SelfPath();
  std::vector<std::string> owned = args;
  std::vector<char*> argv{exe.data()};
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::cout.flush();
  pid_t pid = 0;
  if (posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv.data(),
                  environ) != 0) {
    return -1;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Deletes a run's temporary file on every exit path.
struct RemoveOnExit {
  fs::path path;
  ~RemoveOnExit() {
    std::error_code ec;
    fs::remove(path, ec);
  }
};

Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) return Status::Internal(path + ": write failed");
  return Status::OK();
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string EnvStamp(const RunOptions& opt, int reps) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "nproc=%ld compiler=\"%s\" build=%s commit=%s seed=%" PRIu64
                " R=%d smoke=%d",
                sysconf(_SC_NPROCESSORS_ONLN), kCompiler,
                MAPS_E2E_BUILD_TYPE, opt.commit.c_str(), opt.seed, reps,
                opt.smoke ? 1 : 0);
  return buf;
}

// --- Child processes --------------------------------------------------------
// Each child is this binary in another mode. It reads the log at --log and
// writes its findings to --log plus a suffix, which the parent reads back.

constexpr const char* kGenSuffix = ".gen_s";
constexpr const char* kParitySuffix = ".parity";

/// --generate: builds the log kGenerations times in memory, timing each
/// build, and writes the last build to --log and the times to
/// --log.gen_s. The file write is not timed. It is the benchmark's
/// plumbing, not work the system does.
int Generate(const BenchWorkload& w, uint64_t seed, const std::string& log) {
  std::string text;
  std::string times;
  for (int i = 0; i < kGenerations; ++i) {
    std::ostringstream buf;
    const Clock::time_point start = Clock::now();
    if (Status st = WriteWorkloadLog(w, seed, buf); !st.ok()) {
      return Fail(w.name + ": " + st.ToString());
    }
    times += Num(Seconds(start, Clock::now())) + "\n";
    text = std::move(buf).str();
  }
  for (const Status& st :
       {WriteFile(log, text), WriteFile(log + kGenSuffix, times)}) {
    if (!st.ok()) return Fail(st.ToString());
  }
  return 0;
}

/// What the parity child reports.
struct ParityResult {
  uint64_t digest = 0;
  int64_t events = 0;
  int64_t calls = 0;
  int64_t failed = 0;
  double peak_rss_mb = 0.0;
  std::string restore = "ok";  // checkpoint round trip, or why it failed
};

/// --parity: one replay through ReplayEventsThroughEngine in a fresh
/// process, so its VmHWM is that of a single `maps_cli replay`. On
/// checkpointing workloads it then checks that the last blob restores and
/// saves back byte-identically.
int Parity(const BenchWorkload& w, const std::string& log) {
  // glibc raises its mmap threshold each time a large block is freed, so
  // where later large blocks land, and hence VmHWM, depends on the order
  // of earlier allocations: peak_rss_mb spread 12% across seeds on
  // durable_k2. Pinned at the default 128 KiB, large blocks are always
  // mapped and unmapped, VmHWM follows live memory, and that spread falls
  // to ~1%. Only this process pins it; the timed reps keep the default.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  auto deployment = Deployment::Make(w, nullptr);
  if (!deployment.ok()) return Fail(deployment.status().ToString());
  auto rep =
      RunRep(w, log, RepKind::kParity, deployment.ValueOrDie().get(), nullptr);
  if (!rep.ok()) return Fail(rep.status().ToString());
  const RepResult& r = rep.ValueOrDie();
  ParityResult p{r.digest, r.events, r.calls, r.failed, PeakRssMb()};
  if (w.checkpoint_every > 0) {
    const Status st =
        r.last_blob.empty()
            ? Status::Internal("no scheduled checkpoint was saved")
            : CheckRestoreRoundTrip(w, r.last_blob);
    if (!st.ok()) p.restore = st.ToString();
  }
  char head[160];
  std::snprintf(head, sizeof(head),
                "%016" PRIx64 " %" PRId64 " %" PRId64 " %" PRId64 " %s\n",
                p.digest, p.events, p.calls, p.failed,
                Num(p.peak_rss_mb).c_str());
  if (Status st = WriteFile(log + kParitySuffix, head + p.restore + "\n");
      !st.ok()) {
    return Fail(st.ToString());
  }
  return 0;
}

/// Runs the child in `mode` for this run's log.
Status RunChild(const std::string& mode, const BenchWorkload& w,
                const RunOptions& opt, const std::string& log) {
  std::vector<std::string> args = {mode, "--workload=" + w.name,
                                   "--seed=" + std::to_string(opt.seed),
                                   "--log=" + log};
  if (opt.smoke) args.push_back("--smoke");
  if (RunSelf(args) != 0) {
    return Status::Internal(w.name + ": " + mode + " child failed");
  }
  return Status::OK();
}

// --- One workload -----------------------------------------------------------

/// Everything one single-workload run measured.
struct Measurement {
  std::vector<double> gen_s;  // from the --generate child
  int64_t log_bytes = 0;
  std::vector<RepResult> timed;
  std::vector<double> setup_rep_s;  // construction + warm-up, per timed rep
  double measured_s = 0.0;
  std::optional<RepResult> traced;
  double traced_warmup_s = 0.0;
  ParityResult parity;
};

std::vector<Metric> EndToEndMetrics(const Measurement& m) {
  const size_t periods = m.timed[0].segment_ns.size();
  std::vector<int64_t> best_segment(periods,
                                    std::numeric_limits<int64_t>::max());
  std::vector<int64_t> best_close = best_segment;
  for (const RepResult& r : m.timed) {
    for (size_t t = 0; t < periods; ++t) {
      best_segment[t] = std::min(best_segment[t], r.segment_ns[t]);
      best_close[t] = std::min(best_close[t], r.close_ns[t]);
    }
  }
  const double values[] = {
      static_cast<double>(m.timed[0].events) /
          (static_cast<double>(Sum(best_segment)) / 1e9),
      static_cast<double>(Percentile(best_close, 0.5)) / 1e6,
      static_cast<double>(Percentile(best_close, 0.9)) / 1e6,
      m.timed[0].revenue / static_cast<double>(m.timed[0].tasks),
      m.parity.peak_rss_mb,
      Median(m.gen_s) + Median(m.setup_rep_s),
  };
  std::vector<Metric> out;
  for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
    out.push_back({kEndToEnd[i].name, kEndToEnd[i].unit, values[i]});
  }
  return out;
}

/// Per-layer metrics of the traced rep: bench-side spans plus the sums of
/// the histograms and counters the engines export into `registry`.
std::vector<Metric> PerLayerMetrics(const BenchWorkload& w,
                                    const Measurement& m,
                                    obs::MetricsRegistry* registry) {
  const RepResult& tr = *m.traced;
  const TraceSpans& sp = tr.spans;
  const auto s = [](int64_t ns) { return static_cast<double>(ns) / 1e9; };
  const auto hist_s = [&](const char* name) {
    return s(registry->GetHistogram(name)->sum());
  };
  const auto hist_n = [&](const char* name) {
    return static_cast<double>(registry->GetHistogram(name)->count());
  };
  const auto counter = [&](const char* name) {
    return static_cast<double>(registry->GetCounter(name)->value());
  };
  const auto ratio = [](int64_t num, int64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  // Bench spans around event and close calls belong to whichever engine
  // type the workload deploys; the other type's rows read 0.
  const bool k1 = w.regions == 1;
  const auto only = [](bool keep, double v) { return keep ? v : 0.0; };

  const double wall = s(Sum(tr.segment_ns));
  const double attributed =
      s(sp.next_ns + sp.apply_ns + sp.close_ns + sp.save_ns);
  int64_t best_untraced = std::numeric_limits<int64_t>::max();
  for (const RepResult& r : m.timed) {
    best_untraced = std::min(best_untraced, Sum(r.segment_ns));
  }
  const double events = counter("ingest.events");
  const double close_stages =
      hist_s("engine.close.prebuild_ns") +
      hist_s("engine.close.price_round_ns") +
      hist_s("engine.close.matching_ns") + hist_s("engine.close.mc_diag_ns");

  return {
      {"replay_log.busy_s", "s", s(sp.next_ns)},
      {"replay_log.events", "count", events},
      {"replay_log.bytes", "bytes", counter("ingest.bytes")},
      {"replay_log.ns_per_event", "ns", events > 0 ? sp.next_ns / events : 0},
      {"market_engine.apply_busy_s", "s", only(k1, s(sp.apply_ns))},
      {"market_engine.apply_calls", "count",
       only(k1, static_cast<double>(sp.apply_calls))},
      {"market_engine.close_busy_s", "s", only(k1, s(sp.close_ns))},
      {"market_engine.prebuild_s", "s", hist_s("engine.close.prebuild_ns")},
      {"market_engine.close_other_s", "s",
       only(k1, s(sp.close_ns) - close_stages)},
      {"market_engine.closes", "count", counter("engine.close.periods")},
      {"market_engine.dead_periods", "count",
       counter("engine.close.dead_periods")},
      {"pricing.price_round_s", "s", hist_s("engine.close.price_round_ns")},
      {"pricing.warmup_s", "s", m.traced_warmup_s},
      {"graph.matching_s", "s", hist_s("engine.close.matching_ns")},
      {"sharded_engine.apply_busy_s", "s", only(!k1, s(sp.apply_ns))},
      {"sharded_engine.close_busy_s", "s", only(!k1, s(sp.close_ns))},
      {"sharded_engine.region_close_s", "s", hist_s("sharded.region_close_ns")},
      {"sharded_engine.merge_s", "s", hist_s("sharded.merge_ns")},
      {"sharded_engine.stitch_s", "s", hist_s("sharded.stitch_ns")},
      {"sharded_engine.repatriate_s", "s", hist_s("sharded.repatriate_ns")},
      {"sharded_engine.stitch_matches", "count",
       counter("sharded.stitch_matches")},
      {"sharded_engine.repatriations", "count",
       counter("sharded.repatriations")},
      {"sharded_engine.fd_rewinds", "count", counter("sharded.fd.rewinds")},
      {"sharded_engine.fd_journal_replayed", "count",
       counter("sharded.fd.journal_events_replayed")},
      {"sharded_engine.deferred_tasks", "count",
       counter("engine.reject.deferred_tasks")},
      {"checkpoint.save_s", "s", s(sp.save_ns)},
      {"checkpoint.saves", "count", static_cast<double>(tr.saves)},
      {"checkpoint.skipped", "count", static_cast<double>(tr.skipped)},
      {"checkpoint.bytes", "bytes", static_cast<double>(tr.save_bytes)},
      {"checkpoint.engine_save_s", "s", hist_s("checkpoint.save_ns")},
      {"checkpoint.engine_saves", "count", hist_n("checkpoint.save_ns")},
      {"checkpoint.restore_s", "s", hist_s("checkpoint.restore_ns")},
      {"checkpoint.restores", "count", hist_n("checkpoint.restore_ns")},
      {"market.tasks", "count", static_cast<double>(tr.tasks)},
      {"market.accepted", "count", static_cast<double>(tr.accepted)},
      {"market.matched", "count", static_cast<double>(tr.matched)},
      {"market.revenue", "price-distance", tr.revenue},
      {"market.accept_ratio", "ratio", ratio(tr.accepted, tr.tasks)},
      {"market.match_ratio", "ratio", ratio(tr.matched, tr.accepted)},
      {"scenario_fuzzer.gen_s", "s", Median(m.gen_s)},
      {"scenario_fuzzer.log_bytes", "bytes",
       static_cast<double>(m.log_bytes)},
      {"ledger.wall_s", "s", wall},
      {"ledger.unattributed_s", "s", wall - attributed},
      {"ledger.coverage_frac", "ratio", attributed / wall},
      {"ledger.trace_overhead_frac", "ratio", wall / s(best_untraced) - 1.0},
  };
}

double Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& x : metrics) {
    if (x.name == name) return x.value;
  }
  return 0.0;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& x = metrics[i];
    std::printf("  %-36s %16.6g %-15s", x.name.c_str(), x.value,
                x.unit.c_str());
    if (i < std::size(kEndToEnd) && x.name == kEndToEnd[i].name) {
      std::printf(" %s is better, bound %g%%", kEndToEnd[i].better,
                  kEndToEnd[i].bound * 100.0);
    }
    std::printf("\n");
  }
}

void PrintLedger(const std::vector<Metric>& layer) {
  const double wall = Find(layer, "ledger.wall_s");
  const auto share = [&](double v) { return 100.0 * v / wall; };
  const auto both = [&](const char* row) {
    return Find(layer, std::string("market_engine.") + row) +
           Find(layer, std::string("sharded_engine.") + row);
  };
  std::printf(
      "ledger  traced wall %.4f s = replay_log %.1f%% + apply %.1f%% + "
      "close %.1f%% + checkpoint %.1f%% + unattributed %.4f s (%.1f%%); "
      "coverage %.3f, trace overhead %+.1f%%\n",
      wall, share(Find(layer, "replay_log.busy_s")),
      share(both("apply_busy_s")), share(both("close_busy_s")),
      share(Find(layer, "checkpoint.save_s")),
      Find(layer, "ledger.unattributed_s"),
      share(Find(layer, "ledger.unattributed_s")),
      Find(layer, "ledger.coverage_frac"),
      100.0 * Find(layer, "ledger.trace_overhead_frac"));
  std::printf(
      "        inside close: price_round %.1f%%, matching %.1f%%, prebuild "
      "%.1f%%, region closes %.1f%%, merge+stitch+repatriate %.1f%%, "
      "engine saves %.1f%%\n",
      share(Find(layer, "pricing.price_round_s")),
      share(Find(layer, "graph.matching_s")),
      share(Find(layer, "market_engine.prebuild_s")),
      share(Find(layer, "sharded_engine.region_close_s")),
      share(Find(layer, "sharded_engine.merge_s") +
            Find(layer, "sharded_engine.stitch_s") +
            Find(layer, "sharded_engine.repatriate_s")),
      share(Find(layer, "checkpoint.engine_save_s")));
}

int RunWorkload(const BenchWorkload& w, const RunOptions& opt) {
  const int min_reps = opt.smoke ? kSmokeTimedReps : kTimedReps;

  const fs::path log_dir = fs::path(SelfPath()).parent_path() / "logs";
  std::error_code ec;
  fs::create_directories(log_dir, ec);
  if (ec) return Fail("cannot create " + log_dir.string());
  const RemoveOnExit log{log_dir / (w.name + "-seed" +
                                    std::to_string(opt.seed) + "-" +
                                    std::to_string(getpid()) + ".jsonl")};
  const std::string log_path = log.path.string();
  const RemoveOnExit gen_file{log_path + kGenSuffix};
  const RemoveOnExit parity_file{log_path + kParitySuffix};

  // The generator runs in its own process so that no replay process holds
  // its buffers.
  Measurement m;
  if (Status st = RunChild("--generate", w, opt, log_path); !st.ok()) {
    return Fail(st.ToString());
  }
  {
    std::ifstream in(gen_file.path);
    for (double s = 0.0; in >> s;) m.gen_s.push_back(s);
  }
  m.log_bytes = static_cast<int64_t>(fs::file_size(log.path, ec));
  if (m.gen_s.size() != kGenerations || ec) {
    return Fail(w.name + ": the generator left no log or no build times");
  }

  const auto run_rep = [&](RepKind kind, obs::MetricsRegistry* registry,
                           double* setup_s) -> Result<RepResult> {
    MAPS_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d,
                          Deployment::Make(w, registry));
    if (setup_s != nullptr) *setup_s = d->construct_s() + d->warmup_s();
    if (kind == RepKind::kTraced) m.traced_warmup_s = d->warmup_s();
    return RunRep(w, log_path, kind, d.get(), registry);
  };

  const Clock::time_point measure_start = Clock::now();
  while (static_cast<int>(m.timed.size()) < min_reps ||
         (Seconds(measure_start, Clock::now()) < opt.seconds &&
          m.timed.size() < kMaxTimedReps)) {
    double setup_s = 0.0;
    auto rep = run_rep(RepKind::kTimed, nullptr, &setup_s);
    if (!rep.ok()) return Fail(w.name + ": " + rep.status().ToString());
    m.timed.push_back(std::move(rep).ValueOrDie());
    m.timed.back().last_blob = std::string();  // only the parity rep's is used
    m.setup_rep_s.push_back(setup_s);
  }
  m.measured_s = Seconds(measure_start, Clock::now());

  obs::MetricsRegistry registry;
  if (opt.trace != 0) {
    auto rep = run_rep(RepKind::kTraced, &registry, nullptr);
    if (!rep.ok()) return Fail(w.name + ": " + rep.status().ToString());
    m.traced = std::move(rep).ValueOrDie();
  }

  if (Status st = RunChild("--parity", w, opt, log_path); !st.ok()) {
    return Fail(st.ToString());
  }
  {
    std::ifstream in(parity_file.path);
    ParityResult& p = m.parity;
    in >> std::hex >> p.digest >> std::dec >> p.events >> p.calls >>
        p.failed >> p.peak_rss_mb;
    std::getline(in >> std::ws, p.restore);
    if (!in) return Fail(w.name + ": the parity child left no result");
  }

  // --- Checks ----------------------------------------------------------------
  std::vector<const RepResult*> reps;
  for (const RepResult& r : m.timed) reps.push_back(&r);
  if (m.traced) reps.push_back(&*m.traced);
  std::vector<std::string> problems;
  int64_t attempted = m.parity.calls;
  int64_t failed = m.parity.failed;
  bool digests_agree =
      m.parity.digest == reps[0]->digest && m.parity.events == reps[0]->events;
  for (const RepResult* r : reps) {
    attempted += r->calls;
    failed += r->failed;
    digests_agree = digests_agree && r->digest == reps[0]->digest &&
                    r->events == reps[0]->events &&
                    r->segment_ns.size() == reps[0]->segment_ns.size();
  }
  if (!digests_agree) problems.push_back("outcome digests differ between reps");
  if (failed > 0) {
    problems.push_back(std::to_string(failed) + " engine call(s) failed");
  }
  if (m.traced && !m.traced->invariants.ok()) {
    problems.push_back(m.traced->invariants.ToString());
  }
  if (m.parity.restore != "ok") {
    problems.push_back("checkpoint round trip: " + m.parity.restore);
  }

  // --- Metrics and report ----------------------------------------------------
  const std::vector<Metric> e2e = EndToEndMetrics(m);
  std::vector<Metric> layer;
  if (m.traced) {
    layer = PerLayerMetrics(w, m, &registry);
    const double coverage = Find(layer, "ledger.coverage_frac");
    if (coverage < kMinCoverage) {
      char buf[80];
      std::snprintf(buf, sizeof(buf), "ledger coverage %.3f is below %.2f",
                    coverage, kMinCoverage);
      problems.push_back(buf);
    }
  }

  std::printf("== maps e2e: %s ==\n", w.name.c_str());
  std::printf("env     %s\n",
              EnvStamp(opt, static_cast<int>(m.timed.size())).c_str());
  std::printf("run     %zu periods, %" PRId64 " events, %" PRId64
              " log bytes; %zu timed reps in %.2f s\n",
              m.timed[0].segment_ns.size(), m.timed[0].events, m.log_bytes,
              m.timed.size(), m.measured_s);
  std::printf("end-to-end (per-period best of %zu untraced reps; peak RSS "
              "of the parity process)\n",
              m.timed.size());
  PrintMetrics(e2e);
  if (m.traced) {
    std::printf("per-layer (one traced rep)\n");
    PrintMetrics(layer);
    PrintLedger(layer);
  }
  std::printf("checks  digest %016" PRIx64 " over %zu reps + parity; %" PRId64
              " of %" PRId64 " engine calls failed; invariants %s; "
              "checkpoint round trip %s\n",
              reps[0]->digest, reps.size(), failed, attempted,
              !m.traced                   ? "not run (--trace 0)"
              : m.traced->invariants.ok() ? "ok"
                                          : "VIOLATED",
              w.checkpoint_every == 0 ? "not applicable"
                                      : m.parity.restore.c_str());
  for (const std::string& p : problems) std::printf("FAILED  %s\n", p.c_str());

  std::vector<Metric> reported;
  if (opt.trace != 1) reported.insert(reported.end(), e2e.begin(), e2e.end());
  if (opt.trace != 0) {
    reported.insert(reported.end(), layer.begin(), layer.end());
  }
  std::string json = "{\"correct\":";
  json += problems.empty() ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ",";
    json += "\"" + reported[i].name + "\":{\"value\":" +
            Num(reported[i].value) + ",\"unit\":\"" + reported[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return problems.empty() ? 0 : 1;
}

/// Every workload, each in a fresh process exactly like a single-workload
/// run, so no workload inherits another's heap.
int RunAll(const RunOptions& opt) {
  std::printf("maps e2e benchmark, every workload\nenv     %s\n",
              EnvStamp(opt, opt.smoke ? kSmokeTimedReps : kTimedReps).c_str());
  const Clock::time_point start = Clock::now();
  std::vector<std::string> failures;
  for (const BenchWorkload& w : Workloads()) {
    std::vector<std::string> args = {
        "--workload=" + w.name, "--seed=" + std::to_string(opt.seed),
        "--seconds=" + Num(opt.seconds), "--commit=" + opt.commit};
    if (opt.trace >= 0) args.push_back("--trace=" + std::to_string(opt.trace));
    if (opt.smoke) args.push_back("--smoke");
    const Clock::time_point w_start = Clock::now();
    if (RunSelf(args) != 0) failures.push_back(w.name);
    std::printf("(%s took %.1f s)\n\n", w.name.c_str(),
                Seconds(w_start, Clock::now()));
  }
  std::printf("e2e: %zu workloads, %zu failed", Workloads().size(),
              failures.size());
  for (const std::string& f : failures) std::printf(" %s", f.c_str());
  std::printf(", %.1f s total\n", Seconds(start, Clock::now()));
  return failures.empty() ? 0 : 1;
}

/// FlagSet reads --key=value; this also accepts the --key value form.
std::vector<std::string> JoinSpacedFlags(int argc, char** argv) {
  std::vector<std::string> out{argv[0]};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 && arg.find('=') == std::string::npos &&
        i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      arg += '=';
      arg += argv[++i];
    }
    out.push_back(arg);
  }
  return out;
}

int Main(int argc, char** argv) {
  const std::vector<std::string> args = JoinSpacedFlags(argc, argv);
  std::vector<const char*> arg_ptrs;
  for (const std::string& a : args) arg_ptrs.push_back(a.c_str());
  auto flags_or =
      FlagSet::Parse(static_cast<int>(arg_ptrs.size()), arg_ptrs.data());
  if (!flags_or.ok()) return Fail(flags_or.status().ToString());
  const FlagSet& flags = flags_or.ValueOrDie();

  RunOptions opt;
  opt.workload = flags.GetString("workload", "");
  const int64_t seed = flags.GetInt("seed", 1);
  opt.seconds = flags.GetDouble("seconds", 0.0);
  const std::string trace = flags.GetString("trace", "");
  opt.smoke = flags.GetBool("smoke", false);
  opt.commit = flags.GetString("commit", "unknown");
  const bool generate = flags.GetBool("generate", false);
  const bool parity = flags.GetBool("parity", false);
  const std::string log = flags.GetString("log", "");
  if (Status st = flags.RejectUnread(); !st.ok()) return Fail(st.ToString());
  if (!flags.positional().empty()) {
    return Fail("unexpected argument " + flags.positional()[0]);
  }
  if (seed < 0) return Fail("--seed must be >= 0");
  opt.seed = static_cast<uint64_t>(seed);
  if (!(opt.seconds >= 0.0) || opt.seconds > 600.0) {
    return Fail("--seconds must be in [0, 600]");
  }
  if (trace == "0" || trace == "1") {
    opt.trace = trace[0] - '0';
  } else if (!trace.empty()) {
    return Fail("--trace must be 0 or 1");
  }
  if (opt.workload.empty()) return RunAll(opt);

  const BenchWorkload* base = FindWorkload(opt.workload);
  if (base == nullptr) return Fail("unknown --workload=" + opt.workload);
  const BenchWorkload w = opt.smoke ? SmokeScale(*base) : *base;
  if (generate || parity) {
    if (log.empty()) return Fail("--generate and --parity need --log");
    return generate ? Generate(w, opt.seed, log) : Parity(w, log);
  }
  return RunWorkload(w, opt);
}

}  // namespace
}  // namespace e2e
}  // namespace maps

int main(int argc, char** argv) { return maps::e2e::Main(argc, argv); }
