// Streaming replay: the ReplayEventStream reader, the shared engine driver
// behind `maps_cli replay`, and the O(1)-ingestion-memory contract a
// multi-million-event log relies on.

#include "service/replay_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "geo/region_partition.h"
#include "service/replay_log.h"
#include "replay_test_util.h"
#include "sharded_test_util.h"
#include "sim/replay_export.h"
#include "sim/simulator.h"
#include "sim/synthetic.h"

namespace maps {
namespace {

using testing_util::ReadReplayEvents;

using testing_util::CellLocalStrategy;

GridPartition MakeGrid() {
  return GridPartition::Make(Rect{0, 0, 100, 100}, 4, 4).ValueOrDie();
}

// ---------------------------------------------------------------------------
// ReplayEventStream.

TEST(ReplayEventStreamTest, YieldsExactlyWhatLoadMaterializes) {
  const std::string corpus =
      "# corpus\n"
      R"({"event":"add_worker","id":1,"x":10,"y":10,"radius":5})"
      "\n\n"
      R"({"event":"submit_task","id":5,"ox":10,"oy":10,"dx":13,"dy":14,"valuation":2.5})"
      "\n"
      R"({"event":"observe_acceptance","task":5,"accepted":false})"
      "\n"
      R"({"event":"remove_worker","id":1})"
      "\n"
      R"({"event":"close_period"})"
      "\n";

  std::istringstream stream_in(corpus);
  ReplayEventStream stream(stream_in);
  std::vector<ReplayEvent> streamed;
  ReplayEvent ev;
  while (stream.Next(&ev).ValueOrDie()) streamed.push_back(ev);

  using Kind = ReplayEvent::Kind;
  ASSERT_EQ(streamed.size(), 5u);
  EXPECT_EQ(streamed[0].kind, Kind::kAddWorker);
  EXPECT_EQ(streamed[0].worker.id, 1);
  EXPECT_EQ(streamed[1].kind, Kind::kSubmitTask);
  EXPECT_EQ(streamed[1].task.id, 5);
  EXPECT_TRUE(streamed[1].has_valuation);
  EXPECT_EQ(streamed[2].kind, Kind::kObserveAcceptance);
  EXPECT_EQ(streamed[2].id, 5);
  EXPECT_FALSE(streamed[2].accepted);
  EXPECT_EQ(streamed[3].kind, Kind::kRemoveWorker);
  EXPECT_EQ(streamed[3].id, 1);
  EXPECT_EQ(streamed[4].kind, Kind::kClosePeriod);
  EXPECT_EQ(stream.stats().events_loaded, 5);
  EXPECT_EQ(stream.stats().lines_skipped, 0);
  // A drained stream keeps returning EOF, not an error.
  EXPECT_FALSE(stream.Next(&ev).ValueOrDie());
}

TEST(ReplayEventStreamTest, StrictModeFailsWithTheLineNumber) {
  std::istringstream in(
      "# one\n"
      R"({"event":"close_period"})"
      "\n"
      "{broken\n");
  ReplayEventStream stream(in);
  ReplayEvent ev;
  ASSERT_TRUE(stream.Next(&ev).ValueOrDie());
  const auto err = stream.Next(&ev);
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.status().message().find("line 3"), std::string::npos)
      << err.status().ToString();
  EXPECT_EQ(stream.line_number(), 3);
}

TEST(ReplayEventStreamTest, SkipBadEventsCountsAndContinues) {
  std::istringstream in(
      R"({"event":"close_period"})"
      "\n"
      "{broken\n"
      R"({"event":"warp_drive"})"
      "\n"
      R"({"event":"close_period"})"
      "\n");
  ReplayLoadOptions options;
  options.skip_bad_events = true;
  ReplayEventStream stream(in, options);
  ReplayEvent ev;
  int events = 0;
  while (stream.Next(&ev).ValueOrDie()) ++events;
  EXPECT_EQ(events, 2);
  EXPECT_EQ(stream.stats().events_loaded, 2);
  EXPECT_EQ(stream.stats().lines_skipped, 2);
}

TEST(ReplayEventStreamTest, IngestionFootprintIsIndependentOfLogLength) {
  // Two logs, 100x apart in length. Streaming either holds one line buffer;
  // materializing the long one holds every event. This is the bounded-memory
  // contract `maps_cli replay` relies on for 10^6+-task logs.
  auto make_log = [](int periods) {
    std::string log;
    for (int t = 0; t < periods; ++t) {
      log += R"({"event":"submit_task","id":)" + std::to_string(t) +
             R"(,"ox":10.25,"oy":20.5,"dx":30.75,"dy":40.125,"valuation":2.5})" +
             "\n";
      log += "{\"event\":\"close_period\"}\n";
    }
    return log;
  };
  const std::string small_log = make_log(500);     // 1,000 events
  const std::string large_log = make_log(50000);   // 100,000 events

  auto drain = [](const std::string& log) {
    std::istringstream in(log);
    ReplayEventStream stream(in);
    ReplayEvent ev;
    int64_t n = 0;
    size_t peak = 0;
    while (stream.Next(&ev).ValueOrDie()) {
      ++n;
      peak = std::max(peak, stream.FootprintBytes());
    }
    return std::pair<int64_t, size_t>{n, peak};
  };
  const auto [small_n, small_peak] = drain(small_log);
  const auto [large_n, large_peak] = drain(large_log);
  ASSERT_EQ(small_n, 1000);
  ASSERT_EQ(large_n, 100000);

  // The reader's peak footprint is one line buffer — a few hundred bytes —
  // and does not grow with the log.
  EXPECT_LE(large_peak, size_t{4096});
  EXPECT_LE(large_peak, 2 * small_peak + 64);

  // Materializing the same log costs at least one ReplayEvent per event:
  // orders of magnitude above the streaming ceiling.
  std::istringstream load_in(large_log);
  const std::vector<ReplayEvent> loaded =
      ReadReplayEvents(load_in).ValueOrDie();
  const size_t materialized = loaded.capacity() * sizeof(ReplayEvent);
  EXPECT_GT(materialized, 1000 * large_peak);
}

// ---------------------------------------------------------------------------
// ReplayEventsThroughEngine.

TEST(ReplayDriverTest, StampsGridPeriodAndDerivesDistance) {
  const GridPartition grid = MakeGrid();
  CellLocalStrategy strategy;
  MarketEngine engine(&grid, &strategy, EngineOptions{});

  // distance is omitted: the driver must derive the Euclidean 3-4-5.
  std::istringstream in(
      R"({"event":"add_worker","id":1,"x":10,"y":10,"radius":30})"
      "\n"
      R"({"event":"submit_task","id":5,"ox":10,"oy":10,"dx":13,"dy":14,"valuation":100})"
      "\n"
      R"({"event":"close_period"})"
      "\n");
  ReplayEventStream stream(in);
  ReplayStreamOptions options;
  std::vector<PeriodOutcome> outcomes;
  options.on_close = [&](const PeriodOutcome& out) {
    outcomes.push_back(out);
    return Status::OK();
  };
  const auto summary =
      ReplayEventsThroughEngine(&stream, grid, &engine, options)
          .ValueOrDie();

  EXPECT_EQ(summary.events_applied, 3);
  EXPECT_EQ(summary.periods_closed, 1);
  EXPECT_EQ(summary.total_accepted, 1);
  EXPECT_EQ(summary.total_matched, 1);
  EXPECT_EQ(summary.total_revenue, 5.0 * 2.0);  // derived distance * quote
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_EQ(outcomes[0].matches.size(), 1u);
  EXPECT_EQ(outcomes[0].matches[0].task, 5);
  EXPECT_EQ(outcomes[0].matches[0].worker, 1);
}

TEST(ReplayDriverTest, EngineErrorsCarryTheLogLineNumber) {
  const GridPartition grid = MakeGrid();
  CellLocalStrategy strategy;
  MarketEngine engine(&grid, &strategy, EngineOptions{});

  std::istringstream in(
      R"({"event":"submit_task","id":5,"ox":10,"oy":10,"dx":11,"dy":10,"valuation":2})"
      "\n"
      R"({"event":"submit_task","id":5,"ox":20,"oy":20,"dx":21,"dy":20,"valuation":2})"
      "\n");
  ReplayEventStream stream(in);
  const auto result = ReplayEventsThroughEngine(&stream, grid, &engine, {});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos)
      << result.status().ToString();
}

TEST(ReplayDriverTest, SkipClosesResumesARestoredEngine) {
  const GridPartition grid = MakeGrid();
  const std::string log = [] {
    std::string s = R"({"event":"add_worker","id":1,"x":20,"y":20,"radius":40})"
                    "\n"
                    R"({"event":"add_worker","id":2,"x":60,"y":60,"radius":40})"
                    "\n";
    for (int t = 0; t < 4; ++t) {
      s += R"({"event":"submit_task","id":)" + std::to_string(10 + t) +
           R"(,"ox":30,"oy":30,"dx":50,"dy":30,"valuation":)" +
           std::to_string(1.0 + t) + "}\n";
      s += "{\"event\":\"close_period\"}\n";
    }
    return s;
  }();

  // The uninterrupted run: checkpoint right after the second close.
  CellLocalStrategy strategy_a;
  MarketEngine engine_a(&grid, &strategy_a, EngineOptions{});
  std::string checkpoint;
  std::vector<PeriodOutcome> reference;
  {
    std::istringstream in(log);
    ReplayEventStream stream(in);
    ReplayStreamOptions options;
    options.on_close = [&](const PeriodOutcome& out) {
      reference.push_back(out);
      if (out.period == 1) return engine_a.SaveCheckpoint(&checkpoint);
      return Status::OK();
    };
    ASSERT_TRUE(
        ReplayEventsThroughEngine(&stream, grid, &engine_a, options).ok());
  }
  ASSERT_EQ(reference.size(), 4u);
  ASSERT_FALSE(checkpoint.empty());

  // The crashed process: restore, then resume the SAME log with the first
  // two closes (and everything before them) skipped.
  CellLocalStrategy strategy_b;
  MarketEngine engine_b(&grid, &strategy_b, EngineOptions{});
  ASSERT_TRUE(engine_b.RestoreFromCheckpoint(checkpoint).ok());
  std::istringstream in(log);
  ReplayEventStream stream(in);
  ReplayStreamOptions options;
  options.skip_closes = 2;
  std::vector<PeriodOutcome> resumed;
  options.on_close = [&](const PeriodOutcome& out) {
    resumed.push_back(out);
    return Status::OK();
  };
  const auto summary =
      ReplayEventsThroughEngine(&stream, grid, &engine_b, options)
          .ValueOrDie();
  EXPECT_EQ(summary.periods_closed, 2);
  ASSERT_EQ(resumed.size(), 2u);
  for (size_t i = 0; i < resumed.size(); ++i) {
    const PeriodOutcome& want = reference[2 + i];
    const PeriodOutcome& got = resumed[i];
    EXPECT_EQ(got.period, want.period);
    EXPECT_EQ(got.prices, want.prices);
    EXPECT_EQ(got.accepted, want.accepted);
    EXPECT_EQ(got.revenue, want.revenue);
    ASSERT_EQ(got.matches.size(), want.matches.size());
    for (size_t m = 0; m < got.matches.size(); ++m) {
      EXPECT_EQ(got.matches[m].task, want.matches[m].task);
      EXPECT_EQ(got.matches[m].worker, want.matches[m].worker);
      EXPECT_EQ(got.matches[m].revenue, want.matches[m].revenue);
    }
  }
}

TEST(ReplayDriverTest, ShardedOverloadMatchesMonolithOnBoundaryFreeLog) {
  const GridPartition grid = MakeGrid();
  // Workers far from the y = 50 seam with small discs: nothing to stitch,
  // so the sharded drive must reproduce the monolithic one exactly.
  const std::string log =
      R"({"event":"add_worker","id":1,"x":10,"y":10,"radius":5})"
      "\n"
      R"({"event":"add_worker","id":2,"x":80,"y":80,"radius":5})"
      "\n"
      R"({"event":"submit_task","id":10,"ox":12,"oy":12,"dx":20,"dy":12,"valuation":50})"
      "\n"
      R"({"event":"submit_task","id":11,"ox":78,"oy":78,"dx":70,"dy":78,"valuation":50})"
      "\n"
      R"({"event":"close_period"})"
      "\n"
      R"({"event":"submit_task","id":12,"ox":12,"oy":12,"dx":20,"dy":12,"valuation":0.5})"
      "\n"
      R"({"event":"close_period"})"
      "\n";

  CellLocalStrategy mono_strategy;
  MarketEngine monolith(&grid, &mono_strategy, EngineOptions{});
  std::istringstream mono_in(log);
  ReplayEventStream mono_stream(mono_in);
  const auto mono =
      ReplayEventsThroughEngine(&mono_stream, grid, &monolith, {})
          .ValueOrDie();

  const RegionPartition partition =
      RegionPartition::Make(grid, 2).ValueOrDie();
  CellLocalStrategy s0, s1;
  ShardedMarketEngine sharded(&grid, &partition, {&s0, &s1},
                              EngineOptions{});
  std::istringstream sharded_in(log);
  ReplayEventStream sharded_stream(sharded_in);
  const auto shrd =
      ReplayEventsThroughEngine(&sharded_stream, grid, &sharded, {})
          .ValueOrDie();

  EXPECT_EQ(shrd.events_applied, mono.events_applied);
  EXPECT_EQ(shrd.periods_closed, mono.periods_closed);
  EXPECT_EQ(shrd.total_accepted, mono.total_accepted);
  EXPECT_EQ(shrd.total_matched, mono.total_matched);
  EXPECT_EQ(shrd.total_revenue, mono.total_revenue);
  EXPECT_EQ(shrd.total_matched, 2);
}

// ---------------------------------------------------------------------------
// An exported workload replayed through the driver against RunSimulation.

TEST(ReplayDriverTest, StreamedExportedLogMatchesRunSimulation) {
  SyntheticConfig cfg;
  cfg.num_workers = 60;
  cfg.num_tasks = 240;
  cfg.num_periods = 12;
  cfg.grid_rows = 4;
  cfg.grid_cols = 4;
  cfg.seed = 7;
  const Workload workload = GenerateSynthetic(cfg).ValueOrDie();

  SimOptions options;
  options.skip_warmup = true;
  CellLocalStrategy batch_strategy;
  const SimulationResult batch =
      RunSimulation(workload, &batch_strategy, options).ValueOrDie();

  std::ostringstream exported;
  ASSERT_TRUE(WriteReplayLog(workload, exported).ok());
  std::istringstream in(exported.str());
  ReplayEventStream stream(in);
  EngineOptions engine_options;
  engine_options.lifecycle = workload.lifecycle;
  CellLocalStrategy stream_strategy;
  MarketEngine engine(&workload.grid, &stream_strategy, engine_options);
  int64_t streamed_tasks = 0;
  ReplayStreamOptions drive;
  drive.on_close = [&streamed_tasks](const PeriodOutcome& outcome) {
    streamed_tasks += outcome.num_tasks;
    return Status::OK();
  };
  const ReplayStreamSummary streamed =
      ReplayEventsThroughEngine(&stream, workload.grid, &engine, drive)
          .ValueOrDie();

  EXPECT_EQ(streamed_tasks, batch.num_tasks);
  EXPECT_EQ(streamed.total_accepted, batch.num_accepted);
  EXPECT_EQ(streamed.total_matched, batch.num_matched);
  EXPECT_EQ(streamed.total_revenue, batch.total_revenue);  // bit-identical
  ASSERT_GT(streamed.total_matched, 0);
}

}  // namespace
}  // namespace maps
