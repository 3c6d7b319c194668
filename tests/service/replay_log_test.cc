#include "service/replay_log.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "rng/random.h"
#include "replay_log_oracle.h"
#include "replay_test_util.h"
#include "sim/scenario_fuzzer.h"
#include "util/fault_injector.h"
#include "util/logging.h"

namespace maps {
namespace {

using testing_util::ReadReplayEvents;

TEST(ReplayLogTest, ParsesEveryEventKind) {
  auto submit = ParseReplayEventLine(
                    R"({"event":"submit_task","id":3,"ox":1.5,"oy":2,)"
                    R"("dx":4,"dy":6,"valuation":3.25})")
                    .ValueOrDie();
  EXPECT_EQ(submit.kind, ReplayEvent::Kind::kSubmitTask);
  EXPECT_EQ(submit.task.id, 3);
  EXPECT_DOUBLE_EQ(submit.task.origin.x, 1.5);
  EXPECT_DOUBLE_EQ(submit.task.destination.y, 6.0);
  EXPECT_TRUE(submit.has_valuation);
  EXPECT_DOUBLE_EQ(submit.valuation, 3.25);
  EXPECT_DOUBLE_EQ(submit.task.distance, 0.0);  // derive from geometry

  auto worker = ParseReplayEventLine(
                    R"({"event":"add_worker","id":7,"x":10,"y":20,)"
                    R"("radius":5,"duration":12})")
                    .ValueOrDie();
  EXPECT_EQ(worker.kind, ReplayEvent::Kind::kAddWorker);
  EXPECT_EQ(worker.worker.id, 7);
  EXPECT_DOUBLE_EQ(worker.worker.radius, 5.0);
  EXPECT_EQ(worker.worker.duration, 12);

  auto no_duration =
      ParseReplayEventLine(
          R"({"event":"add_worker","id":8,"x":1,"y":1,"radius":2})")
          .ValueOrDie();
  EXPECT_EQ(no_duration.worker.duration, Worker::kUnlimitedDuration);

  auto remove =
      ParseReplayEventLine(R"({"event":"remove_worker","id":7})").ValueOrDie();
  EXPECT_EQ(remove.kind, ReplayEvent::Kind::kRemoveWorker);
  EXPECT_EQ(remove.id, 7);

  auto observe = ParseReplayEventLine(
                     R"({"event":"observe_acceptance","task":3,)"
                     R"("accepted":true})")
                     .ValueOrDie();
  EXPECT_EQ(observe.kind, ReplayEvent::Kind::kObserveAcceptance);
  EXPECT_EQ(observe.id, 3);
  EXPECT_TRUE(observe.accepted);

  auto close = ParseReplayEventLine(R"({"event":"close_period"})");
  EXPECT_EQ(close.ValueOrDie().kind, ReplayEvent::Kind::kClosePeriod);
}

TEST(ReplayLogTest, OmittedValuationIsFlagged) {
  auto ev = ParseReplayEventLine(
                R"({"event":"submit_task","id":1,"ox":0,"oy":0,"dx":1,)"
                R"("dy":1})")
                .ValueOrDie();
  EXPECT_FALSE(ev.has_valuation);
}

TEST(ReplayLogTest, RejectsMalformedLines) {
  // Not an object / trailing garbage / bad values.
  EXPECT_FALSE(ParseReplayEventLine("close_period").ok());
  EXPECT_FALSE(ParseReplayEventLine(R"({"event":"close_period"} x)").ok());
  EXPECT_FALSE(ParseReplayEventLine(R"({"event":"warp_drive"})").ok());
  EXPECT_FALSE(ParseReplayEventLine(R"({"id":1})").ok());
  // Missing required fields.
  EXPECT_FALSE(ParseReplayEventLine(R"({"event":"submit_task","id":1})").ok());
  EXPECT_FALSE(ParseReplayEventLine(R"({"event":"remove_worker"})").ok());
  EXPECT_FALSE(
      ParseReplayEventLine(R"({"event":"observe_acceptance","task":1})").ok());
  EXPECT_FALSE(ParseReplayEventLine(
                   R"({"event":"observe_acceptance","task":1,"accepted":7})")
                   .ok());
  // Duplicate keys and nested values are schema violations.
  EXPECT_FALSE(
      ParseReplayEventLine(R"({"event":"close_period","event":"x"})").ok());
  EXPECT_FALSE(
      ParseReplayEventLine(R"({"event":"close_period","extra":{}})").ok());
}

TEST(ReplayLogTest, LoadSkipsBlanksAndCommentsAndNumbersErrors) {
  std::istringstream good(
      "# a comment\n"
      "\n"
      R"({"event":"add_worker","id":1,"x":0,"y":0,"radius":3})"
      "\n"
      "   # indented comment\n"
      R"({"event":"close_period"})"
      "\n");
  auto events = ReadReplayEvents(good).ValueOrDie();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, ReplayEvent::Kind::kAddWorker);
  EXPECT_EQ(events[1].kind, ReplayEvent::Kind::kClosePeriod);

  std::istringstream bad(
      "# fine\n"
      R"({"event":"close_period"})"
      "\n"
      "{broken\n");
  auto err = ReadReplayEvents(bad);
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.status().message().find("line 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Hardened numeric validation: malformed values are rejected with the
// offending field named, never cast through undefined behavior.
// ---------------------------------------------------------------------------

TEST(ReplayLogTest, RejectsNonFiniteAndNonIntegralNumbers) {
  // Literal "nan"/"inf" die in the scanner (not a JSON value at all);
  // signed spellings and overflow-to-infinity decimals reach the field
  // validator, which must reject them naming the field.
  for (const char* value : {"nan", "inf"}) {
    EXPECT_FALSE(ParseReplayEventLine(
                     std::string(R"({"event":"submit_task","id":1,"ox":)") +
                     value + R"(,"oy":0,"dx":1,"dy":1})")
                     .ok())
        << value;
  }
  for (const char* value : {"-nan", "-inf", "1e999", "-1e999"}) {
    const std::string line =
        std::string(R"({"event":"submit_task","id":1,"ox":)") + value +
        R"(,"oy":0,"dx":1,"dy":1})";
    auto st = ParseReplayEventLine(line).status();
    ASSERT_FALSE(st.ok()) << value;
    EXPECT_NE(st.message().find("'ox'"), std::string::npos) << st.message();
  }
  // Optional numeric fields validate too — optional is not a license for
  // garbage.
  EXPECT_FALSE(ParseReplayEventLine(
                   R"({"event":"submit_task","id":1,"ox":0,"oy":0,)"
                   R"("dx":1,"dy":1,"valuation":1e999})")
                   .ok());

  // Integer fields: non-integral, overflowing, or junk-suffixed values.
  for (const char* value : {"1.5", "2e3", "9223372036854775808",
                            "-9223372036854775809", "7x"}) {
    const std::string line =
        std::string(R"({"event":"remove_worker","id":)") + value + "}";
    auto st = ParseReplayEventLine(line).status();
    ASSERT_FALSE(st.ok()) << value;
    EXPECT_NE(st.message().find("'id'"), std::string::npos) << st.message();
  }
  // int64 boundaries themselves parse exactly (no double rounding).
  auto max_id = ParseReplayEventLine(
                    R"({"event":"remove_worker","id":9223372036854775807})")
                    .ValueOrDie();
  EXPECT_EQ(max_id.id, 9223372036854775807LL);

  // duration is 32-bit: out-of-range values are rejected with the field
  // named, not truncated.
  auto st = ParseReplayEventLine(
                R"({"event":"add_worker","id":1,"x":0,"y":0,"radius":2,)"
                R"("duration":4294967296})")
                .status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("'duration'"), std::string::npos);

  // Missing-field errors also name the field.
  st = ParseReplayEventLine(R"({"event":"submit_task","id":1,"ox":0})")
           .status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("'oy'"), std::string::npos);
}

TEST(ReplayLogTest, SkipBadEventsDropsAndCountsMalformedLines) {
  const std::string corpus =
      "# broken-log corpus\n"
      R"({"event":"add_worker","id":1,"x":0,"y":0,"radius":3})"
      "\n"
      "{broken json\n"                                          // bad: syntax
      R"({"event":"submit_task","id":nan,"ox":0,"oy":0,"dx":1,"dy":1})"
      "\n"                                                      // bad: value
      R"({"event":"warp_drive"})"
      "\n"                                                      // bad: kind
      R"({"event":"close_period"})"
      "\n";

  // Strict load fails on the first bad line, with its number.
  std::istringstream strict(corpus);
  auto err = ReadReplayEvents(strict);
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.status().message().find("line 3"), std::string::npos);

  // Opt-in skipping loads the good events and counts the bad lines.
  std::istringstream lax(corpus);
  ReplayLoadOptions options;
  options.skip_bad_events = true;
  ReplayLoadStats stats;
  auto events = ReadReplayEvents(lax, options, &stats).ValueOrDie();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, ReplayEvent::Kind::kAddWorker);
  EXPECT_EQ(events[1].kind, ReplayEvent::Kind::kClosePeriod);
  EXPECT_EQ(stats.lines_skipped, 3);
  EXPECT_EQ(stats.events_loaded, 2);

  // skip_bad_events defaults off, and a clean log reports zero skips.
  std::istringstream clean(R"({"event":"close_period"})");
  ReplayLoadStats clean_stats;
  ASSERT_TRUE(
      ReadReplayEvents(clean, ReplayLoadOptions{}, &clean_stats).ok());
  EXPECT_EQ(clean_stats.lines_skipped, 0);
  EXPECT_EQ(clean_stats.events_loaded, 1);
}

TEST(ReplayLogTest, StrictStreamFailsAtTheExactLineForEveryCorpusEntry) {
  // Every malformed-line class the scenario fuzzer's corruption mode can
  // emit must fail a strict streamed read with (a) the 1-based number of
  // the injected line, (b) the advertised message fragment, and (c) the
  // offending field's name when the damage is field-level. The corpus lives
  // with the fuzzer so the two cannot drift apart.
  const std::string good_worker =
      R"({"event":"add_worker","id":1,"x":0,"y":0,"radius":3})";
  for (const MalformedReplayLine& bad : MalformedReplayLineCorpus()) {
    SCOPED_TRACE(bad.label);
    // Comment, two good lines, the bad line at line 4, one good trailer.
    std::ostringstream log;
    log << "# corpus\n"
        << good_worker << "\n"
        << good_worker << "\n"
        << bad.line << "\n"
        << R"({"event":"close_period"})" << "\n";
    std::istringstream in(log.str());
    ReplayEventStream stream(in);
    ReplayEvent event;
    Status error = Status::OK();
    while (true) {
      auto next = stream.Next(&event);
      if (!next.ok()) {
        error = next.status();
        break;
      }
      if (!next.ValueOrDie()) break;
    }
    ASSERT_FALSE(error.ok()) << "corpus line parsed cleanly: " << bad.line;
    EXPECT_NE(error.message().find("line 4"), std::string::npos)
        << "error was: " << error.ToString();
    EXPECT_EQ(stream.line_number(), 4);
    EXPECT_NE(error.message().find(bad.expect), std::string::npos)
        << "error was: " << error.ToString();
    if (bad.field != nullptr) {
      std::string quoted_field = "'";
      quoted_field += bad.field;
      quoted_field += "'";
      EXPECT_NE(error.message().find(quoted_field), std::string::npos)
          << "error was: " << error.ToString();
    }
  }
}

TEST(ReplayLogTest, SkipBadEventsRecoversEveryCorpusEntry) {
  // The same corpus, all injected into one log: skipping mode must drop
  // each bad line exactly once and keep every good event.
  const auto& corpus = MalformedReplayLineCorpus();
  std::ostringstream log;
  for (const MalformedReplayLine& bad : corpus) {
    log << R"({"event":"close_period"})" << "\n" << bad.line << "\n";
  }
  std::istringstream in(log.str());
  ReplayLoadOptions options;
  options.skip_bad_events = true;
  ReplayLoadStats stats;
  const auto events = ReadReplayEvents(in, options, &stats).ValueOrDie();
  EXPECT_EQ(events.size(), corpus.size());
  EXPECT_EQ(stats.lines_skipped, static_cast<int64_t>(corpus.size()));
  EXPECT_EQ(stats.events_loaded, static_cast<int64_t>(corpus.size()));
}

TEST(ReplayLogTest, InjectedReadErrorFailsAtTheArmedLine) {
  const std::string log =
      R"({"event":"close_period"})" "\n"
      R"({"event":"close_period"})" "\n"
      R"({"event":"close_period"})" "\n";

  ScopedFaultPlan plan("read_err@p2");
  std::istringstream in(log);
  auto err = ReadReplayEvents(in);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
  EXPECT_NE(err.status().message().find("line 2"), std::string::npos);

  // A stream fault models the transport, not the payload: lenient mode
  // (skip_bad_events) must NOT swallow it.
  std::istringstream again(log);
  ReplayLoadOptions options;
  options.skip_bad_events = true;
  EXPECT_FALSE(ReadReplayEvents(again, options).ok());
  EXPECT_EQ(FaultInjector::Global().fires(FaultRule::Kind::kReplayReadError),
            2);
}

// ---------------------------------------------------------------------------
// Differential check against the map-based parser the scanner replaced
// (replay_log_oracle.h): same accepted language, byte-identical error text,
// bit-identical fields.
// ---------------------------------------------------------------------------

/// Empty when `a` and `b` agree bit for bit, else a description of the
/// first differing field.
std::string EventDiff(const ReplayEvent& a, const ReplayEvent& b) {
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  if (a.kind != b.kind) return "kind";
  if (a.task.id != b.task.id || a.task.period != b.task.period ||
      a.task.grid != b.task.grid) {
    return "task id/period/grid";
  }
  if (bits(a.task.origin.x) != bits(b.task.origin.x) ||
      bits(a.task.origin.y) != bits(b.task.origin.y) ||
      bits(a.task.destination.x) != bits(b.task.destination.x) ||
      bits(a.task.destination.y) != bits(b.task.destination.y) ||
      bits(a.task.distance) != bits(b.task.distance)) {
    return "task geometry";
  }
  if (bits(a.valuation) != bits(b.valuation) ||
      a.has_valuation != b.has_valuation) {
    return "valuation";
  }
  if (a.worker.id != b.worker.id || a.worker.period != b.worker.period ||
      a.worker.duration != b.worker.duration ||
      a.worker.grid != b.worker.grid ||
      bits(a.worker.location.x) != bits(b.worker.location.x) ||
      bits(a.worker.location.y) != bits(b.worker.location.y) ||
      bits(a.worker.radius) != bits(b.worker.radius)) {
    return "worker";
  }
  if (a.id != b.id || a.accepted != b.accepted) return "id/accepted";
  return "";
}

/// Empty when the serving parser and the oracle agree on `line`.
std::string OracleMismatch(const std::string& line) {
  const auto got = ParseReplayEventLine(line);
  const auto want = replay_log_oracle::ParseReplayEventLine(line);
  if (got.ok() != want.ok()) {
    return got.ok() ? "accepted, oracle rejected: " + want.status().message()
                    : "rejected, oracle accepted: " + got.status().message();
  }
  if (!got.ok()) {
    return got.status().message() == want.status().message()
               ? ""
               : "error text differs: '" + got.status().message() +
                     "' vs oracle '" + want.status().message() + "'";
  }
  const std::string diff = EventDiff(got.ValueOrDie(), want.ValueOrDie());
  return diff.empty() ? "" : "field differs: " + diff;
}

/// The numeric spellings whose decoding is most likely to drift: under- and
/// overflow, hex, signs, leading zeros and dots, non-finite words, int64 and
/// int32 edges — each bare and quoted, in every numeric slot of the schema.
std::vector<std::string> NumericSpellingLines() {
  const std::vector<std::string> spellings = {
      "1e-400", "-1e-400", "2.4703282292062327e-324", "0x1p3", "0x10",
      "4e-320", "-0", "007", ".5", "1.", "1e999", "-1e999", "-nan",
      "-infinity", "nan", "inf", "+1.5", " 1.5", "1.5 ", "1e", "-", "--1",
      "0.1", "3.14159265358979323846264338327950288", "1.7976931348623157e308",
      "1.7976931348623159e308", "2.2250738585072011e-308",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "4294967296", "2147483647", "2147483648",
      "-2147483648", "-2147483649", "+5", " 5", "5 ", "\t7", "0", "1",
      "true", "false", "tru", "1.0", "1e0"};
  const std::vector<std::pair<std::string, std::string>> slots = {
      {R"({"event":"submit_task","id":1,"ox":)", R"(,"oy":0,"dx":1,"dy":1})"},
      {R"({"event":"submit_task","id":1,"ox":0,"oy":0,"dx":1,"dy":1,)"
       R"("valuation":)",
       "}"},
      {R"({"event":"submit_task","id":1,"ox":0,"oy":0,"dx":1,"dy":1,)"
       R"("distance":)",
       "}"},
      {R"({"event":"remove_worker","id":)", "}"},
      {R"({"event":"add_worker","id":1,"x":0,"y":0,"radius":2,"duration":)",
       "}"},
      {R"({"event":"observe_acceptance","task":)", R"(,"accepted":true})"},
      {R"({"event":"observe_acceptance","task":1,"accepted":)", "}"},
  };
  std::vector<std::string> lines;
  for (const auto& [head, tail] : slots) {
    for (const std::string& v : spellings) {
      lines.push_back(head + v + tail);
      lines.push_back(head + "\"" + v + "\"" + tail);
    }
  }
  return lines;
}

/// One seeded mutation of `line`: byte flip, delete, duplicate, truncate, or
/// whitespace insert (`kind` mod 5). Flips draw from the characters the
/// scanner branches on half the time so the damage reaches past column 0.
std::string Mutate(const std::string& line, int kind, Rng* rng) {
  static const std::string kSalient = "{}\":,- \t0123456789.eE+xtfnul#\\";
  static const std::string kSpace = " \t\n\v\f\r";
  std::string out = line;
  const size_t pos =
      out.empty() ? 0 : static_cast<size_t>(rng->NextUint64() % out.size());
  switch (kind % 5) {
    case 0:  // byte flip
      if (out.empty()) break;
      out[pos] = rng->NextBernoulli(0.5)
                     ? kSalient[rng->NextUint64() % kSalient.size()]
                     : static_cast<char>(rng->NextUint64() & 0xff);
      break;
    case 1:  // delete
      if (!out.empty()) out.erase(pos, 1);
      break;
    case 2:  // duplicate a span
      if (!out.empty()) {
        const size_t len = 1 + rng->NextUint64() % std::min<size_t>(
                                   12, out.size() - pos);
        out.insert(pos, out.substr(pos, len));
      }
      break;
    case 3:  // truncate
      out.resize(pos);
      break;
    default:  // whitespace insert
      out.insert(out.empty() ? 0 : pos + rng->NextUint64() % 2, 1,
                 kSpace[rng->NextUint64() % kSpace.size()]);
      break;
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ReplayLogTest, MatchesOracleOnSeededMutations) {
  // Seed lines: small fuzzer logs, the shipped examples, the malformed
  // corpus, and the hand-picked numeric spellings.
  std::vector<std::string> seeds;
  for (const ScenarioSpec& spec : DefaultScenarioMatrix()) {
    if (spec.name != "baseline" && spec.name != "churn_storm" &&
        spec.name != "boundary_heavy_k2") {
      continue;
    }
    ScenarioSpec small = spec;
    small.num_periods = 24;  // keeps every family window inside the horizon
    for (uint64_t seed : {1, 2}) {
      std::ostringstream log;
      ASSERT_TRUE(WriteScenarioLog(small, seed, log).ok()) << spec.name;
      for (std::string& line : SplitLines(log.str())) {
        seeds.push_back(std::move(line));
      }
    }
  }
  for (const char* name : {"online_churn.jsonl", "sharded_churn.jsonl"}) {
    std::ifstream in(std::string(MAPS_SOURCE_DIR) + "/examples/" + name);
    ASSERT_TRUE(in.good()) << name;
    std::stringstream text;
    text << in.rdbuf();
    for (std::string& line : SplitLines(text.str())) {
      seeds.push_back(std::move(line));
    }
  }
  for (const MalformedReplayLine& bad : MalformedReplayLineCorpus()) {
    seeds.push_back(bad.line);
  }
  for (std::string& line : NumericSpellingLines()) {
    seeds.push_back(std::move(line));
  }

  constexpr int kMutationsPerLine = 10;  // two of each kind
  Rng rng(20180610);
  std::vector<std::string> lines;
  lines.reserve(seeds.size() * (1 + kMutationsPerLine));
  for (const std::string& seed : seeds) {
    lines.push_back(seed);
    for (int m = 0; m < kMutationsPerLine; ++m) {
      lines.push_back(Mutate(seed, m, &rng));
    }
  }

  int64_t mismatches = 0;
  int64_t accepted = 0;
  for (const std::string& line : lines) {
    const std::string why = OracleMismatch(line);
    if (!why.empty() && ++mismatches <= 5) {
      ADD_FAILURE() << why << "\n  line: " << line;
    }
    if (replay_log_oracle::ParseReplayEventLine(line).ok()) ++accepted;
  }
  EXPECT_EQ(mismatches, 0) << "of " << lines.size() << " lines";
  // The corpus must exercise both sides of the language.
  EXPECT_GT(accepted, static_cast<int64_t>(lines.size() / 10));
  EXPECT_LT(accepted, static_cast<int64_t>(lines.size() * 9 / 10));

  // The stream reuses one field buffer across lines of every width and
  // failure mode: in skip mode it must yield exactly the oracle-accepted
  // lines, in order, bit for bit.
  std::ostringstream log;
  std::vector<ReplayEvent> want;
  int64_t want_skipped = 0;
  for (const std::string& line : lines) {
    if (line.find('\n') != std::string::npos) continue;  // getline splits it
    log << line << "\n";
    const size_t first = line.find_first_not_of(" \t\v\f\r");
    if (first == std::string::npos || line[first] == '#') continue;
    auto ev = replay_log_oracle::ParseReplayEventLine(line);
    if (ev.ok()) {
      want.push_back(std::move(ev).ValueOrDie());
    } else {
      ++want_skipped;
    }
  }
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // one warning per skipped line otherwise
  std::istringstream in(log.str());
  ReplayLoadOptions options;
  options.skip_bad_events = true;
  ReplayLoadStats stats;
  auto got = ReadReplayEvents(in, options, &stats);
  SetLogLevel(saved_level);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const std::vector<ReplayEvent>& events = got.ValueOrDie();
  EXPECT_EQ(stats.lines_skipped, want_skipped);
  ASSERT_EQ(events.size(), want.size());
  for (size_t k = 0; k < events.size(); ++k) {
    ASSERT_EQ(EventDiff(events[k], want[k]), "") << "event " << k;
  }
}

std::string WideLine(int keys) {
  std::string line = R"({"event":"close_period")";
  for (int k = 0; k < keys; ++k) {
    line += ",\"unknown_" + std::to_string(k) + "\":" + std::to_string(k);
  }
  return line;
}

std::string OracleError(const std::string& line) {
  return replay_log_oracle::ParseReplayEventLine(line).status().message();
}

TEST(ReplayLogTest, ScannerTakesAnyKeyCountAndFindsALateDuplicate) {
  const std::string wide = WideLine(1000);
  auto ev = ParseReplayEventLine(wide + "}");
  ASSERT_TRUE(ev.ok()) << ev.status().ToString();
  EXPECT_EQ(ev.ValueOrDie().kind, ReplayEvent::Kind::kClosePeriod);

  // One key repeated at the very end: reported at the column just past the
  // repeat's value, exactly as the oracle reports it.
  const std::string repeat = wide + R"(,"unknown_17":0})";
  auto st = ParseReplayEventLine(repeat).status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("duplicate key 'unknown_17'"), std::string::npos)
      << st.message();
  EXPECT_EQ(st.message(), OracleError(repeat));

  // Narrow lines check each key as it is scanned, wide ones once at the
  // end; a repeat right at the switch-over reads the same either way.
  for (int keys = 12; keys <= 20; ++keys) {
    for (const std::string& tail :
         {std::string(R"(,"unknown_0":1})"),
          std::string(",\"unknown_" + std::to_string(keys - 1) + "\":1})")}) {
      const std::string line = WideLine(keys) + tail;
      const Status got = ParseReplayEventLine(line).status();
      EXPECT_NE(got.message().find("duplicate key"), std::string::npos)
          << line;
      EXPECT_EQ(got.message(), OracleError(line));
    }
  }

  // Two repeats: the earlier one in scan order wins, even when its key
  // sorts later; a syntax error after a repeat does not mask it.
  for (const std::string& tail :
       {std::string(R"(,"unknown_9":0,"unknown_1":0})"),
        std::string(R"(,"unknown_9":0,"unknown_1" 0})")}) {
    const std::string line = wide + tail;
    auto both = ParseReplayEventLine(line).status();
    ASSERT_FALSE(both.ok());
    EXPECT_NE(both.message().find("duplicate key 'unknown_9'"),
              std::string::npos)
        << both.message();
    EXPECT_EQ(both.message(), OracleError(line));
  }
}

TEST(ReplayEventStreamTest, FootprintCountsTheFieldBuffer) {
  // The reused field-view buffer is part of the reader's heap: after a
  // 1,000-key line it holds at least one view pair per key on top of the
  // line itself.
  const std::string wide = WideLine(1000) + "}";
  std::istringstream in(wide + "\n");
  ReplayEventStream stream(in);
  ReplayEvent ev;
  ASSERT_TRUE(stream.Next(&ev).ValueOrDie());
  EXPECT_GE(stream.FootprintBytes(),
            wide.size() + 1001 * sizeof(internal::ReplayField));
}

}  // namespace
}  // namespace maps
