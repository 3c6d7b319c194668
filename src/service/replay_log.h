// ReplayLog: a line-oriented JSON event format for driving MarketEngine
// from a file (`maps_cli replay`). One flat JSON object per line; blank
// lines and lines starting with '#' are skipped. Events:
//
//   {"event":"add_worker","id":0,"x":5,"y":5,"radius":3,"duration":100}
//   {"event":"submit_task","id":0,"ox":5,"oy":6,"dx":7,"dy":5,
//    "valuation":3.2}                       // valuation optional
//   {"event":"observe_acceptance","task":0,"accepted":true}
//   {"event":"remove_worker","id":0}
//   {"event":"close_period"}
//
// submit_task may carry an explicit "distance"; otherwise the driver
// derives it from the origin/destination pair. "duration" is optional
// (default: unlimited). The parser knows nothing about the grid — the
// driver fills Task::grid / Worker::grid from its partition.

#pragma once

#include <cstddef>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "market/task.h"
#include "market/worker.h"
#include "util/result.h"

namespace maps {

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

/// \brief One parsed replay event.
struct ReplayEvent {
  enum class Kind {
    kSubmitTask,
    kAddWorker,
    kRemoveWorker,
    kObserveAcceptance,
    kClosePeriod,
  };
  Kind kind = Kind::kClosePeriod;
  /// kSubmitTask: id/origin/destination/distance (distance may be 0 =
  /// derive); grid left unset for the driver.
  Task task;
  /// kSubmitTask: hidden valuation; 0.0 with has_valuation = false when
  /// the file omitted it.
  double valuation = 0.0;
  bool has_valuation = false;
  /// kAddWorker: id/location/radius/duration; grid left unset.
  Worker worker;
  /// kRemoveWorker: worker id; kObserveAcceptance: task id.
  int64_t id = -1;
  /// kObserveAcceptance.
  bool accepted = false;
};

/// \brief Parses one JSONL event line (must not be blank or a comment).
///
/// Numeric fields are validated before use: integer fields (ids, duration)
/// must parse fully as in-range integers — non-integral, overflowing, NaN,
/// or infinite values are rejected, never cast — and coordinate/valuation
/// fields must be finite. Every rejection names the offending field.
/// Decoding a decimal number does not depend on the process locale: it goes
/// through std::from_chars. Only spellings from_chars does not take (hex
/// floats, a leading '+' or whitespace inside a quoted value, under- or
/// overflow) fall back to strtod/strtoll.
Result<ReplayEvent> ParseReplayEventLine(const std::string& line);

namespace internal {

/// One `"key": value` pair of a scanned event line, as views into the line.
struct ReplayField {
  std::string_view key;
  std::string_view value;  ///< empty for null and ""
  size_t end = 0;          ///< column just past the value (error text)
};

}  // namespace internal

/// \brief Tuning knobs for ReplayEventStream.
struct ReplayLoadOptions {
  /// When true, a malformed line is logged at Warning, counted in
  /// ReplayLoadStats::lines_skipped, and dropped instead of failing the
  /// whole replay. Structural damage (an unreadable stream) still fails.
  bool skip_bad_events = false;
};

/// \brief Counters reported by ReplayEventStream::stats().
struct ReplayLoadStats {
  /// Malformed lines dropped because of ReplayLoadOptions::skip_bad_events.
  int64_t lines_skipped = 0;
  /// Lines parsed into events (excludes blanks, comments, skipped lines).
  int64_t events_loaded = 0;
};

/// \brief Streaming, line-at-a-time view of an event log: one ReplayEvent
/// in memory at a time, never the whole log. This is the ingestion path a
/// multi-million-event file goes through (`maps_cli replay`, the replay
/// driver) — peak footprint is one line buffer, independent of log length.
///
/// Blank lines and '#' comments are skipped transparently. With
/// skip_bad_events, malformed lines are warned about, counted in stats(),
/// and dropped; otherwise the first malformed line fails Next() with its
/// 1-based line number. The stream must outlive the reader.
class ReplayEventStream {
 public:
  explicit ReplayEventStream(std::istream& in,
                             const ReplayLoadOptions& options = {});

  ReplayEventStream(const ReplayEventStream&) = delete;
  ReplayEventStream& operator=(const ReplayEventStream&) = delete;

  /// Advances to the next event. Returns true and fills `out`, or false at
  /// end of input. Errors (malformed line in strict mode) carry the line
  /// number; the stream is unusable afterwards.
  Result<bool> Next(ReplayEvent* out);

  /// Skip/load counters so far (final after Next() returned false).
  const ReplayLoadStats& stats() const { return stats_; }

  /// 1-based number of the last line read (0 before the first read).
  int64_t line_number() const { return lineno_; }

  /// Heap footprint of the reader itself — the line buffer plus the
  /// field-view buffer the parser reuses — demonstrating O(1) ingestion
  /// memory.
  size_t FootprintBytes() const {
    return line_.capacity() +
           fields_.capacity() * sizeof(internal::ReplayField);
  }

  /// Resolves "ingest.*" counters from `registry` (no-op when null): lines
  /// read, bytes read, events parsed, lines skipped. All deterministic —
  /// pure functions of the log content. One null-check per counter when
  /// detached (DESIGN.md §16).
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  std::istream& in_;
  ReplayLoadOptions options_;
  ReplayLoadStats stats_;
  std::string line_;
  /// Views into line_, valid only while one line is being parsed.
  std::vector<internal::ReplayField> fields_;
  int64_t lineno_ = 0;
  bool done_ = false;
  obs::Counter* m_lines_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_events_ = nullptr;
  obs::Counter* m_skipped_ = nullptr;
};

}  // namespace maps
