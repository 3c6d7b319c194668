#include "service/replay_log.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <system_error>
#include <utility>

#include "obs/metrics.h"
#include "util/fault_injector.h"
#include "util/logging.h"

namespace maps {

namespace {

using internal::ReplayField;
using Fields = std::vector<ReplayField>;

/// The C locale's isspace set, spelled out so scanning never consults the
/// process locale.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

Status ScanError(std::string_view line, size_t column, std::string_view what) {
  return Status::InvalidArgument(std::string(what) + " at column " +
                                 std::to_string(column) + " of: " +
                                 std::string(line));
}

Status DuplicateKey(std::string_view line, const ReplayField& repeat) {
  return ScanError(line, repeat.end,
                   "duplicate key '" + std::string(repeat.key) + "'");
}

/// Up to this many keys, the scanner checks each new key against the
/// earlier ones as it goes (the common, narrow line). A wider line is
/// checked once, by sorting, so no key count costs quadratic time.
constexpr size_t kScanCheckedKeys = 16;

/// Reports the first key, in scan order, that repeats an earlier one — at
/// the column where the scan would have stopped on it — or OK when every
/// key is distinct. Only lines wider than kScanCheckedKeys need it; it
/// sorts `fields` by key, and lookups do not depend on their order.
Status CheckDistinctKeys(std::string_view line, Fields* fields) {
  if (fields->size() <= kScanCheckedKeys) return Status::OK();
  std::sort(fields->begin(), fields->end(),
            [](const ReplayField& a, const ReplayField& b) {
              const int c = a.key.compare(b.key);
              return c != 0 ? c < 0 : a.end < b.end;
            });
  const ReplayField* first_repeat = nullptr;
  for (size_t k = 1; k < fields->size(); ++k) {
    const ReplayField& f = (*fields)[k];
    if (f.key == (*fields)[k - 1].key &&
        (first_repeat == nullptr || f.end < first_repeat->end)) {
      first_repeat = &f;
    }
  }
  if (first_repeat == nullptr) return Status::OK();
  return DuplicateKey(line, *first_repeat);
}

/// Minimal flat-JSON-object scanner: {"key": value, ...} where value is a
/// double-quoted string (no escapes needed by the schema), a number, true,
/// false, or null. Nested objects/arrays are rejected — the event schema is
/// flat by design. Fills `fields` with views into `line`; null and "" both
/// become empty values. The first error in scan order wins, so a duplicate
/// key found before a later syntax error is the one reported.
Status ParseFlatJson(std::string_view line, Fields* fields) {
  fields->clear();
  size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() && IsSpace(line[i])) ++i;
  };
  const auto fail = [&](std::string_view what) {
    MAPS_RETURN_NOT_OK(CheckDistinctKeys(line, fields));
    return ScanError(line, i, what);
  };

  skip_ws();
  if (i >= line.size() || line[i] != '{') return fail("expected '{'");
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    while (true) {
      skip_ws();
      if (i >= line.size() || line[i] != '"') return fail("expected key");
      const size_t key_end = line.find('"', i + 1);
      if (key_end == std::string_view::npos) return fail("unterminated key");
      const std::string_view key = line.substr(i + 1, key_end - i - 1);
      i = key_end + 1;
      skip_ws();
      if (i >= line.size() || line[i] != ':') return fail("expected ':'");
      ++i;
      skip_ws();
      std::string_view value;
      if (i < line.size() && line[i] == '"') {
        const size_t val_end = line.find('"', i + 1);
        if (val_end == std::string_view::npos) {
          return fail("unterminated string");
        }
        value = line.substr(i + 1, val_end - i - 1);
        i = val_end + 1;
      } else {
        const size_t start = i;
        while (i < line.size() && line[i] != ',' && line[i] != '}' &&
               !IsSpace(line[i])) {
          ++i;
        }
        value = line.substr(start, i - start);
        if (value.empty()) return fail("expected value");
        if (value == "null") {
          value = {};
        } else if (value[0] != 't' && value[0] != 'f' && value[0] != '-' &&
                   !IsDigit(value[0])) {
          return fail("unsupported value '" + std::string(value) + "'");
        }
      }
      fields->push_back({key, value, i});
      if (fields->size() <= kScanCheckedKeys) {
        for (size_t k = 0; k + 1 < fields->size(); ++k) {
          if ((*fields)[k].key == key) {
            return DuplicateKey(line, fields->back());
          }
        }
      }
      skip_ws();
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      if (i < line.size() && line[i] == '}') {
        ++i;
        break;
      }
      return fail("expected ',' or '}'");
    }
  }
  MAPS_RETURN_NOT_OK(CheckDistinctKeys(line, fields));
  skip_ws();
  if (i != line.size()) return ScanError(line, i, "trailing characters");
  return Status::OK();
}

const ReplayField* FindField(const Fields& f, std::string_view key) {
  for (const ReplayField& field : f) {
    if (field.key == key) return &field;
  }
  return nullptr;
}

/// Tri-state field decode: distinguishes an absent (or null) key from a
/// present but malformed value so errors can name what went wrong.
enum class Field { kOk, kMissing, kBad };

/// Full-token strtod that additionally rejects NaN and infinity (both
/// literal "nan"/"inf" spellings and overflowing decimals like 1e999).
/// std::from_chars decodes the common spellings without copying; both it
/// and strtod round correctly, so a token it consumes whole gets strtod's
/// exact bits. Anything else — hex floats, a leading '+' or whitespace in
/// a quoted value, under- or overflow — goes to strtod on a copy, which
/// keeps the accepted language and values exactly strtod's.
bool ParseFiniteDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  const char* const last = s.data() + s.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), last, v);
  if (ec != std::errc() || ptr != last) {
    const std::string copy(s);
    char* end = nullptr;
    v = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size()) return false;
  }
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// Full-token strtoll: rejects non-integral values ("1.5", "2e3"),
/// overflow beyond int64, and any trailing junk. Never routes through a
/// double, so large ids keep every bit. std::from_chars takes what the
/// scanner admits unquoted; a quoted value may also carry the leading '+'
/// or whitespace strtoll skips, so those fall back to it on a copy.
bool ParseInt64(std::string_view s, int64_t* out) {
  if (s.empty()) return false;
  const char* const last = s.data() + s.size();
  int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), last, v);
  if (ec != std::errc() || ptr != last) {
    const std::string copy(s);
    errno = 0;
    char* end = nullptr;
    const long long w = std::strtoll(copy.c_str(), &end, 10);
    if (end != copy.c_str() + copy.size() || errno == ERANGE) return false;
    v = static_cast<int64_t>(w);
  }
  *out = v;
  return true;
}

Field GetFiniteDouble(const Fields& f, std::string_view key, double* out) {
  const ReplayField* field = FindField(f, key);
  if (field == nullptr || field->value.empty()) return Field::kMissing;
  return ParseFiniteDouble(field->value, out) ? Field::kOk : Field::kBad;
}

Field GetInt64(const Fields& f, std::string_view key, int64_t* out) {
  const ReplayField* field = FindField(f, key);
  if (field == nullptr || field->value.empty()) return Field::kMissing;
  return ParseInt64(field->value, out) ? Field::kOk : Field::kBad;
}

Field GetInt32(const Fields& f, std::string_view key, int32_t* out) {
  int64_t v = 0;
  const Field r = GetInt64(f, key, &v);
  if (r != Field::kOk) return r;
  if (v < std::numeric_limits<int32_t>::min() ||
      v > std::numeric_limits<int32_t>::max()) {
    return Field::kBad;
  }
  *out = static_cast<int32_t>(v);
  return Field::kOk;
}

Field GetBool(const Fields& f, std::string_view key, bool* out) {
  const ReplayField* field = FindField(f, key);
  if (field == nullptr || field->value.empty()) return Field::kMissing;
  if (field->value == "true" || field->value == "1") {
    *out = true;
    return Field::kOk;
  }
  if (field->value == "false" || field->value == "0") {
    *out = false;
    return Field::kOk;
  }
  return Field::kBad;
}

Status BadField(const Fields& f, std::string_view event, std::string_view key,
                const char* expect) {
  return Status::InvalidArgument(
      std::string(event) + " event field '" + std::string(key) +
      "' must be " + expect + ", got '" +
      std::string(FindField(f, key)->value) + "'");
}

/// Maps a required field's decode result to OK or an error naming the
/// event, the field, and (for malformed values) the rejected text.
Status RequireField(Field r, const Fields& f, std::string_view event,
                    std::string_view key, const char* expect) {
  if (r == Field::kOk) return Status::OK();
  if (r == Field::kMissing) {
    return Status::InvalidArgument(std::string(event) +
                                   " event is missing required field '" +
                                   std::string(key) + "' (" + expect + ")");
  }
  return BadField(f, event, key, expect);
}

/// Like RequireField but tolerates an absent key; `present` reports
/// whether the value was decoded. A present-but-malformed value still
/// fails — optional fields are not a license for garbage.
Status OptionalField(Field r, bool* present, const Fields& f,
                     std::string_view event, std::string_view key,
                     const char* expect) {
  *present = r == Field::kOk;
  if (r == Field::kBad) return BadField(f, event, key, expect);
  return Status::OK();
}

/// ParseReplayEventLine with a caller-owned field buffer: no heap
/// allocation once `fields` has grown to the widest line's key count,
/// unless the line fails (error text) or a number takes the strtod/strtoll
/// fallback with a token too long for the small-string buffer.
Result<ReplayEvent> ParseEventLine(std::string_view line, Fields* fields) {
  MAPS_RETURN_NOT_OK(ParseFlatJson(line, fields));
  const Fields& f = *fields;

  const ReplayField* kind_field = FindField(f, "event");
  if (kind_field == nullptr) {
    return Status::InvalidArgument("missing \"event\" field: " +
                                   std::string(line));
  }
  const std::string_view kind = kind_field->value;
  constexpr const char* kInt = "a 64-bit integer";
  constexpr const char* kInt32 = "a 32-bit integer";
  constexpr const char* kNum = "a finite number";
  ReplayEvent ev;
  double num = 0.0;
  bool present = false;

  if (kind == "submit_task") {
    ev.kind = ReplayEvent::Kind::kSubmitTask;
    int64_t id = 0;
    MAPS_RETURN_NOT_OK(RequireField(GetInt64(f, "id", &id), f, kind, "id",
                                    kInt));
    ev.task.id = id;
    MAPS_RETURN_NOT_OK(RequireField(GetFiniteDouble(f, "ox", &ev.task.origin.x),
                                    f, kind, "ox", kNum));
    MAPS_RETURN_NOT_OK(RequireField(GetFiniteDouble(f, "oy", &ev.task.origin.y),
                                    f, kind, "oy", kNum));
    MAPS_RETURN_NOT_OK(
        RequireField(GetFiniteDouble(f, "dx", &ev.task.destination.x), f, kind,
                     "dx", kNum));
    MAPS_RETURN_NOT_OK(
        RequireField(GetFiniteDouble(f, "dy", &ev.task.destination.y), f, kind,
                     "dy", kNum));
    MAPS_RETURN_NOT_OK(OptionalField(GetFiniteDouble(f, "distance", &num),
                                     &present, f, kind, "distance", kNum));
    if (present) ev.task.distance = num;
    MAPS_RETURN_NOT_OK(OptionalField(GetFiniteDouble(f, "valuation", &num),
                                     &present, f, kind, "valuation", kNum));
    if (present) {
      ev.valuation = num;
      ev.has_valuation = true;
    }
    return ev;
  }
  if (kind == "add_worker") {
    ev.kind = ReplayEvent::Kind::kAddWorker;
    int64_t id = 0;
    MAPS_RETURN_NOT_OK(RequireField(GetInt64(f, "id", &id), f, kind, "id",
                                    kInt));
    ev.worker.id = id;
    MAPS_RETURN_NOT_OK(
        RequireField(GetFiniteDouble(f, "x", &ev.worker.location.x), f, kind,
                     "x", kNum));
    MAPS_RETURN_NOT_OK(
        RequireField(GetFiniteDouble(f, "y", &ev.worker.location.y), f, kind,
                     "y", kNum));
    MAPS_RETURN_NOT_OK(RequireField(GetFiniteDouble(f, "radius",
                                                    &ev.worker.radius),
                                    f, kind, "radius", kNum));
    int32_t duration = 0;
    MAPS_RETURN_NOT_OK(OptionalField(GetInt32(f, "duration", &duration),
                                     &present, f, kind, "duration", kInt32));
    if (present) ev.worker.duration = duration;
    return ev;
  }
  if (kind == "remove_worker") {
    ev.kind = ReplayEvent::Kind::kRemoveWorker;
    MAPS_RETURN_NOT_OK(RequireField(GetInt64(f, "id", &ev.id), f, kind, "id",
                                    kInt));
    return ev;
  }
  if (kind == "observe_acceptance") {
    ev.kind = ReplayEvent::Kind::kObserveAcceptance;
    MAPS_RETURN_NOT_OK(RequireField(GetInt64(f, "task", &ev.id), f, kind,
                                    "task", kInt));
    MAPS_RETURN_NOT_OK(RequireField(GetBool(f, "accepted", &ev.accepted), f,
                                    kind, "accepted", "a boolean"));
    return ev;
  }
  if (kind == "close_period") {
    ev.kind = ReplayEvent::Kind::kClosePeriod;
    return ev;
  }
  return Status::InvalidArgument("unknown event kind '" + std::string(kind) +
                                 "'");
}

}  // namespace

Result<ReplayEvent> ParseReplayEventLine(const std::string& line) {
  Fields fields;
  return ParseEventLine(line, &fields);
}

ReplayEventStream::ReplayEventStream(std::istream& in,
                                     const ReplayLoadOptions& options)
    : in_(in), options_(options) {}

void ReplayEventStream::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const auto det = obs::Determinism::kDeterministic;
  m_lines_ = registry->GetCounter("ingest.lines", det);
  m_bytes_ = registry->GetCounter("ingest.bytes", det);
  m_events_ = registry->GetCounter("ingest.events", det);
  m_skipped_ = registry->GetCounter("ingest.lines_skipped", det);
}

Result<bool> ReplayEventStream::Next(ReplayEvent* out) {
  if (done_) return false;
  while (std::getline(in_, line_)) {
    ++lineno_;
    if (m_lines_ != nullptr) m_lines_->Increment();
    // Payload bytes only (the stripped '\n' is not counted) — a pure
    // function of the log content, so the counter is deterministic.
    if (m_bytes_ != nullptr) {
      m_bytes_->Add(static_cast<int64_t>(line_.size()));
    }
    if (FaultInjector::Global().ShouldFire(FaultRule::Kind::kReplayReadError,
                                           -1,
                                           static_cast<int32_t>(lineno_))) {
      // An injected structural read failure: the stream is broken, not the
      // line — skip_bad_events does not paper over it.
      done_ = true;
      return Status::Internal("injected replay read error at line " +
                              std::to_string(lineno_));
    }
    size_t first = 0;
    while (first < line_.size() && IsSpace(line_[first])) ++first;
    if (first == line_.size() || line_[first] == '#') continue;
    auto ev = ParseEventLine(line_, &fields_);
    if (!ev.ok()) {
      if (options_.skip_bad_events) {
        ++stats_.lines_skipped;
        if (m_skipped_ != nullptr) m_skipped_->Increment();
        MAPS_LOG(Warning) << "replay log line " << lineno_
                          << " skipped: " << ev.status().message();
        continue;
      }
      done_ = true;
      return Status::InvalidArgument("line " + std::to_string(lineno_) + ": " +
                                     ev.status().message());
    }
    ++stats_.events_loaded;
    if (m_events_ != nullptr) m_events_->Increment();
    *out = std::move(ev).ValueOrDie();
    return true;
  }
  done_ = true;
  return false;
}

}  // namespace maps
