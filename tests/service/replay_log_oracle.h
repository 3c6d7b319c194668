// The map-based replay line parser that service/replay_log.cc used before
// its scanner moved to string_view fields and std::from_chars numbers, kept
// verbatim as a test oracle: replay_log_test.cc checks that the serving
// parser accepts exactly the lines this one accepts, with byte-identical
// error messages and bit-identical event fields.

#pragma once

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "service/replay_log.h"
#include "util/result.h"

namespace maps {
namespace replay_log_oracle {

/// Minimal flat-JSON-object scanner: {"key": value, ...} where value is a
/// double-quoted string (no escapes needed by the schema), a number, true,
/// false, or null. Nested objects/arrays are rejected — the event schema is
/// flat by design.
inline Result<std::map<std::string, std::string>> ParseFlatJson(
    const std::string& line) {
  std::map<std::string, std::string> out;
  size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
  };
  const auto fail = [&](const std::string& what) {
    return Status::InvalidArgument(what + " at column " + std::to_string(i) +
                                   " of: " + line);
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
      if (key_end == std::string::npos) return fail("unterminated key");
      const std::string key = line.substr(i + 1, key_end - i - 1);
      i = key_end + 1;
      skip_ws();
      if (i >= line.size() || line[i] != ':') return fail("expected ':'");
      ++i;
      skip_ws();
      std::string value;
      if (i < line.size() && line[i] == '"') {
        const size_t val_end = line.find('"', i + 1);
        if (val_end == std::string::npos) return fail("unterminated string");
        value = line.substr(i + 1, val_end - i - 1);
        i = val_end + 1;
      } else {
        const size_t start = i;
        while (i < line.size() && line[i] != ',' && line[i] != '}' &&
               !std::isspace(static_cast<unsigned char>(line[i]))) {
          ++i;
        }
        value = line.substr(start, i - start);
        if (value.empty()) return fail("expected value");
        if (value == "null") value.clear();
        const char c = value.empty() ? '\0' : value[0];
        if (!value.empty() && c != 't' && c != 'f' && c != '-' &&
            !std::isdigit(static_cast<unsigned char>(c))) {
          return fail("unsupported value '" + value + "'");
        }
      }
      if (out.count(key) > 0) return fail("duplicate key '" + key + "'");
      out[key] = value;
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
  skip_ws();
  if (i != line.size()) return fail("trailing characters");
  return out;
}

using Fields = std::map<std::string, std::string>;

/// Tri-state field decode: distinguishes an absent (or null) key from a
/// present but malformed value so errors can name what went wrong.
enum class Field { kOk, kMissing, kBad };

/// Full-string strtod that additionally rejects NaN and infinity (both
/// literal "nan"/"inf" spellings and overflowing decimals like 1e999).
inline bool ParseFiniteDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// Full-string strtoll: rejects non-integral values ("1.5", "2e3"),
/// overflow beyond int64, and any trailing junk. Never routes through a
/// double, so large ids keep every bit.
inline bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

inline Field GetFiniteDouble(const Fields& f, const std::string& key,
                             double* out) {
  const auto it = f.find(key);
  if (it == f.end() || it->second.empty()) return Field::kMissing;
  return ParseFiniteDouble(it->second, out) ? Field::kOk : Field::kBad;
}

inline Field GetInt64(const Fields& f, const std::string& key, int64_t* out) {
  const auto it = f.find(key);
  if (it == f.end() || it->second.empty()) return Field::kMissing;
  return ParseInt64(it->second, out) ? Field::kOk : Field::kBad;
}

inline Field GetInt32(const Fields& f, const std::string& key, int32_t* out) {
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

inline Field GetBool(const Fields& f, const std::string& key, bool* out) {
  const auto it = f.find(key);
  if (it == f.end() || it->second.empty()) return Field::kMissing;
  if (it->second == "true" || it->second == "1") {
    *out = true;
    return Field::kOk;
  }
  if (it->second == "false" || it->second == "0") {
    *out = false;
    return Field::kOk;
  }
  return Field::kBad;
}

inline Status BadField(const Fields& f, const std::string& event,
                const std::string& key, const char* expect) {
  return Status::InvalidArgument(event + " event field '" + key +
                                 "' must be " + expect + ", got '" +
                                 f.at(key) + "'");
}

/// Maps a required field's decode result to OK or an error naming the
/// event, the field, and (for malformed values) the rejected text.
inline Status RequireField(Field r, const Fields& f, const std::string& event,
                    const std::string& key, const char* expect) {
  if (r == Field::kOk) return Status::OK();
  if (r == Field::kMissing) {
    return Status::InvalidArgument(event + " event is missing required field '" +
                                   key + "' (" + expect + ")");
  }
  return BadField(f, event, key, expect);
}

/// Like RequireField but tolerates an absent key; `present` reports
/// whether the value was decoded. A present-but-malformed value still
/// fails — optional fields are not a license for garbage.
inline Status OptionalField(Field r, bool* present, const Fields& f,
                     const std::string& event, const std::string& key,
                     const char* expect) {
  *present = r == Field::kOk;
  if (r == Field::kBad) return BadField(f, event, key, expect);
  return Status::OK();
}

inline Result<ReplayEvent> ParseReplayEventLine(const std::string& line) {
  auto fields_or = ParseFlatJson(line);
  MAPS_RETURN_NOT_OK(fields_or.status());
  const Fields& f = std::move(fields_or).ValueOrDie();

  const auto kind_it = f.find("event");
  if (kind_it == f.end()) {
    return Status::InvalidArgument("missing \"event\" field: " + line);
  }
  const std::string& kind = kind_it->second;
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
  return Status::InvalidArgument("unknown event kind '" + kind + "'");
}

}  // namespace replay_log_oracle
}  // namespace maps
