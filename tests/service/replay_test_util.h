// Reads a whole replay log into memory through ReplayEventStream, for tests
// that compare or count every event of a small log.

#pragma once

#include <istream>
#include <utility>
#include <vector>

#include "service/replay_log.h"
#include "util/result.h"

namespace maps {
namespace testing_util {

/// Drains `in` through a ReplayEventStream. A malformed line fails with its
/// line number unless options.skip_bad_events drops it; `stats`, when set,
/// receives the stream's final counters.
inline Result<std::vector<ReplayEvent>> ReadReplayEvents(
    std::istream& in, const ReplayLoadOptions& options = {},
    ReplayLoadStats* stats = nullptr) {
  ReplayEventStream stream(in, options);
  std::vector<ReplayEvent> events;
  ReplayEvent ev;
  while (true) {
    auto more = stream.Next(&ev);
    MAPS_RETURN_NOT_OK(more.status());
    if (!more.ValueOrDie()) break;
    events.push_back(std::move(ev));
  }
  if (stats != nullptr) *stats = stream.stats();
  return events;
}

}  // namespace testing_util
}  // namespace maps
