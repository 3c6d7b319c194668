#include "sim/replay_export.h"

#include <charconv>
#include <cstdint>

namespace maps {

namespace {

/// %.17g: shortest spelling that still round-trips every double through
/// the replay parser's strtod bit-identically. The standard defines
/// to_chars' general format at precision 17 as exactly that printf
/// spelling; written straight to the stream, with no locale and no string.
struct Num {
  double v;
};

std::ostream& operator<<(std::ostream& out, Num n) {
  char buf[32];  // the longest spelling, "-2.2250738585072014e-308", is 24
  const auto r = std::to_chars(buf, buf + sizeof(buf), n.v,
                               std::chars_format::general, 17);
  return out.write(buf, r.ptr - buf);
}

struct Int {
  int64_t v;
};

std::ostream& operator<<(std::ostream& out, Int n) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), n.v);
  return out.write(buf, r.ptr - buf);
}

}  // namespace

Status WriteReplayLog(const Workload& workload, std::ostream& out) {
  MAPS_RETURN_NOT_OK(ValidateWorkload(workload));
  out << "# " << workload.name << ": " << workload.tasks.size()
      << " task(s), " << workload.workers.size() << " worker(s), "
      << workload.num_periods << " period(s)\n";
  size_t next_task = 0;
  size_t next_worker = 0;
  for (int32_t t = 0; t < workload.num_periods; ++t) {
    while (next_worker < workload.workers.size() &&
           workload.workers[next_worker].period == t) {
      const Worker& w = workload.workers[next_worker];
      out << "{\"event\":\"add_worker\",\"id\":" << Int{w.id}
          << ",\"x\":" << Num{w.location.x} << ",\"y\":" << Num{w.location.y}
          << ",\"radius\":" << Num{w.radius};
      if (w.duration != Worker::kUnlimitedDuration) {
        out << ",\"duration\":" << Int{w.duration};
      }
      out << "}\n";
      ++next_worker;
    }
    while (next_task < workload.tasks.size() &&
           workload.tasks[next_task].period == t) {
      const Task& task = workload.tasks[next_task];
      out << "{\"event\":\"submit_task\",\"id\":" << Int{task.id}
          << ",\"ox\":" << Num{task.origin.x}
          << ",\"oy\":" << Num{task.origin.y}
          << ",\"dx\":" << Num{task.destination.x}
          << ",\"dy\":" << Num{task.destination.y}
          << ",\"distance\":" << Num{task.distance}
          << ",\"valuation\":" << Num{workload.valuations[next_task]}
          << "}\n";
      ++next_task;
    }
    out << "{\"event\":\"close_period\"}\n";
  }
  if (!out) return Status::Internal("replay log write failed");
  return Status::OK();
}

}  // namespace maps
