#include "sim/replay_export.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "../test_util.h"
#include "rng/random.h"

namespace maps {
namespace {

std::string Printf17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Writes one submit_task line per value (the value as the task's
/// destination x and its valuation, neither of which validation
/// constrains) and checks every line against the snprintf spelling the
/// log format is defined by.
void ExpectPrintfSpelling(const std::vector<double>& values) {
  auto grid = GridPartition::Make(Rect{0, 0, 10, 10}, 1, 1).ValueOrDie();
  Workload w(grid, testing_util::TableOneOracle(1));
  w.num_periods = 1;
  for (size_t i = 0; i < values.size(); ++i) {
    Task task = testing_util::MakeTask(w.grid, static_cast<TaskId>(i),
                                       {0.1, 7.0 / 3.0}, 2.5);
    task.destination = {values[i], 1e22};
    w.tasks.push_back(task);
    w.valuations.push_back(values[i]);
  }
  std::ostringstream log;
  ASSERT_TRUE(WriteReplayLog(w, log).ok());

  std::istringstream lines(log.str());
  std::string line;
  std::getline(lines, line);  // header comment
  for (size_t i = 0; i < values.size(); ++i) {
    const Task& t = w.tasks[i];
    char id[24];
    std::snprintf(id, sizeof(id), "%" PRId64, static_cast<int64_t>(t.id));
    const std::string expected =
        std::string("{\"event\":\"submit_task\",\"id\":") + id +
        ",\"ox\":" + Printf17g(t.origin.x) + ",\"oy\":" +
        Printf17g(t.origin.y) + ",\"dx\":" + Printf17g(values[i]) +
        ",\"dy\":" + Printf17g(1e22) + ",\"distance\":" +
        Printf17g(t.distance) + ",\"valuation\":" + Printf17g(values[i]) +
        "}";
    ASSERT_TRUE(std::getline(lines, line));
    ASSERT_EQ(line, expected) << "value " << i;
  }
}

TEST(ReplayExportTest, DoublesAreSpelledAsPrintfG17OnEdgeValues) {
  ExpectPrintfSpelling({
      0.0,
      -0.0,
      0.1,
      -0.1,
      1.0,
      -42.0,
      100.0,
      1e15,
      1e16,
      1e17,
      1e21,
      1e22,
      1e23,
      123456789012345678.0,
      1.0 / 3.0,
      1e-5,
      DBL_MIN,
      -DBL_MIN,
      DBL_MIN / 3.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MAX,
      -DBL_MAX,
      DBL_EPSILON,
      std::nextafter(1.0, 2.0),
      std::nextafter(0.1, 1.0),
  });
}

TEST(ReplayExportTest, DoublesAreSpelledAsPrintfG17OnSeededRandomDoubles) {
  // Values as the generators emit them (coordinates, valuations), integral
  // values, and arbitrary finite bit patterns across the exponent range.
  Rng rng(20181);
  std::vector<double> values;
  while (values.size() < 30000) {
    values.push_back(rng.NextDouble(-1000.0, 1000.0));
    values.push_back(std::floor(rng.NextDouble(-1e6, 1e6)));
    const uint64_t bits = rng.NextUint64();
    double any;
    std::memcpy(&any, &bits, sizeof(any));
    if (std::isfinite(any)) values.push_back(any);
  }
  ExpectPrintfSpelling(values);
}

}  // namespace
}  // namespace maps
