// Welford's online mean/variance accumulator: a test helper for moment
// checks on samplers and generated workloads.

#pragma once

#include <cmath>
#include <cstdint>

namespace maps {
namespace testing_util {

class OnlineMeanVar {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  int64_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

  void Reset() {
    n_ = 0;
    mean_ = 0.0;
    m2_ = 0.0;
  }

 private:
  int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace testing_util
}  // namespace maps
