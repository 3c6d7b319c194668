#include "rng/distributions.h"

#include <gtest/gtest.h>

#include <cmath>

#include "../online_mean_var.h"

namespace maps {
namespace {

using testing_util::OnlineMeanVar;

TEST(StdNormalTest, CdfKnownValues) {
  EXPECT_NEAR(StdNormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(StdNormalCdf(1.0), 0.8413447460685429, 1e-9);
  EXPECT_NEAR(StdNormalCdf(-1.96), 0.024997895, 1e-6);
}

TEST(StdNormalTest, QuantileInvertsCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const double x = StdNormalQuantile(p);
    EXPECT_NEAR(StdNormalCdf(x), p, 1e-8) << "p=" << p;
  }
}

TEST(StdNormalTest, PdfIntegratesToCdfDerivative) {
  // Central difference of the CDF should match the density.
  for (double x : {-2.0, -0.5, 0.0, 0.7, 1.9}) {
    const double h = 1e-5;
    const double numeric = (StdNormalCdf(x + h) - StdNormalCdf(x - h)) / (2 * h);
    EXPECT_NEAR(numeric, StdNormalPdf(x), 1e-6);
  }
}

TEST(SampleNormalTest, MomentsMatch) {
  Rng rng(1);
  OnlineMeanVar acc;
  for (int i = 0; i < 200000; ++i) acc.Add(SampleNormal(rng, 3.0, 2.0));
  EXPECT_NEAR(acc.mean(), 3.0, 0.03);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.03);
}

TEST(SampleExponentialTest, MomentsMatch) {
  Rng rng(2);
  OnlineMeanVar acc;
  for (int i = 0; i < 200000; ++i) acc.Add(SampleExponential(rng, 2.0));
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
  EXPECT_NEAR(acc.stddev(), 0.5, 0.01);
}

TEST(SampleExponentialTest, NonNegative) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(SampleExponential(rng, 0.5), 0.0);
  }
}

class TruncatedNormalParamTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(TruncatedNormalParamTest, SamplesRespectBounds) {
  const auto [mean, sigma] = GetParam();
  TruncatedNormal tn(mean, sigma, 1.0, 5.0);
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    const double x = tn.Sample(rng);
    ASSERT_GE(x, 1.0);
    ASSERT_LE(x, 5.0);
  }
}

TEST_P(TruncatedNormalParamTest, EmpiricalCdfMatchesAnalytic) {
  const auto [mean, sigma] = GetParam();
  TruncatedNormal tn(mean, sigma, 1.0, 5.0);
  Rng rng(43);
  const int n = 100000;
  std::vector<double> samples(n);
  for (auto& s : samples) s = tn.Sample(rng);
  for (double q : {1.5, 2.0, 2.5, 3.0, 4.0, 4.5}) {
    const double empirical =
        static_cast<double>(std::count_if(samples.begin(), samples.end(),
                                          [&](double s) { return s <= q; })) /
        static_cast<double>(n);
    EXPECT_NEAR(empirical, tn.Cdf(q), 0.01)
        << "mean=" << mean << " sigma=" << sigma << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TruncatedNormalParamTest,
    ::testing::Values(std::make_tuple(1.0, 0.5), std::make_tuple(2.0, 1.0),
                      std::make_tuple(3.0, 1.5), std::make_tuple(2.5, 2.5),
                      std::make_tuple(0.0, 1.0),   // mass mostly left of lo
                      std::make_tuple(6.0, 1.0))); // mass mostly right of hi

TEST(TruncatedNormalTest, CdfBoundaries) {
  TruncatedNormal tn(2.0, 1.0, 1.0, 5.0);
  EXPECT_DOUBLE_EQ(tn.Cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(tn.Cdf(1.0), 0.0);
  EXPECT_DOUBLE_EQ(tn.Cdf(5.0), 1.0);
  EXPECT_DOUBLE_EQ(tn.Cdf(9.0), 1.0);
  EXPECT_GT(tn.Cdf(3.0), tn.Cdf(2.0));  // strictly increasing inside
}

TEST(TruncatedNormalTest, PdfZeroOutside) {
  TruncatedNormal tn(2.0, 1.0, 1.0, 5.0);
  EXPECT_DOUBLE_EQ(tn.Pdf(0.9), 0.0);
  EXPECT_DOUBLE_EQ(tn.Pdf(5.1), 0.0);
  EXPECT_GT(tn.Pdf(2.0), 0.0);
}

TEST(TruncatedNormalTest, PdfIntegratesToOne) {
  TruncatedNormal tn(2.0, 1.0, 1.0, 5.0);
  double integral = 0.0;
  const int steps = 4000;
  for (int i = 0; i < steps; ++i) {
    const double x = 1.0 + 4.0 * (i + 0.5) / steps;
    integral += tn.Pdf(x) * 4.0 / steps;
  }
  EXPECT_NEAR(integral, 1.0, 1e-6);
}

}  // namespace
}  // namespace maps
