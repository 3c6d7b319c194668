#include "stats/hoeffding.h"

#include <gtest/gtest.h>

#include "../online_mean_var.h"

namespace maps {
namespace {

using testing_util::OnlineMeanVar;

TEST(HoeffdingTest, LadderSizeMatchesExampleFour) {
  // Example 4: p_min=1, p_max=5, alpha=0.5 => k = 4.
  EXPECT_EQ(LadderSize(1.0, 5.0, 0.5), 4);
}

TEST(HoeffdingTest, LadderSizeEdgeCases) {
  EXPECT_EQ(LadderSize(2.0, 2.0, 0.5), 1);  // degenerate interval
  EXPECT_EQ(LadderSize(5.0, 1.0, 0.5), 1);  // inverted interval
  EXPECT_GT(LadderSize(1.0, 100.0, 0.1), LadderSize(1.0, 100.0, 1.0));
}

TEST(HoeffdingTest, ProbeBudgetMatchesExampleFour) {
  // Example 4: p=1, eps=0.2, delta=0.01, k=4 => h(p) = 335.
  EXPECT_EQ(ProbeBudget(1.0, 0.2, 0.01, 4), 335);
}

TEST(HoeffdingTest, ProbeBudgetScalesQuadratically) {
  const int64_t h1 = ProbeBudget(1.0, 0.2, 0.01, 4);
  const int64_t h2 = ProbeBudget(2.0, 0.2, 0.01, 4);
  // h(p) ~ p^2, so doubling the price roughly quadruples the budget.
  EXPECT_NEAR(static_cast<double>(h2) / static_cast<double>(h1), 4.0, 0.05);
}

TEST(HoeffdingTest, ProbeBudgetGrowsAsEpsShrinks) {
  EXPECT_GT(ProbeBudget(1.0, 0.1, 0.01, 4), ProbeBudget(1.0, 0.2, 0.01, 4));
  EXPECT_GT(ProbeBudget(1.0, 0.2, 0.001, 4), ProbeBudget(1.0, 0.2, 0.01, 4));
}

TEST(HoeffdingTest, TailProbDecreasesWithSamples) {
  EXPECT_LT(HoeffdingTailProb(0.1, 1000), HoeffdingTailProb(0.1, 100));
  EXPECT_LE(HoeffdingTailProb(0.5, 1000), 1e-100);
}

TEST(HoeffdingTest, SampleCountInvertsTailProb) {
  const int64_t n = HoeffdingSampleCount(0.05, 0.01);
  EXPECT_LE(HoeffdingTailProb(0.05, n), 0.01 + 1e-12);
  EXPECT_GT(HoeffdingTailProb(0.05, n - 10), 0.01);
}

TEST(OnlineStatsTest, WelfordMeanVariance) {
  OnlineMeanVar acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(x);
  EXPECT_EQ(acc.count(), 8);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  acc.Reset();
  EXPECT_EQ(acc.count(), 0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

}  // namespace
}  // namespace maps
