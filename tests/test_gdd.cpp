#include "analytics/gdd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace fascia::analytics {
namespace {

TEST(Gdd, HistogramBinsByRoundedDegree) {
  auto hist = gdd_histogram({0.0, 1.0, 1.2, 2.0, 2.0, 4.9});
  ASSERT_EQ(hist.size(), 3u);  // degrees 1, 2, 5
  EXPECT_DOUBLE_EQ(hist[1], 2.0);  // 1.0 and 1.2
  EXPECT_DOUBLE_EQ(hist[2], 2.0);
  EXPECT_EQ(hist.count(3), 0u);
  EXPECT_DOUBLE_EQ(hist[5], 1.0);  // 4.9 rounds to 5
}

TEST(Gdd, HistogramExcludesZeroDegrees) {
  const auto hist = gdd_histogram({0.0, 0.4, -1.0});
  EXPECT_TRUE(hist.empty());
}

TEST(Gdd, HistogramIsSparseForHugeDegrees) {
  // Real graphlet degrees reach 1e9; the histogram must stay O(#distinct).
  const auto hist = gdd_histogram({1e9, 1e9, 3.0});
  EXPECT_EQ(hist.size(), 2u);
  EXPECT_DOUBLE_EQ(hist.at(1000000000), 2.0);
}

TEST(Gdd, HistogramMatchesPerElementInsertion) {
  // Negatives, zeros, x.5 values (llround rounds half away from zero),
  // repeats in shuffled order, and degrees past 2^53.
  std::vector<double> degrees = {-3.5, -0.5, 0.0, 0.49, 0.5, 1.5, 2.5,
                                 2.4999, 7.0, 1e9, 1e9 + 0.5, 0x1p60,
                                 0x1p60, 3.0, 1.5, -2.0, 4.5};
  for (int i = 0; i < 500; ++i) {
    degrees.push_back(static_cast<double>((i * 7919) % 97) / 2.0);
  }
  GddHistogram expected;
  for (const double degree : degrees) {
    const auto j = static_cast<std::int64_t>(std::llround(degree));
    if (j > 0) expected[j] += 1.0;
  }
  EXPECT_EQ(gdd_histogram(degrees), expected);
  // Halves round away from zero; -0.5 rounds to -1 and is dropped.
  const GddHistogram halves = {{1, 1.0}, {3, 1.0}};
  EXPECT_EQ(gdd_histogram({0.5, 2.5, -0.5}), halves);
}

TEST(Gdd, AgreementWithHugeDegreesIsCheap) {
  const std::vector<double> a = {1e9, 2e9, 5.0};
  const std::vector<double> b = {1e9, 2e9, 5.0};
  EXPECT_DOUBLE_EQ(gdd_agreement(a, b), 1.0);
}

TEST(Gdd, AgreementOfIdenticalIsOne) {
  const std::vector<double> degrees = {1.0, 2.0, 2.0, 5.0, 9.0};
  EXPECT_DOUBLE_EQ(gdd_agreement(degrees, degrees), 1.0);
}

TEST(Gdd, AgreementIsSymmetric) {
  const std::vector<double> a = {1.0, 1.0, 3.0};
  const std::vector<double> b = {2.0, 4.0, 4.0, 8.0};
  EXPECT_DOUBLE_EQ(gdd_agreement(a, b), gdd_agreement(b, a));
}

TEST(Gdd, AgreementBoundedBelowOneForDifferent) {
  const std::vector<double> a = {1.0, 1.0, 1.0};
  const std::vector<double> b = {50.0, 50.0, 50.0};
  const double agreement = gdd_agreement(a, b);
  EXPECT_LT(agreement, 1.0);
  EXPECT_GE(agreement, 0.0);
}

TEST(Gdd, DisjointSupportGivesMinimalAgreement) {
  // All mass at degree 1 vs all at degree 2: ||N1-N2|| = sqrt(2).
  const std::vector<double> a = {1.0, 1.0};
  const std::vector<double> b = {2.0, 2.0};
  EXPECT_NEAR(gdd_agreement(a, b), 0.0, 1e-12);
}

TEST(Gdd, ScalingInsideOneBinDoesNotMatter) {
  // d(j)/j normalization: distribution shape matters, vertex count
  // does not.
  const std::vector<double> small = {1.0, 2.0};
  const std::vector<double> big = {1.0, 1.0, 1.0, 2.0, 2.0, 2.0};
  EXPECT_NEAR(gdd_agreement(small, big), 1.0, 1e-12);
}

TEST(Gdd, AgreementFromHistogramsDirect) {
  GddHistogram hist_a = {{1, 4.0}};
  GddHistogram hist_b = {{1, 4.0}};
  EXPECT_DOUBLE_EQ(gdd_agreement_from_histograms(hist_a, hist_b), 1.0);
  GddHistogram hist_c = {{2, 4.0}};
  EXPECT_NEAR(gdd_agreement_from_histograms(hist_a, hist_c), 0.0, 1e-12);
}

TEST(Gdd, CloserDistributionsScoreHigher) {
  const std::vector<double> base = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> close = {1.0, 2.0, 3.0, 5.0};
  const std::vector<double> far = {10.0, 20.0, 30.0, 40.0};
  EXPECT_GT(gdd_agreement(base, close), gdd_agreement(base, far));
}

}  // namespace
}  // namespace fascia::analytics
