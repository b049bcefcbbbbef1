// Unit tests for the statistics toolkit.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace netmaster {
namespace {

TEST(StreamingStats, EmptyThrows) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_THROW(s.mean(), Error);
  EXPECT_THROW(s.min(), Error);
  EXPECT_THROW(s.max(), Error);
}

TEST(StreamingStats, SingleValue) {
  StreamingStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sum(), 42.0);
}

TEST(StreamingStats, KnownSample) {
  StreamingStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(StreamingStats, AllEqualSamples) {
  StreamingStats s;
  for (int i = 0; i < 100; ++i) s.add(3.25);
  EXPECT_DOUBLE_EQ(s.mean(), 3.25);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.25);
  EXPECT_DOUBLE_EQ(s.max(), 3.25);
  EXPECT_EQ(s.count(), 100u);
}

TEST(StreamingStats, NanRejected) {
  StreamingStats s;
  s.add(1.0);
  s.add(std::nan(""));
  s.add(3.0);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(s.rejected(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.sum(), 4.0);
  EXPECT_FALSE(std::isnan(s.variance()));
}

TEST(StreamingStats, AllNanBehavesAsEmpty) {
  StreamingStats s;
  s.add(std::nan(""));
  s.add(std::nan(""));
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.rejected(), 2u);
  EXPECT_THROW(s.mean(), Error);
}

TEST(StreamingStats, NegativeValues) {
  StreamingStats s;
  s.add(-5.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
}

TEST(Percentile, Basics) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.125), 1.5);  // interpolated
}

TEST(Percentile, SingleElementAndErrors) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.9), 7.0);
  EXPECT_THROW(percentile({}, 0.5), Error);
  EXPECT_THROW(percentile({1.0}, 1.5), Error);
  EXPECT_THROW(percentile({1.0}, -0.1), Error);
}

TEST(Percentile, NanDroppedBeforeRanking) {
  const std::vector<double> v{5.0, std::nan(""), 1.0, std::nan(""), 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  // An all-NaN sample is empty after filtering; q-range errors still
  // win over emptiness.
  EXPECT_THROW(percentile({std::nan("")}, 0.5), Error);
  EXPECT_THROW(percentile({}, 2.0), Error);
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, PerfectAnticorrelation) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Pearson, ZeroVarianceReturnsZero) {
  const std::vector<double> x{3, 3, 3};
  const std::vector<double> y{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
  EXPECT_DOUBLE_EQ(pearson(y, x), 0.0);
}

TEST(Pearson, Errors) {
  EXPECT_THROW(pearson({1.0}, {1.0, 2.0}), Error);
  EXPECT_THROW(pearson({}, {}), Error);
}

TEST(Pearson, BoundedInUnitInterval) {
  // Arbitrary vectors stay in [-1, 1].
  const std::vector<double> x{0.3, 9.1, 2.2, 7.7, 5.0, 0.1};
  const std::vector<double> y{4.4, 1.0, 8.8, 2.1, 9.9, 3.3};
  const double r = pearson(x, y);
  EXPECT_GE(r, -1.0);
  EXPECT_LE(r, 1.0);
}

TEST(EmpiricalCdf, DistinctValues) {
  const auto cdf = empirical_cdf({3.0, 1.0, 2.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_NEAR(cdf[0].fraction, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[2].value, 3.0);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

TEST(EmpiricalCdf, DuplicatesCollapse) {
  const auto cdf = empirical_cdf({1.0, 1.0, 2.0, 2.0});
  ASSERT_EQ(cdf.size(), 2u);
  EXPECT_DOUBLE_EQ(cdf[0].fraction, 0.5);
  EXPECT_DOUBLE_EQ(cdf[1].fraction, 1.0);
}

TEST(EmpiricalCdf, EmptyInput) {
  EXPECT_TRUE(empirical_cdf({}).empty());
}

TEST(EmpiricalCdf, SingleSample) {
  const auto cdf = empirical_cdf({4.2});
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 4.2);
  EXPECT_DOUBLE_EQ(cdf[0].fraction, 1.0);
}

TEST(EmpiricalCdf, AllEqualCollapsesToOnePoint) {
  const auto cdf = empirical_cdf({2.0, 2.0, 2.0, 2.0});
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 2.0);
  EXPECT_DOUBLE_EQ(cdf[0].fraction, 1.0);
}

TEST(EmpiricalCdf, NanDropped) {
  const auto cdf = empirical_cdf({std::nan(""), 1.0, std::nan(""), 2.0});
  ASSERT_EQ(cdf.size(), 2u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf[0].fraction, 0.5);
  EXPECT_TRUE(empirical_cdf({std::nan("")}).empty());
}

TEST(CdfQuantile, Lookup) {
  const auto cdf = empirical_cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf_quantile(cdf, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(cdf_quantile(cdf, 0.26), 2.0);
  EXPECT_DOUBLE_EQ(cdf_quantile(cdf, 1.0), 4.0);
  EXPECT_THROW(cdf_quantile({}, 0.5), Error);
}

}  // namespace
}  // namespace netmaster
