// Small statistics toolkit: streaming moments, percentiles and
// empirical CDFs. Used by trace profiling (Fig. 1/2), the mining layer,
// and every bench reporter.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace netmaster {

/// Streaming mean/variance/min/max over doubles (Welford's algorithm).
/// NaN samples are rejected (counted via rejected(), never folded in)
/// so one poisoned measurement cannot corrupt the whole series — the
/// contract the obs-layer histograms rely on.
class StreamingStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  /// NaN samples seen and ignored by add().
  std::size_t rejected() const { return rejected_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  std::size_t rejected_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a sample (linear interpolation between order statistics).
/// q in [0, 1]. Sorts a copy; fine for bench-sized samples. NaN values
/// are dropped first (they have no order); an all-NaN sample is empty.
double percentile(std::vector<double> values, double q);

/// Pearson correlation coefficient of two equal-length vectors (the
/// paper's Eq. 1). Returns 0 when either vector has zero variance
/// (the paper's usage vectors are all-zero overnight for some users;
/// correlation against a constant is undefined, 0 is the neutral choice).
double pearson(const std::vector<double>& x, const std::vector<double>& y);

/// One point of an empirical CDF.
struct CdfPoint {
  double value = 0.0;     ///< sample value
  double fraction = 0.0;  ///< P(X <= value)
};

/// Empirical CDF of a sample, one point per distinct value. NaN values
/// are dropped first.
std::vector<CdfPoint> empirical_cdf(std::vector<double> values);

/// Smallest value v such that P(X <= v) >= q under the empirical CDF.
double cdf_quantile(const std::vector<CdfPoint>& cdf, double q);

}  // namespace netmaster
