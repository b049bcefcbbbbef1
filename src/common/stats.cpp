#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace netmaster {

void StreamingStats::add(double x) {
  if (std::isnan(x)) {
    ++rejected_;
    return;
  }
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double StreamingStats::mean() const {
  NM_REQUIRE(count_ > 0, "mean of empty sample");
  return mean_;
}

double StreamingStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

double StreamingStats::min() const {
  NM_REQUIRE(count_ > 0, "min of empty sample");
  return min_;
}

double StreamingStats::max() const {
  NM_REQUIRE(count_ > 0, "max of empty sample");
  return max_;
}

double percentile(std::vector<double> values, double q) {
  NM_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q must be in [0,1]");
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](double v) { return std::isnan(v); }),
               values.end());
  NM_REQUIRE(!values.empty(), "percentile of empty sample");
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  NM_REQUIRE(x.size() == y.size(), "pearson inputs must be equal length");
  NM_REQUIRE(!x.empty(), "pearson of empty vectors");
  const auto n = static_cast<double>(x.size());
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<CdfPoint> empirical_cdf(std::vector<double> values) {
  std::vector<CdfPoint> cdf;
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](double v) { return std::isnan(v); }),
               values.end());
  if (values.empty()) return cdf;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Collapse runs of equal values into one point at the run's end.
    if (i + 1 < values.size() && values[i + 1] == values[i]) continue;
    cdf.push_back({values[i], static_cast<double>(i + 1) / n});
  }
  return cdf;
}

double cdf_quantile(const std::vector<CdfPoint>& cdf, double q) {
  NM_REQUIRE(!cdf.empty(), "quantile of empty CDF");
  NM_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  for (const CdfPoint& p : cdf) {
    if (p.fraction >= q) return p.value;
  }
  return cdf.back().value;
}

}  // namespace netmaster
