// Statistics helpers used by the benchmark harnesses and metrics code.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace rtcm {

/// Streaming accumulator: count / mean / min / max / variance without
/// retaining samples (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double sum() const { return sum_; }

  /// Merge another accumulator into this one.
  void merge(const OnlineStats& o);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Sample-retaining collector for percentiles and full summaries.
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// p in [0,100]; linear interpolation between closest ranks.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Fixed-width histogram over [lo, hi) with `bins` buckets plus overflow.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  [[nodiscard]] std::size_t bucket(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] std::size_t total() const { return total_; }
  /// One-line ASCII sparkline of bucket densities.
  [[nodiscard]] std::string render() const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace rtcm
