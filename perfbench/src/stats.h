#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic host stopwatch (steady_clock).
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// A set of timing (or other) samples. Quantiles are reported only where
/// the sample supports them: the median always, a tail only when at
/// least ten samples lie beyond it.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t n() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  /// Interpolated median; 0 when empty.
  double Median() const;

  /// The highest percentile with at least ten samples beyond it: the
  /// value at rank n - 10 (1-based) of the sorted samples, reported as
  /// percentile 100 * (n - 10) / n. Requires n >= 40 (with fewer samples
  /// that percentile would be no tail); `ok` is false otherwise.
  struct Tail {
    bool ok = false;
    double value = 0;
    double percentile = 0;
  };
  Tail HighestSupportedTail() const;

 private:
  std::vector<double> values_;
};

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count / base, printed on the info line
};

/// Metrics by name.
using MetricMap = std::map<std::string, Metric>;

/// Peak resident set size of this process, in MB (getrusage).
double PeakRssMb();

/// Median of a vector (interpolated); 0 when empty.
double MedianOf(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
