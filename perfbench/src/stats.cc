#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <numeric>

namespace perfbench {

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Median() const { return MedianOf(values_); }

Samples::Tail Samples::HighestSupportedTail() const {
  Tail tail;
  const size_t n = values_.size();
  if (n < 40) return tail;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t rank = n - 10;  // 1-based; exactly ten samples lie beyond
  tail.ok = true;
  tail.value = sorted[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return tail;
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

}  // namespace perfbench
