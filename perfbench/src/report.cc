#include <cstdio>
#include <string>

#include "workloads.h"

namespace perfbench {

void SetMetric(MetricMap* map, const std::string& name, double value,
               const std::string& unit, const std::string& note) {
  (*map)[name] = Metric{value, unit, note};
}

void SetMedian(MetricMap* map, const std::string& name, const Samples& samples,
               double scale, const std::string& unit) {
  SetMetric(map, name, samples.Median() * scale, unit,
            "median, n=" + std::to_string(samples.n()));
}

void SetTail(MetricMap* map, const std::string& name, const Samples& samples,
             double scale, const std::string& unit) {
  const Samples::Tail tail = samples.HighestSupportedTail();
  if (!tail.ok) return;
  char note[96];
  std::snprintf(note, sizeof(note), "p%.2f, n=%zu", tail.percentile,
                samples.n());
  SetMetric(map, name, tail.value * scale, unit, note);
}

void AddRegistryLayerMetrics(const dphist::obs::MetricsSnapshot& before,
                             const dphist::obs::MetricsSnapshot& after,
                             RunResult* result) {
  const dphist::obs::MetricsSnapshot diff =
      dphist::obs::DiffSnapshots(before, after);
  auto histogram = [&](const char* name) {
    auto it = diff.histograms.find(name);
    return it == diff.histograms.end()
               ? dphist::obs::MetricsSnapshot::HistogramSummary{}
               : it->second;
  };
  const auto device_us = histogram("accel.scan.device_us");
  const auto region_bins = histogram("sim.dram.region_bins");
  const double scans = static_cast<double>(device_us.count);
  const std::string base = "per scan, " + std::to_string(device_us.count) +
                           " scans";
  SetMetric(&result->layer, "accel.scans", scans, "count");
  SetMetric(&result->layer, "accel.device_s",
            scans > 0 ? static_cast<double>(device_us.sum) * 1e-6 / scans : 0,
            "s", base);
  SetMetric(&result->layer, "sim.region_bins",
            scans > 0 ? static_cast<double>(region_bins.sum) / scans : 0,
            "bins", base);
}

}  // namespace perfbench
