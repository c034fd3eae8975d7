#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "checks.h"
#include "obs/metrics.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (WAL files, crash images).
  std::string work_dir;
};

/// What one workload run produced. The workload fills its own
/// end-to-end values (work_per_s, fresh_p50_ms, qerror) and, in the
/// traced run, its per-layer values; main adds setup_s, peak_rss_mb and
/// the trace-derived metrics.
struct RunResult {
  Checker checker;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Samples setup_seconds;  ///< one sample per program set-up
  MetricMap e2e;
  MetricMap layer;
};

void RunRefreshSweep(const RunOptions& options, Tracer* tracer,
                     RunResult* result);
void RunServiceMix(const RunOptions& options, Tracer* tracer,
                   RunResult* result);
void RunIngestChurn(const RunOptions& options, Tracer* tracer,
                    RunResult* result);

/// Number of program set-ups each run times, at least (setup_s is their
/// median). Only the program's own calls are timed; the benchmark makes
/// the inputs before the stopwatch starts.
inline constexpr int kSetups = 51;

/// Per-layer accelerator figures read from registry snapshots taken
/// around the measured phase: scans completed, mean simulated device
/// seconds per scan, and bins allocated per scan (sim.dram.region_bins).
void AddRegistryLayerMetrics(const dphist::obs::MetricsSnapshot& before,
                             const dphist::obs::MetricsSnapshot& after,
                             RunResult* result);

/// Sets a metric with its sample count (or base) as a note.
void SetMetric(MetricMap* map, const std::string& name, double value,
               const std::string& unit, const std::string& note = "");

/// Median of `samples` in the given scale (1e3 for ms, 1e6 for us), with
/// n recorded as the note.
void SetMedian(MetricMap* map, const std::string& name, const Samples& samples,
               double scale, const std::string& unit);

/// The highest percentile with ten samples beyond it (see Samples);
/// records percentile and n in the note. Sets nothing when the sample is
/// too small to have a tail.
void SetTail(MetricMap* map, const std::string& name, const Samples& samples,
             double scale, const std::string& unit);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
