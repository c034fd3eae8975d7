// Benchmark driver: runs one named workload for a fixed time and prints
// every metric by name and unit, then one JSON result line.
//
//   perfbench --workload <refresh_sweep|service_mix|ingest_churn>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans
// around every call into the program and reports the per-layer metrics
// (plus the traced run's own end-to-end figures, from which the tracing
// overhead is read against an untraced run).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},     {"peak_rss_mb", "MB"}, {"work_per_s", "1/s"},
    {"fresh_p50_ms", "ms"}, {"qerror", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"db.refresh_tables_s", "s"},
    {"accel.narrow_ns_per_row", "ns/row"},
    {"accel.wide_ns_per_bin", "ns/bin"},
    {"accel.scans", "count"},
    {"accel.device_s", "s"},
    {"sim.region_bins", "bins"},
    {"cluster.split_s", "s"},
    {"cluster.refresh_s", "s"},
    {"cluster.merge_ms", "ms"},
    {"svc.requests", "count"},
    {"svc.submit_us", "us"},
    {"svc.queue_ms", "ms"},
    {"svc.serve_ms", "ms"},
    {"svc.scan_ms", "ms"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.coalesced_ratio", "ratio"},
    {"svc.scans_per_request", "ratio"},
    {"svc.read_p50_ms", "ms"},
    {"svc.tail_ms", "ms"},
    {"ingest.batches", "count"},
    {"ingest.absorb_batch_ms", "ms"},
    {"ingest.rescan_batch_ms", "ms"},
    {"ingest.rescans", "count"},
    {"ingest.snapshot_us", "us"},
    {"ingest.tail_ms", "ms"},
    {"persist.append_us", "us"},
    {"persist.checkpoint_ms", "ms"},
    {"persist.appends_per_batch", "ratio"},
    {"persist.wal_bytes", "B"},
    {"persist.snapshot_bytes", "B"},
    {"persist.stored_bytes_per_op", "B/op"},
    {"persist.replayed_events", "count"},
    {"persist.recover_ms", "ms"},
    {"self.db_s", "s"},
    {"self.cluster_s", "s"},
    {"self.svc_s", "s"},
    {"self.ingest_s", "s"},
    {"self.persist_s", "s"},
    {"trace.spans", "count"},
    {"trace.work_per_s", "1/s"},
    {"trace.fresh_p50_ms", "ms"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <refresh_sweep|service_mix|"
               "ingest_churn> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n");
  return 2;
}

void PrintNumber(double v) {
  // Full precision, and never a non-JSON token.
  if (!std::isfinite(v)) v = 0;
  std::printf("%.17g", v);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  options.work_dir = ".bench_work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) return Usage();

  void (*run)(const RunOptions&, Tracer*, RunResult*) = nullptr;
  if (workload == "refresh_sweep") run = RunRefreshSweep;
  if (workload == "service_mix") run = RunServiceMix;
  if (workload == "ingest_churn") run = RunIngestChurn;
  if (run == nullptr) return Usage();

  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", options.work_dir.c_str());
    return 1;
  }

  Tracer tracer(options.trace);
  RunResult result;
  run(options, &tracer, &result);

  MetricMap& e2e = result.e2e;
  SetMedian(&e2e, "setup_s", result.setup_seconds, 1, "s");
  SetMetric(&e2e, "peak_rss_mb", PeakRssMb(), "MB", "getrusage ru_maxrss");

  MetricMap layer = result.layer;
  if (options.trace) {
    for (const auto& [name, seconds] : tracer.SelfSecondsByLayer()) {
      SetMetric(&layer, "self." + name + "_s", seconds, "s", "span self time");
    }
    SetMetric(&layer, "trace.spans", static_cast<double>(tracer.span_count()),
              "count");
    layer["trace.work_per_s"] = e2e["work_per_s"];
    layer["trace.fresh_p50_ms"] = e2e["fresh_p50_ms"];
    const std::string path =
        options.work_dir + "/trace-" + workload + ".json";
    if (!tracer.WriteChromeTrace(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }

  // Every declared metric is printed; a layer the workload does not
  // exercise reads 0. A workload metric that is not declared is a bug.
  const MetricMap& produced = options.trace ? layer : e2e;
  bool declared_ok = true;
  MetricMap out;
  auto add_all = [&](const auto& specs) {
    for (const MetricSpec& spec : specs) {
      auto it = produced.find(spec.name);
      Metric m = it == produced.end() ? Metric{0, spec.unit, "not exercised"}
                                      : it->second;
      if (m.unit != spec.unit) {
        std::fprintf(stderr, "metric %s has unit %s, declared %s\n",
                     spec.name, m.unit.c_str(), spec.unit);
        declared_ok = false;
      }
      out[spec.name] = m;
    }
  };
  if (options.trace) {
    add_all(kPerLayer);
  } else {
    add_all(kEndToEnd);
  }
  for (const auto& [name, metric] : produced) {
    if (out.find(name) == out.end()) {
      std::fprintf(stderr, "metric %s is not declared\n", name.c_str());
      declared_ok = false;
    }
  }
  if (!declared_ok) return 1;

  for (const std::string& message : result.checker.messages()) {
    std::printf("CHECK FAILED: %s\n", message.c_str());
  }
  std::printf("workload %s seed %llu: %llu attempted, %llu failed, %llu "
              "check failures\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.checker.failures()));
  for (const auto& [name, metric] : out) {
    std::printf("  %-28s %16.6g %-7s %s\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.checker.ok() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const auto& [name, metric] : out) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    PrintNumber(metric.value);
    std::printf(", \"unit\": \"%s\"}", metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
