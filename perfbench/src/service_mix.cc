// service_mix: a closed loop of 4 planner callers over a default
// svc::StatsService. Each caller waits for its reply before sending the
// next request. Targets are Zipf-popular over 8 tables of narrow-domain
// Zipf columns; a fifth of requests are forced refreshes, and every
// kNotifyEvery requests a caller reports an ingest (NotifyIngest) on a
// Zipf-chosen table, so reads and invalidating writes share the
// service. Scans here are short and bound by per-row work; the rest of
// the path is the service's queue, cache, coalescing and device lock.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accel/device.h"
#include "common/random.h"
#include "db/catalog.h"
#include "db/datapath.h"
#include "hist/estimator.h"
#include "page/table_file.h"
#include "svc/service.h"
#include "workload/distributions.h"
#include "workloads.h"

namespace perfbench {

namespace accel = dphist::accel;
namespace svc = dphist::svc;
namespace workload = dphist::workload;

namespace {

constexpr size_t kTables = 8;
constexpr uint64_t kRowsPerTable = 200000;
constexpr uint32_t kTableColumns = 4;
/// Per-table value domain {1..cardinality} and Zipf exponent.
constexpr uint64_t kCardinality[kTables] = {64,  256,  1024, 4096,
                                            16384, 512, 2048, 8192};
constexpr double kValueZipf[kTables] = {0.6, 0.8, 1.0, 1.2,
                                        0.5, 0.9, 1.1, 0.7};
constexpr uint32_t kCallers = 4;
constexpr double kTargetZipf = 1.0;  ///< popularity of tables
constexpr double kRefreshShare = 0.2;
constexpr uint64_t kNotifyEvery = 40;

/// Fixed range probes, as fractions of each table's domain.
constexpr double kProbes[][2] = {{0.0, 0.01}, {0.0, 0.1}, {0.05, 0.3},
                                 {0.2, 0.6},  {0.5, 0.9}, {0.7, 1.0}};

std::string TableName(size_t t) { return "zipf" + std::to_string(t); }

accel::ScanRequest Params(size_t t) {
  accel::ScanRequest params;
  params.min_value = 1;
  params.max_value = static_cast<int64_t>(kCardinality[t]);
  params.granularity = 1;
  return params;
}

svc::StatsRequest MakeRequest(size_t t, svc::RequestKind kind) {
  svc::StatsRequest request;
  request.table = TableName(t);
  request.column = 0;
  request.params = Params(t);
  request.kind = kind;
  return request;
}

/// The seeded tables, generated once per run, outside the timed region.
/// Each set-up takes them and TearDown hands them back.
std::vector<dphist::page::TableFile> GenerateTables(uint64_t seed) {
  std::vector<dphist::page::TableFile> tables;
  for (size_t t = 0; t < kTables; ++t) {
    tables.push_back(workload::ColumnToTable(
        workload::ZipfColumn(kRowsPerTable, kCardinality[t], kValueZipf[t],
                             seed * 131 + t),
        kTableColumns, seed * 131 + t));
  }
  return tables;
}

struct Setup {
  db::Catalog catalog;
  std::unique_ptr<accel::Device> device;
  std::unique_ptr<svc::StatsService> service;
};

/// The program's set-up: catalog registration, device, service start.
std::unique_ptr<Setup> BuildSetup(std::vector<dphist::page::TableFile> tables,
                                  Checker* checker) {
  auto setup = std::make_unique<Setup>();
  for (size_t t = 0; t < kTables; ++t) {
    setup->catalog.AddTable(TableName(t), std::move(tables[t]));
  }
  setup->device = std::make_unique<accel::Device>(accel::AcceleratorConfig{});
  setup->service =
      std::make_unique<svc::StatsService>(&setup->catalog, setup->device.get());
  dphist::Status started = setup->service->Start();
  if (!started.ok()) checker->Fail("service start: " + started.ToString());
  return setup;
}

/// Stops the service and moves the tables back out of its catalog, so the
/// next set-up registers the same tables without generating them again.
std::vector<dphist::page::TableFile> TearDown(std::unique_ptr<Setup> setup) {
  setup->service->Stop();
  std::vector<dphist::page::TableFile> tables;
  for (size_t t = 0; t < kTables; ++t) {
    tables.push_back(std::move(*(*setup->catalog.Find(TableName(t)))->table));
  }
  return tables;
}

/// What one caller measured and checked.
struct CallerState {
  Checker checker;
  Samples submit_seconds, read_seconds, refresh_seconds, all_seconds;
  Samples queue_seconds, serve_seconds;
  uint64_t attempted = 0, failed = 0;
};

}  // namespace

void RunServiceMix(const RunOptions& options, Tracer* tracer,
                   RunResult* result) {
  std::vector<dphist::page::TableFile> tables = GenerateTables(options.seed);
  std::vector<ExactTally> tallies;
  for (const dphist::page::TableFile& table : tables) {
    tallies.emplace_back(table.ReadColumn(0));
  }
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetups; ++i) {
    if (setup) tables = TearDown(std::move(setup));
    Stopwatch watch;
    setup = BuildSetup(std::move(tables), &result->checker);
    result->setup_seconds.Add(watch.Seconds());
  }

  // The benchmark's own view of each table's data version: raised after
  // NotifyIngest returns, so a reader that sees it knows the service had
  // already bumped the catalog.
  std::vector<std::atomic<uint64_t>> versions(kTables);
  for (size_t t = 0; t < kTables; ++t) {
    versions[t] = (*setup->catalog.Find(TableName(t)))->data_version;
  }
  std::atomic<uint64_t> request_count{0};
  std::atomic<bool> stop{false};
  std::vector<CallerState> callers(kCallers);
  svc::StatsService* service = setup->service.get();
  const dphist::ZipfGenerator popularity(kTables, kTargetZipf);

  // Warm-up, before the clock starts: one read per table fills the
  // service's cache, as it would be in a service that has been running.
  for (size_t t = 0; t < kTables; ++t) {
    ++result->attempted;
    dphist::Result<svc::Ticket> ticket =
        service->Submit(MakeRequest(t, svc::RequestKind::kRead));
    const svc::StatsResponse response =
        ticket.ok() ? ticket->Wait() : svc::StatsResponse{};
    if (!ticket.ok() || !response.status.ok()) {
      ++result->failed;
      result->checker.Fail(TableName(t) + ": warm-up read failed");
      continue;
    }
    CheckServedResponse(response, versions[t].load(), Params(t), tallies[t],
                        TableName(t), &result->checker);
  }

  const auto before = dphist::obs::MetricsRegistry::Global().Snapshot();
  Stopwatch run;
  auto caller_loop = [&](uint32_t id) {
    CallerState& state = callers[id];
    dphist::Rng rng(options.seed * 7919 + id);
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t t = popularity.Sample(&rng) - 1;
      const svc::StatsRequest request = MakeRequest(
          t, rng.NextBernoulli(kRefreshShare) ? svc::RequestKind::kRefresh
                                              : svc::RequestKind::kRead);
      const uint64_t version = versions[t].load();
      ++state.attempted;
      svc::StatsResponse response;
      Stopwatch latency;
      {
        Tracer::Span span(tracer, "svc", "StatsService::Submit+Wait");
        Stopwatch submit;
        dphist::Result<svc::Ticket> ticket = service->Submit(request);
        state.submit_seconds.Add(submit.Seconds());
        if (ticket.ok()) {
          response = ticket->Wait();
        } else {
          response.status = ticket.status();
        }
      }
      const double seconds = latency.Seconds();
      if (!response.status.ok()) {
        ++state.failed;
        state.checker.Fail(request.table + ": " + response.status.ToString());
      } else {
        state.all_seconds.Add(seconds);
        (request.kind == svc::RequestKind::kRead ? state.read_seconds
                                                 : state.refresh_seconds)
            .Add(seconds);
        if (response.path == svc::ServePath::kScan && !response.coalesced) {
          state.queue_seconds.Add(response.queue_nanos * 1e-9);
          state.serve_seconds.Add(
              (response.total_nanos - response.queue_nanos) * 1e-9);
        }
        CheckServedResponse(response, version, Params(t), tallies[t],
                            TableName(t), &state.checker);
      }
      if ((request_count.fetch_add(1) + 1) % kNotifyEvery == 0) {
        const size_t target = popularity.Sample(&rng) - 1;
        ++state.attempted;
        const uint64_t bumped = service->NotifyIngest(TableName(target));
        if (bumped == 0) {
          ++state.failed;
          state.checker.Fail("NotifyIngest refused a known table");
        }
        uint64_t seen = versions[target].load();
        while (seen < bumped &&
               !versions[target].compare_exchange_weak(seen, bumped)) {
        }
      }
      if (run.Seconds() >= options.seconds) stop.store(true);
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t id = 0; id < kCallers; ++id) threads.emplace_back(caller_loop, id);
  for (std::thread& thread : threads) thread.join();
  const double loop_seconds = run.Seconds();
  service->Stop();
  const auto after = dphist::obs::MetricsRegistry::Global().Snapshot();

  CallerState all;
  for (CallerState& state : callers) {
    result->attempted += state.attempted;
    result->failed += state.failed;
    for (const std::string& m : state.checker.messages()) result->checker.Fail(m);
    for (uint64_t i = state.checker.messages().size();
         i < state.checker.failures(); ++i) {
      result->checker.Fail("(further check failure)");
    }
    all.submit_seconds.Append(state.submit_seconds);
    all.read_seconds.Append(state.read_seconds);
    all.refresh_seconds.Append(state.refresh_seconds);
    all.all_seconds.Append(state.all_seconds);
    all.queue_seconds.Append(state.queue_seconds);
    all.serve_seconds.Append(state.serve_seconds);
  }
  const svc::ServiceCounters counters = service->counters();
  CheckServiceLedger(counters, &result->checker);

  // Estimation quality of the stats the service left installed.
  double log_qerror_sum = 0;
  int probes = 0;
  for (size_t t = 0; t < kTables; ++t) {
    auto stats = setup->catalog.GetColumnStats(TableName(t), 0);
    if (!stats.ok() || !(*stats)->valid) continue;
    hist::Estimator estimator(&(*stats)->histogram);
    const double width = static_cast<double>(kCardinality[t] - 1);
    for (const auto& probe : kProbes) {
      const int64_t lo = 1 + static_cast<int64_t>(std::floor(probe[0] * width));
      const int64_t hi = 1 + static_cast<int64_t>(std::floor(probe[1] * width));
      log_qerror_sum += std::log(
          QError(estimator.EstimateRange(lo, hi),
                 static_cast<double>(tallies[t].RangeCount(lo, hi))));
      ++probes;
    }
  }

  const double completed = static_cast<double>(all.all_seconds.n());
  SetMetric(&result->e2e, "work_per_s", completed / loop_seconds, "1/s",
            "requests per second, " + std::to_string(all.all_seconds.n()) +
                " requests");
  SetMedian(&result->e2e, "fresh_p50_ms", all.refresh_seconds, 1e3, "ms");
  SetMetric(&result->e2e, "qerror",
            probes > 0 ? std::exp(log_qerror_sum / probes) : 0, "ratio",
            "geometric mean over " + std::to_string(probes) + " probes");

  MetricMap& layer = result->layer;
  const double submitted = static_cast<double>(counters.submitted);
  uint64_t scans = 0;
  for (uint64_t v : counters.ladder_occupancy) scans += v;
  const std::string base = "of " + std::to_string(counters.submitted) +
                           " submitted";
  SetMetric(&layer, "svc.requests", submitted, "count");
  SetMedian(&layer, "svc.submit_us", all.submit_seconds, 1e6, "us");
  SetMedian(&layer, "svc.queue_ms", all.queue_seconds, 1e3, "ms");
  SetMedian(&layer, "svc.serve_ms", all.serve_seconds, 1e3, "ms");
  SetMetric(&layer, "svc.cache_hit_ratio", counters.cache_hits / submitted,
            "ratio", base);
  SetMetric(&layer, "svc.coalesced_ratio", counters.coalesced / submitted,
            "ratio", base);
  SetMetric(&layer, "svc.scans_per_request", scans / submitted, "ratio", base);
  SetMedian(&layer, "svc.read_p50_ms", all.read_seconds, 1e3, "ms");
  SetTail(&layer, "svc.tail_ms", all.all_seconds, 1e3, "ms");
  AddRegistryLayerMetrics(before, after, result);

  if (options.trace) {
    // One direct scan per service table with the service's parameters
    // and engine: the device work a scan-served request waits behind.
    db::DataPathScanner scanner(&setup->catalog, setup->device.get());
    Samples scan_seconds;
    double rows = 0, wall = 0;
    for (size_t t = 0; t < kTables; ++t) {
      Stopwatch watch;
      Tracer::Span span(tracer, "db", "DataPathScanner::ScanAndRefresh");
      auto report = scanner.ScanAndRefresh(TableName(t), 0, Params(t),
                                           service->options().engine);
      const double seconds = watch.Seconds();
      if (!report.ok()) {
        result->checker.Fail(TableName(t) + " direct scan failed");
        continue;
      }
      scan_seconds.Add(seconds);
      wall += seconds;
      rows += static_cast<double>(report->rows);
    }
    SetMedian(&layer, "svc.scan_ms", scan_seconds, 1e3, "ms");
    SetMetric(&layer, "accel.narrow_ns_per_row",
              rows > 0 ? wall / rows * 1e9 : 0, "ns/row", "direct scans");
  }
}

}  // namespace perfbench
