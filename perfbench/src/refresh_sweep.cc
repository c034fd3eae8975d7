// refresh_sweep: a maintenance window over TPC-H-like lineitem and
// customer. Each round refreshes every numeric column at granularity 1
// through one DataPathScanner::ScanAndRefreshTables call (4 executor
// threads, one shared Device), then refreshes one narrow and the widest
// lineitem column through a 4-shard ClusterCoordinator. Domains run
// from 7 bins (l_linenumber) to ~10M bins (l_extendedprice), so per-bin
// work and the dense simulated DRAM dominate here.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "accel/device.h"
#include "cluster/coordinator.h"
#include "cluster/partitioner.h"
#include "db/catalog.h"
#include "db/datapath.h"
#include "hist/estimator.h"
#include "page/table_file.h"
#include "workload/tpch.h"
#include "workloads.h"

namespace perfbench {

namespace accel = dphist::accel;
namespace cluster = dphist::cluster;
namespace workload = dphist::workload;

namespace {

constexpr double kScaleFactor = 0.1;
constexpr uint32_t kExecutorThreads = 4;
constexpr uint32_t kShards = 4;
/// Domains up to this many bins count as narrow (per-row work); wider
/// ones as wide (per-bin work).
constexpr uint64_t kNarrowBins = 65536;
constexpr size_t kClusterNarrowColumn = workload::kLDiscount;
constexpr size_t kClusterWideColumn = workload::kLExtendedPrice;

/// Fixed range probes, as fractions of each column's domain.
constexpr double kProbes[][2] = {{0.0, 0.1},   {0.1, 0.35}, {0.25, 0.5},
                                 {0.4, 0.45},  {0.5, 0.9},  {0.6, 0.61},
                                 {0.75, 1.0},  {0.9, 0.95}};

struct Column {
  std::string table;
  size_t index = 0;
  ExactTally tally;
  accel::ScanRequest request;
  uint64_t bins = 0;
};

/// The seeded tables, generated once per run, outside the timed region.
/// Each set-up takes them and TearDown hands them back.
struct Tables {
  dphist::page::TableFile lineitem;
  dphist::page::TableFile customer;
};

Tables GenerateTables(uint64_t seed) {
  workload::LineitemOptions lineitem;
  lineitem.scale_factor = kScaleFactor;
  lineitem.seed = seed;
  workload::CustomerOptions customer;
  customer.scale_factor = kScaleFactor;
  customer.seed = seed ^ 0x5eedULL;
  return {workload::GenerateLineitem(lineitem),
          workload::GenerateCustomer(customer)};
}

struct Setup {
  db::Catalog catalog;
  std::unique_ptr<accel::Device> device;
  std::unique_ptr<cluster::ClusterCoordinator> coordinator;
};

/// The program's set-up: catalog registration, device and coordinator.
std::unique_ptr<Setup> BuildSetup(Tables tables) {
  auto setup = std::make_unique<Setup>();
  setup->catalog.AddTable("lineitem", std::move(tables.lineitem));
  setup->catalog.AddTable("customer", std::move(tables.customer));
  setup->device =
      std::make_unique<accel::Device>(accel::AcceleratorConfig{});
  cluster::ClusterOptions options;
  options.num_shards = kShards;
  setup->coordinator = std::make_unique<cluster::ClusterCoordinator>(options);
  return setup;
}

/// Moves the tables back out of the set-up's catalog, so the next set-up
/// registers the same tables without generating them again.
Tables TearDown(std::unique_ptr<Setup> setup) {
  return {std::move(*(*setup->catalog.Find("lineitem"))->table),
          std::move(*(*setup->catalog.Find("customer"))->table)};
}

std::vector<Column> BuildColumns(const db::Catalog& catalog) {
  std::vector<Column> columns;
  for (const char* name : {"lineitem", "customer"}) {
    const db::TableEntry* entry = *catalog.Find(name);
    for (size_t c = 0; c < entry->table->schema().num_columns(); ++c) {
      Column column;
      column.table = name;
      column.index = c;
      const std::vector<int64_t> values = entry->table->ReadColumn(c);
      column.tally = ExactTally(values);
      int64_t lo = values.empty() ? 0 : values.front();
      int64_t hi = lo;
      for (int64_t v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      column.request.column_index = c;
      column.request.min_value = lo;
      column.request.max_value = hi;
      column.request.granularity = 1;
      column.bins = static_cast<uint64_t>(hi - lo) + 1;
      columns.push_back(std::move(column));
    }
  }
  return columns;
}

const Column& FindColumn(const std::vector<Column>& columns,
                         const std::string& table, size_t index) {
  for (const Column& c : columns) {
    if (c.table == table && c.index == index) return c;
  }
  return columns.front();
}

std::string Label(const Column& c) {
  return c.table + "." + std::to_string(c.index);
}

void CheckInstalled(const db::Catalog& catalog, const Column& column,
                    const std::string& via, Checker* checker) {
  auto stats = catalog.GetColumnStats(column.table, column.index);
  if (!stats.ok()) {
    checker->Fail(Label(column) + " via " + via + ": no stats installed");
    return;
  }
  CheckColumnStats(**stats, column.request.top_k, column.tally,
                   Label(column) + " via " + via, checker);
}

/// Geometric mean q-error of the fixed probes over every column.
double ProbeQError(const db::Catalog& catalog,
                       const std::vector<Column>& columns) {
  double sum = 0;
  int n = 0;
  for (const Column& column : columns) {
    auto stats = catalog.GetColumnStats(column.table, column.index);
    if (!stats.ok()) continue;
    hist::Estimator estimator(&(*stats)->histogram);
    const double width = static_cast<double>(column.bins - 1);
    for (const auto& probe : kProbes) {
      const int64_t lo = column.request.min_value +
                         static_cast<int64_t>(std::floor(probe[0] * width));
      const int64_t hi = column.request.min_value +
                         static_cast<int64_t>(std::floor(probe[1] * width));
      sum += std::log(QError(estimator.EstimateRange(lo, hi),
                             static_cast<double>(column.tally.RangeCount(lo, hi))));
      ++n;
    }
  }
  return n == 0 ? 0 : std::exp(sum / n);
}

}  // namespace

void RunRefreshSweep(const RunOptions& options, Tracer* tracer,
                     RunResult* result) {
  Tables tables = GenerateTables(options.seed);
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetups; ++i) {
    if (setup) tables = TearDown(std::move(setup));
    Stopwatch watch;
    setup = BuildSetup(std::move(tables));
    result->setup_seconds.Add(watch.Seconds());
  }
  const std::vector<Column> columns = BuildColumns(setup->catalog);
  std::vector<db::TableScanJob> jobs;
  uint64_t rows_per_round = 0;
  for (const Column& c : columns) {
    jobs.push_back({c.table, c.index, c.request});
    rows_per_round += c.tally.total();
  }
  const Column& narrow =
      FindColumn(columns, "lineitem", kClusterNarrowColumn);
  const Column& wide = FindColumn(columns, "lineitem", kClusterWideColumn);
  rows_per_round += narrow.tally.total() + wide.tally.total();
  const db::TableEntry* lineitem = *setup->catalog.Find("lineitem");

  db::DataPathScanner scanner(&setup->catalog, setup->device.get());
  Samples round_seconds, tables_seconds, cluster_seconds, merge_seconds,
      split_seconds;
  double narrow_wall = 0, narrow_rows = 0, wide_wall = 0, wide_bins = 0;
  double qerror_sum = 0;
  int rounds = 0;

  const auto before = dphist::obs::MetricsRegistry::Global().Snapshot();
  Stopwatch run;
  while (run.Seconds() < options.seconds) {
    Stopwatch round;
    Stopwatch step;
    dphist::Result<std::vector<accel::ScanOutcome>> outcomes =
        dphist::Status::Internal("not run");
    {
      Tracer::Span span(tracer, "db", "DataPathScanner::ScanAndRefreshTables");
      outcomes = scanner.ScanAndRefreshTables(jobs, kExecutorThreads);
    }
    tables_seconds.Add(step.Seconds());

    step = Stopwatch();
    double cluster_merge = 0;
    dphist::Result<cluster::ClusterScanReport> cluster_reports[2] = {
        dphist::Status::Internal("not run"),
        dphist::Status::Internal("not run")};
    const Column* cluster_columns[2] = {&narrow, &wide};
    for (int i = 0; i < 2; ++i) {
      Tracer::Span span(tracer, "cluster", "ClusterCoordinator::ScanAndRefresh");
      cluster_reports[i] = setup->coordinator->ScanAndRefresh(
          &setup->catalog, "lineitem", cluster_columns[i]->index,
          cluster_columns[i]->request);
      if (cluster_reports[i].ok()) {
        cluster_merge += cluster_reports[i]->merge_seconds;
      }
    }
    cluster_seconds.Add(step.Seconds());
    merge_seconds.Add(cluster_merge);
    round_seconds.Add(round.Seconds());
    ++rounds;

    // Checks, outside the timed region.
    result->attempted += jobs.size() + 2;
    if (!outcomes.ok()) {
      result->failed += jobs.size();
      result->checker.Fail("ScanAndRefreshTables: " +
                           outcomes.status().ToString());
    } else {
      for (size_t j = 0; j < outcomes->size(); ++j) {
        const accel::ScanOutcome& outcome = (*outcomes)[j];
        const Column& column = columns[j];
        if (!outcome.status.ok()) {
          ++result->failed;
          continue;
        }
        if (column.bins <= kNarrowBins) {
          narrow_wall += outcome.stats.wall_seconds;
          narrow_rows += static_cast<double>(outcome.report.rows);
        } else {
          wide_wall += outcome.stats.wall_seconds;
          wide_bins += static_cast<double>(column.bins);
        }
        CheckEquiDepthBound(outcome.report.histograms.equi_depth,
                            column.request.num_buckets, column.tally, -1,
                            Label(column) + " equi-depth", &result->checker);
        // The cluster refreshes below overwrite these two columns.
        if (&column != &narrow && &column != &wide) {
          CheckInstalled(setup->catalog, column, "sweep", &result->checker);
        }
      }
    }
    for (int i = 0; i < 2; ++i) {
      const Column& column = *cluster_columns[i];
      if (!cluster_reports[i].ok() || cluster_reports[i]->partial()) {
        ++result->failed;
        continue;
      }
      CheckInstalled(setup->catalog, column, "cluster", &result->checker);
      CheckEquiDepthBound(cluster_reports[i]->histograms.equi_depth,
                          column.request.num_buckets, column.tally, -1,
                          Label(column) + " cluster equi-depth",
                          &result->checker);
      if (outcomes.ok()) {
        const size_t j = static_cast<size_t>(&column - columns.data());
        if ((*outcomes)[j].status.ok()) {
          CheckShardIndependence(*cluster_reports[i], (*outcomes)[j].report,
                                 Label(column) + " 4-shard vs 1-device",
                                 &result->checker);
        }
      }
    }
    qerror_sum += ProbeQError(setup->catalog, columns);

    if (options.trace) {
      // Direct timing of the partitioning step the cluster refresh of the
      // wide column performs first.
      cluster::PartitionerOptions partition;
      partition.key_column = kClusterWideColumn;
      Stopwatch split;
      Tracer::Span span(tracer, "cluster", "Partitioner::Split");
      auto shards = cluster::Partitioner::Split(*lineitem->table, kShards,
                                                partition);
      split_seconds.Add(split.Seconds());
      if (!shards.ok()) result->checker.Fail("Partitioner::Split failed");
    }
  }
  const auto after = dphist::obs::MetricsRegistry::Global().Snapshot();

  const double round_median = round_seconds.Median();
  SetMetric(&result->e2e, "work_per_s",
            static_cast<double>(rows_per_round) / round_median, "1/s",
            "column rows refreshed per second, median of " +
                std::to_string(rounds) + " rounds");
  SetMedian(&result->e2e, "fresh_p50_ms", round_seconds, 1e3, "ms");
  SetMetric(&result->e2e, "qerror", qerror_sum / rounds, "ratio",
            "geometric mean over " + std::to_string(columns.size() * 8) +
                " probes");

  MetricMap& layer = result->layer;
  SetMedian(&layer, "db.refresh_tables_s", tables_seconds, 1, "s");
  SetMetric(&layer, "accel.narrow_ns_per_row",
            narrow_rows > 0 ? narrow_wall / narrow_rows * 1e9 : 0, "ns/row");
  SetMetric(&layer, "accel.wide_ns_per_bin",
            wide_bins > 0 ? wide_wall / wide_bins * 1e9 : 0, "ns/bin");
  SetMedian(&layer, "cluster.refresh_s", cluster_seconds, 1, "s");
  SetMedian(&layer, "cluster.merge_ms", merge_seconds, 1e3, "ms");
  SetMedian(&layer, "cluster.split_s", split_seconds, 1, "s");
  AddRegistryLayerMetrics(before, after, result);
}

}  // namespace perfbench
