// ingest_churn: the write path. One IngestPipeline applies a seeded
// drifting-range append/delete stream (30% deletes) in fixed-size
// batches, with IncrementalMaintainer as the active strategy (rebuild
// trigger on) and a RecoveryManager on the local disk as its durability
// sink. Each round ends with a warm restart: Recover() into a fresh
// catalog from a crash image holding only the bytes that were synced.
// The rescan domain is kept narrow, so per-bin work is small here.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "accel/device.h"
#include "db/catalog.h"
#include "hist/estimator.h"
#include "ingest/maintainer.h"
#include "ingest/pipeline.h"
#include "ingest/stream.h"
#include "persist/recovery.h"
#include "sync_fs.h"
#include "workload/distributions.h"
#include "workloads.h"

namespace perfbench {

namespace accel = dphist::accel;
namespace ingest = dphist::ingest;
namespace persist = dphist::persist;
namespace workload = dphist::workload;

namespace {

constexpr char kTable[] = "events";
constexpr uint32_t kTableColumns = 4;
constexpr uint64_t kInitialRows = 20000;
constexpr int64_t kDomainLo = 1;
constexpr int64_t kDomainHi = 4096;
constexpr int64_t kDriftSpan = 2000;
constexpr double kDriftPerOp = 0.0025;
constexpr double kDeleteShare = 0.3;
constexpr size_t kBatchOps = 8192;
constexpr int kBatchesPerRound = 80;
constexpr int kProbeEvery = 2;  ///< batches between q-error probes
/// Appends drift the window by at most kBatchesPerRound * kBatchOps *
/// kDriftPerOp values, which must stay inside the request domain.
static_assert(kDomainLo + kDriftSpan +
                  static_cast<int64_t>(kBatchesPerRound * kBatchOps *
                                       kDriftPerOp) <=
              kDomainHi);

accel::ScanRequest Request() {
  accel::ScanRequest request;
  request.min_value = kDomainLo;
  request.max_value = kDomainHi;
  request.granularity = 1;
  request.num_buckets = 64;
  request.top_k = 16;
  return request;
}

/// Everything one round's pipeline needs, built by the timed set-up.
struct Setup {
  db::Catalog catalog;
  std::unique_ptr<accel::Device> device;
  std::unique_ptr<SyncTrackingFileSystem> fs;
  std::unique_ptr<persist::RecoveryManager> manager;
  std::unique_ptr<TimedSink> sink;
  std::unique_ptr<ingest::IngestPipeline> pipeline;
};

/// One round's seeded inputs: the initial column and the churn stream.
/// Every round draws its own stream (seeded from the run seed and the
/// round number), so the run's q-error averages over many streams. Each
/// batch is drawn just before it is applied, outside the timed region,
/// so a round's batches are never all held at once.
struct RoundInputs {
  uint64_t seed = 0;
  std::vector<int64_t> initial;
  std::unique_ptr<ingest::StreamGenerator> stream;
};

RoundInputs BuildInputs(uint64_t run_seed, int round) {
  RoundInputs inputs;
  inputs.seed = run_seed * 1000003 + static_cast<uint64_t>(round);
  inputs.initial = workload::DriftingRangeColumn(kInitialRows, kDomainLo,
                                                 kDriftSpan, 0.0, inputs.seed);
  ingest::StreamOptions stream_options;
  stream_options.seed = inputs.seed;
  stream_options.profile = ingest::ChurnProfile::kDriftingRange;
  stream_options.delete_fraction = kDeleteShare;
  stream_options.domain_lo = kDomainLo;
  stream_options.domain_hi = kDomainHi;
  stream_options.drift_span = kDriftSpan;
  stream_options.drift_per_op = kDriftPerOp;
  inputs.stream = std::make_unique<ingest::StreamGenerator>(stream_options);
  inputs.stream->SeedLiveRows(inputs.initial);
  return inputs;
}

std::unique_ptr<Setup> BuildSetup(const RoundInputs& inputs,
                                  const std::string& dir, Tracer* tracer,
                                  Checker* checker) {
  auto setup = std::make_unique<Setup>();
  setup->device = std::make_unique<accel::Device>(accel::AcceleratorConfig{});
  setup->fs = std::make_unique<SyncTrackingFileSystem>();
  persist::PersistOptions persist_options;
  persist_options.dir = dir;
  persist_options.fs = setup->fs.get();
  setup->manager = std::make_unique<persist::RecoveryManager>(
      &setup->catalog, persist_options);
  auto recovered = setup->manager->Recover();
  if (!recovered.ok()) checker->Fail("cold Recover: " + recovered.status().ToString());
  setup->sink = std::make_unique<TimedSink>(setup->manager.get(), tracer);

  ingest::PipelineOptions pipeline_options;
  pipeline_options.request = Request();
  pipeline_options.num_columns = kTableColumns;
  pipeline_options.table_seed = inputs.seed;
  pipeline_options.persistence = setup->sink.get();
  setup->pipeline = std::make_unique<ingest::IngestPipeline>(
      &setup->catalog, setup->device.get(), kTable, pipeline_options);
  dphist::Status loaded = setup->pipeline->Load(inputs.initial);
  auto stats = setup->catalog.GetColumnStats(kTable, 0);
  if (!loaded.ok() || !stats.ok()) {
    checker->Fail("pipeline Load: " + loaded.ToString());
    return setup;
  }
  setup->pipeline->AddMaintainer(
      std::make_unique<ingest::IncrementalMaintainer>(**stats));
  return setup;
}

}  // namespace

void RunIngestChurn(const RunOptions& options, Tracer* tracer,
                    RunResult* result) {
  const std::string dir = options.work_dir + "/ingest-wal";
  const std::string image_dir = options.work_dir + "/ingest-crash-image";
  std::unique_ptr<Setup> setup;
  // Times the program's set-up only: the previous round's pipeline and
  // WAL directory are gone before the stopwatch starts.
  auto timed_setup = [&](const RoundInputs& inputs) {
    setup.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    Stopwatch watch;
    setup = BuildSetup(inputs, dir, tracer, &result->checker);
    result->setup_seconds.Add(watch.Seconds());
  };
  // The first rounds' set-ups, timed but unused, so that setup_s always
  // has at least kSetups samples.
  for (int i = 0; i < kSetups - 1; ++i) {
    timed_setup(BuildInputs(options.seed, i));
  }

  Samples batch_seconds, absorb_seconds, rescan_seconds, snapshot_seconds,
      recover_seconds;
  Samples append_seconds, checkpoint_seconds;
  double ops_applied = 0, log_qerror_sum = 0, qerror_probes = 0;
  double wal_bytes = 0, snapshot_bytes = 0, sink_calls = 0, rescans = 0,
         replayed = 0;
  uint64_t batches_applied = 0;
  int rounds = 0;

  const auto before = dphist::obs::MetricsRegistry::Global().Snapshot();
  Stopwatch run;
  while (run.Seconds() < options.seconds) {
    RoundInputs inputs = BuildInputs(options.seed, rounds);
    timed_setup(inputs);
    ingest::IngestPipeline& pipeline = *setup->pipeline;
    ExactTally tally(inputs.initial);
    const uint64_t sink_calls_before = setup->sink->calls();
    for (int b = 0; b < kBatchesPerRound; ++b) {
      const std::vector<ingest::IngestOp> ops = inputs.stream->Batch(kBatchOps);
      const uint64_t rescans_before = pipeline.counters().rescans;
      ++result->attempted;
      Stopwatch watch;
      dphist::Status applied;
      {
        Tracer::Span span(tracer, "ingest", "IngestPipeline::ApplyBatch");
        applied = pipeline.ApplyBatch(ops);
      }
      const double seconds = watch.Seconds();
      if (!applied.ok()) {
        ++result->failed;
        result->checker.Fail("ApplyBatch: " + applied.ToString());
        continue;
      }
      batch_seconds.Add(seconds);
      ++batches_applied;
      ops_applied += static_cast<double>(ops.size());
      (pipeline.counters().rescans != rescans_before ? rescan_seconds
                                                     : absorb_seconds)
          .Add(seconds);

      // Checks, outside the timed region.
      for (const ingest::IngestOp& op : ops) {
        if (op.kind == ingest::OpKind::kAppend) {
          tally.Add(op.value);
        } else if (!tally.Remove(op.value)) {
          result->checker.Fail("stream deleted a value that is not live");
        }
      }
      auto stats = setup->catalog.GetColumnStats(kTable, 0);
      if (!stats.ok() || (*stats)->row_count != tally.total() ||
          pipeline.live_rows() != tally.total()) {
        result->checker.Fail("batch " + std::to_string(b) +
                             ": installed row_count / live_rows != exact " +
                             std::to_string(tally.total()));
      }
      if (options.trace) {
        Stopwatch snapshot;
        Tracer::Span span(tracer, "ingest", "StatsMaintainer::Snapshot");
        db::ColumnStats view = pipeline.active()->Snapshot(pipeline.live_rows());
        snapshot_seconds.Add(snapshot.Seconds());
        if (view.row_count != tally.total()) {
          result->checker.Fail("maintainer snapshot row_count mismatch");
        }
      }
      if ((b + 1) % kProbeEvery == 0 && stats.ok()) {
        CheckHistogram((*stats)->histogram, tally, tally.total(),
                       "installed histogram", &result->checker);
        hist::Estimator estimator(&(*stats)->histogram);
        for (int64_t lo = kDomainLo; lo <= kDomainHi; lo += 256) {
          const int64_t hi = lo + 255;
          const uint64_t exact = tally.RangeCount(lo, hi);
          if (pipeline.ExactRangeCount(lo, hi) != exact) {
            result->checker.Fail("ExactRangeCount disagrees with the tally");
          }
          log_qerror_sum += std::log(QError(estimator.EstimateRange(lo, hi),
                                            static_cast<double>(exact)));
          ++qerror_probes;
        }
      }
    }
    rescans += static_cast<double>(pipeline.counters().rescans);
    sink_calls += static_cast<double>(setup->sink->calls() - sink_calls_before);
    wal_bytes += static_cast<double>(setup->fs->wal_bytes());
    snapshot_bytes += static_cast<double>(setup->fs->snapshot_bytes());
    append_seconds.Append(setup->sink->append_seconds());
    checkpoint_seconds.Append(setup->sink->checkpoint_seconds());

    // Warm restart from the synced bytes only.
    ++result->attempted;
    auto image = setup->fs->BuildCrashImage(dir, image_dir);
    if (!image.ok()) {
      ++result->failed;
      result->checker.Fail("crash image: " + image.status().ToString());
    } else {
      db::Catalog restarted;
      restarted.AddTable(kTable, workload::ColumnToTable(inputs.initial,
                                                         kTableColumns, inputs.seed));
      persist::PersistOptions persist_options;
      persist_options.dir = image_dir;
      Stopwatch watch;
      dphist::Result<persist::RecoveryReport> report =
          dphist::Status::Internal("not run");
      {
        Tracer::Span span(tracer, "persist", "RecoveryManager::Recover");
        persist::RecoveryManager manager(&restarted, persist_options);
        report = manager.Recover();
      }
      const double seconds = watch.Seconds();
      auto before_crash = setup->catalog.GetColumnStats(kTable, 0);
      auto after_restart = restarted.GetColumnStats(kTable, 0);
      if (!report.ok()) {
        ++result->failed;
        result->checker.Fail("Recover: " + report.status().ToString());
      } else {
        recover_seconds.Add(seconds);
        replayed += static_cast<double>(report->wal_events_replayed);
        if (!before_crash.ok() || !after_restart.ok()) {
          result->checker.Fail("warm restart: no stats for " +
                               std::string(kTable));
        } else {
          CheckRecovered(**before_crash,
                         (*setup->catalog.Find(kTable))->data_version,
                         **after_restart,
                         (*restarted.Find(kTable))->data_version,
                         "warm restart", &result->checker);
        }
      }
    }
    std::error_code ec;
    std::filesystem::remove_all(image_dir, ec);
    ++rounds;
  }
  const auto after = dphist::obs::MetricsRegistry::Global().Snapshot();
  setup.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  const double applied = static_cast<double>(batches_applied);
  // Ops per second of the median batch. A mean over all batches would
  // follow the host's fsync stalls more than the program; the rescans'
  // share is in ingest.rescan_batch_ms and ingest.rescans.
  SetMetric(&result->e2e, "work_per_s",
            static_cast<double>(kBatchOps) / batch_seconds.Median(), "1/s",
            "ingest ops per second of the median ApplyBatch, " +
                std::to_string(batches_applied) + " batches");
  SetMedian(&result->e2e, "fresh_p50_ms", batch_seconds, 1e3, "ms");
  SetMetric(&result->e2e, "qerror",
            qerror_probes > 0 ? std::exp(log_qerror_sum / qerror_probes) : 0,
            "ratio", "geometric mean over " + std::to_string(static_cast<uint64_t>(qerror_probes)) +
                " probes");

  MetricMap& layer = result->layer;
  const std::string per_round = "per round, " + std::to_string(rounds) + " rounds";
  SetMetric(&layer, "ingest.batches", applied, "count");
  SetMedian(&layer, "ingest.absorb_batch_ms", absorb_seconds, 1e3, "ms");
  SetMedian(&layer, "ingest.rescan_batch_ms", rescan_seconds, 1e3, "ms");
  SetMetric(&layer, "ingest.rescans", rescans / rounds, "count", per_round);
  SetMedian(&layer, "ingest.snapshot_us", snapshot_seconds, 1e6, "us");
  SetTail(&layer, "ingest.tail_ms", batch_seconds, 1e3, "ms");
  SetMedian(&layer, "persist.append_us", append_seconds, 1e6, "us");
  SetMedian(&layer, "persist.checkpoint_ms", checkpoint_seconds, 1e3, "ms");
  SetMetric(&layer, "persist.appends_per_batch", sink_calls / applied, "ratio",
            "sink calls per batch");
  SetMetric(&layer, "persist.wal_bytes", wal_bytes / rounds, "B", per_round);
  SetMetric(&layer, "persist.snapshot_bytes", snapshot_bytes / rounds, "B",
            per_round);
  SetMetric(&layer, "persist.stored_bytes_per_op",
            (wal_bytes + snapshot_bytes) / ops_applied, "B/op",
            "WAL + snapshot bytes written per ingest op");
  SetMetric(&layer, "persist.replayed_events", replayed / rounds, "count",
            "per recovery");
  SetMedian(&layer, "persist.recover_ms", recover_seconds, 1e3, "ms");
  AddRegistryLayerMetrics(before, after, result);
}

}  // namespace perfbench
