// The benchmark's own tests: every correctness check accepts a correct
// result and rejects a deliberately corrupted one. Correct results come
// from the program itself (a real scan, a real service response, a real
// WAL and recovery), so the tests also pin that the checks hold on
// today's output.
//
//   python3 perfbench/run.py --checks-test

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "accel/device.h"
#include "cluster/coordinator.h"
#include "db/catalog.h"
#include "db/datapath.h"
#include "persist/recovery.h"
#include "svc/service.h"
#include "sync_fs.h"
#include "checks.h"
#include "stats.h"
#include "workload/distributions.h"

namespace {

using namespace perfbench;
namespace accel = dphist::accel;
namespace cluster = dphist::cluster;
namespace persist = dphist::persist;
namespace svc = dphist::svc;

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

/// Runs `check` on a fresh checker; returns true when it passed.
bool Passes(const std::function<void(Checker*)>& check) {
  Checker checker;
  check(&checker);
  return checker.ok();
}

/// A correct check passes and each corruption makes it fail.
void ExpectRejects(const std::string& name,
                   const std::function<void(Checker*)>& correct,
                   const std::vector<std::pair<std::string,
                                               std::function<void(Checker*)>>>&
                       corrupted) {
  Expect(Passes(correct), name + " accepts the program's correct result");
  for (const auto& [what, check] : corrupted) {
    Expect(!Passes(check), name + " rejects " + what);
  }
}

constexpr uint64_t kCardinality = 300;

std::vector<int64_t> Column() {
  return dphist::workload::ZipfColumn(20000, kCardinality, 0.9, 7);
}

accel::ScanRequest Request() {
  accel::ScanRequest request;
  request.min_value = 1;
  request.max_value = kCardinality;
  request.num_buckets = 16;
  request.top_k = 8;
  return request;
}

void TestTally() {
  ExactTally tally(std::vector<int64_t>{5, 1, 5, 9, 5});
  Expect(tally.total() == 5 && tally.distinct() == 3, "tally totals");
  Expect(tally.RangeCount(2, 9) == 4 && tally.RangeCount(6, 8) == 0,
         "tally range counts");
  Expect(tally.MaxCount() == 3, "tally max count");
  Expect(tally.Remove(5) && !tally.Remove(4) && tally.Count(5) == 2,
         "tally remove");
  tally.Add(4, 2);
  Expect(tally.RangeCount(4, 5) == 4, "tally add after remove");
  Expect(QError(10, 5) == 2 && QError(0, 0) == 1 && QError(5, 10) == 2,
         "q-error");
  Samples samples;
  for (int i = 1; i <= 39; ++i) samples.Add(i);
  Expect(!samples.HighestSupportedTail().ok, "no tail under 40 samples");
  samples.Add(40);
  const Samples::Tail tail = samples.HighestSupportedTail();
  Expect(tail.ok && tail.value == 30 && tail.percentile == 75,
         "tail leaves ten samples beyond it");
}

void TestScanChecks() {
  const std::vector<int64_t> values = Column();
  const ExactTally tally(values);
  dphist::db::Catalog catalog;
  catalog.AddTable("t", dphist::workload::ColumnToTable(values, 2, 7));
  accel::Device device{accel::AcceleratorConfig{}};
  dphist::db::DataPathScanner scanner(&catalog, &device);
  auto report = scanner.ScanAndRefresh("t", 0, Request());
  Expect(report.ok(), "scan");
  if (!report.ok()) return;
  const dphist::db::ColumnStats stats = **catalog.GetColumnStats("t", 0);
  const hist::Histogram equi_depth = report->histograms.equi_depth;

  auto stats_check = [&](dphist::db::ColumnStats s) {
    return [s, &tally](Checker* c) { CheckColumnStats(s, 8, tally, "t", c); };
  };
  auto mutated = [&](std::function<void(dphist::db::ColumnStats*)> f) {
    dphist::db::ColumnStats s = stats;
    f(&s);
    return stats_check(s);
  };
  ExpectRejects(
      "column stats check", stats_check(stats),
      {{"a row count off by one", mutated([](auto* s) { ++s->row_count; })},
       {"a wrong NDV", mutated([](auto* s) { ++s->ndv; })},
       {"a bucket count off by one",
        mutated([](auto* s) { ++s->histogram.buckets[1].count; })},
       {"overlapping buckets",
        mutated([](auto* s) {
          s->histogram.buckets[1].lo = s->histogram.buckets[0].hi;
        })},
       {"a wrong singleton count",
        mutated([](auto* s) { ++s->histogram.singletons[0].count; })},
       {"a top-k count off by one",
        mutated([](auto* s) { ++s->top_k[0].count; })},
       {"a top-k list that skips the heaviest value",
        mutated([](auto* s) { s->top_k.erase(s->top_k.begin()); })},
       {"invalid stats", mutated([](auto* s) { s->valid = false; })}});

  auto bound_check = [&](hist::Histogram h, int64_t certified) {
    return [h, certified, &tally](Checker* c) {
      CheckEquiDepthBound(h, 16, tally, certified, "t", c);
    };
  };
  hist::Histogram too_deep = equi_depth;
  too_deep.buckets[0].count += tally.MaxCount() + tally.total();
  hist::Histogram too_shallow = equi_depth;
  too_shallow.buckets[0].count = 0;
  ExpectRejects("equi-depth bound check", bound_check(equi_depth, -1),
                {{"a bucket deeper than t + E", bound_check(too_deep, -1)},
                 {"an empty bucket", bound_check(too_shallow, -1)},
                 {"a certificate that differs from the recomputed bound",
                  bound_check(equi_depth,
                              static_cast<int64_t>(tally.MaxCount()))}});

  // Shard independence: a real 4-shard merge against the 1-device scan.
  cluster::ClusterOptions options;
  options.num_shards = 4;
  cluster::ClusterCoordinator coordinator(options);
  auto merged = coordinator.ScanTable(*(*catalog.Find("t"))->table, Request());
  Expect(merged.ok(), "cluster scan");
  if (!merged.ok()) return;
  cluster::ClusterScanReport moved_bucket = *merged;
  moved_bucket.histograms.equi_depth.buckets[0].hi -= 1;
  cluster::ClusterScanReport lost_row = *merged;
  lost_row.rows -= 1;
  auto shard_check = [&](cluster::ClusterScanReport r) {
    return [r, &report](Checker* c) {
      CheckShardIndependence(r, *report, "t", c);
    };
  };
  ExpectRejects("shard-independence check", shard_check(*merged),
                {{"a moved bucket boundary", shard_check(moved_bucket)},
                 {"a lost row", shard_check(lost_row)}});
}

void TestServiceChecks() {
  const std::vector<int64_t> values = Column();
  const ExactTally tally(values);
  dphist::db::Catalog catalog;
  catalog.AddTable("t", dphist::workload::ColumnToTable(values, 2, 7));
  accel::Device device{accel::AcceleratorConfig{}};
  svc::StatsService service(&catalog, &device);
  Expect(service.Start().ok(), "service start");
  svc::StatsRequest request;
  request.table = "t";
  request.params = Request();
  request.kind = svc::RequestKind::kRead;
  const svc::StatsResponse scanned = service.SubmitAndWait(request);
  const svc::StatsResponse cached = service.SubmitAndWait(request);
  service.Stop();
  Expect(scanned.status.ok() && scanned.path == svc::ServePath::kScan &&
             cached.status.ok() && cached.path == svc::ServePath::kCache,
         "service responses");
  const uint64_t version = scanned.stats.version;

  auto response_check = [&](svc::StatsResponse r, uint64_t at_submit) {
    return [r, at_submit, &tally](Checker* c) {
      CheckServedResponse(r, at_submit, Request(), tally, "t", c);
    };
  };
  svc::StatsResponse loose = scanned;
  loose.contract.max_depth_error += 1;
  svc::StatsResponse short_contract = scanned;
  short_contract.contract.rows_described -= 1;
  svc::StatsResponse fallback = scanned;
  fallback.path = svc::ServePath::kFallback;
  svc::StatsResponse stale_cache = cached;
  stale_cache.stats.row_count += 1;
  ExpectRejects(
      "served-response check", response_check(scanned, version),
      {{"a response older than the version at submit",
        response_check(scanned, version + 1)},
       {"a certificate looser than the recomputed bound",
        response_check(loose, version)},
       {"a contract that omits a row", response_check(short_contract, version)},
       {"a fallback-served response", response_check(fallback, version)},
       {"a cached row count off by one", response_check(stale_cache, version)}});
  Expect(Passes([&](Checker* c) { CheckServedResponse(cached, version, Request(), tally, "t", c); }),
         "served-response check accepts a cache hit");

  const svc::ServiceCounters counters = service.counters();
  svc::ServiceCounters unbalanced = counters;
  unbalanced.cache_hits += 1;
  svc::ServiceCounters lost_shed = counters;
  lost_shed.submitted += 1;
  ExpectRejects(
      "service ledger check",
      [&](Checker* c) { CheckServiceLedger(counters, c); },
      {{"a double-booked cache hit",
        [&](Checker* c) { CheckServiceLedger(unbalanced, c); }},
       {"an unbooked submission",
        [&](Checker* c) { CheckServiceLedger(lost_shed, c); }}});
}

void TestDurability() {
  const std::string dir = ".perfbench-checks-test/wal";
  const std::string image = ".perfbench-checks-test/image";
  std::error_code ec;
  std::filesystem::remove_all(".perfbench-checks-test", ec);

  const std::vector<int64_t> values = Column();
  dphist::db::Catalog catalog;
  catalog.AddTable("t", dphist::workload::ColumnToTable(values, 2, 7));
  SyncTrackingFileSystem fs;
  persist::PersistOptions options;
  options.dir = dir;
  options.fs = &fs;
  options.checkpoint_every_installs = 3;
  persist::RecoveryManager manager(&catalog, options);
  Expect(manager.Recover().ok(), "cold recover");
  accel::Device device{accel::AcceleratorConfig{}};
  dphist::db::DataPathScanner scanner(&catalog, &device);
  for (int i = 0; i < 5; ++i) {
    (void)catalog.BumpDataVersion("t");
    manager.OnDataVersionBump("t", (*catalog.Find("t"))->data_version);
    Expect(scanner.ScanAndRefresh("t", 0, Request()).ok(), "scan");
    manager.OnStatsInstalled("t", 0, **catalog.GetColumnStats("t", 0));
  }
  // Bytes appended but never synced must not reach the crash image.
  {
    auto file = fs.OpenForAppend(dir + "/unsynced.log");
    const uint8_t junk[4] = {1, 2, 3, 4};
    Expect(file.ok() && (*file)->Append(junk).ok(), "unsynced append");
  }
  Expect(fs.BuildCrashImage(dir, image).ok(), "crash image");
  Expect(!std::filesystem::exists(image + "/unsynced.log"),
         "crash image leaves out unsynced files");

  dphist::db::Catalog restarted;
  restarted.AddTable("t", dphist::workload::ColumnToTable(values, 2, 7));
  persist::PersistOptions image_options;
  image_options.dir = image;
  {
    persist::RecoveryManager recovery(&restarted, image_options);
    Expect(recovery.Recover().ok(), "recover from image");
  }
  const dphist::db::ColumnStats live = **catalog.GetColumnStats("t", 0);
  const uint64_t live_version = (*catalog.Find("t"))->data_version;
  const dphist::db::ColumnStats recovered = **restarted.GetColumnStats("t", 0);
  const uint64_t recovered_version = (*restarted.Find("t"))->data_version;

  auto recovered_check = [&](dphist::db::ColumnStats r, uint64_t v) {
    return [r, v, &live, live_version](Checker* c) {
      CheckRecovered(live, live_version, r, v, "t", c);
    };
  };
  dphist::db::ColumnStats not_marked = recovered;
  not_marked.provenance = dphist::db::StatsProvenance::kImplicit;
  dphist::db::ColumnStats older = recovered;
  older.version -= 1;
  dphist::db::ColumnStats changed = recovered;
  ++changed.histogram.buckets[0].count;
  ExpectRejects(
      "recovery check", recovered_check(recovered, recovered_version),
      {{"stats not stamped kRecovered", recovered_check(not_marked, recovered_version)},
       {"stats of an earlier install", recovered_check(older, recovered_version)},
       {"a changed histogram", recovered_check(changed, recovered_version)},
       {"a lost version bump",
        recovered_check(recovered, recovered_version - 1)}});

  // A crash image cut before the last synced append loses the last
  // install, and the recovery check notices.
  std::filesystem::remove_all(image, ec);
  std::filesystem::create_directories(image, ec);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name == "unsynced.log") continue;
    std::vector<uint8_t> bytes = *fs.ReadAll(entry.path().string());
    if (name.rfind("wal-", 0) == 0 && bytes.size() > 8) {
      bytes.resize(bytes.size() - 8);  // tear the last record
    }
    std::FILE* out = std::fopen((image + "/" + name).c_str(), "wb");
    std::fwrite(bytes.data(), 1, bytes.size(), out);
    std::fclose(out);
  }
  dphist::db::Catalog torn;
  torn.AddTable("t", dphist::workload::ColumnToTable(values, 2, 7));
  {
    persist::RecoveryManager recovery(&torn, image_options);
    Expect(recovery.Recover().ok(), "recover from torn image");
  }
  Expect(!Passes(recovered_check(**torn.GetColumnStats("t", 0),
                                 (*torn.Find("t"))->data_version)),
         "recovery check rejects a torn last install");
  std::filesystem::remove_all(".perfbench-checks-test", ec);
}

}  // namespace

int main() {
  TestTally();
  TestScanChecks();
  TestServiceChecks();
  TestDurability();
  if (failures == 0) std::printf("all check tests passed\n");
  return failures == 0 ? 0 : 1;
}
