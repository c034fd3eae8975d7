#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "cluster/coordinator.h"
#include "db/stats.h"
#include "hist/types.h"
#include "svc/service.h"

namespace perfbench {

namespace db = dphist::db;
namespace hist = dphist::hist;

/// The benchmark's own exact per-value tally of a column, computed from
/// the generated inputs alone (never from program output). Every
/// correctness check compares the program's statistics against it.
class ExactTally {
 public:
  ExactTally() = default;
  explicit ExactTally(std::span<const int64_t> values);

  void Add(int64_t value, uint64_t count = 1);
  /// Removes one occurrence; false when the value is not present.
  bool Remove(int64_t value);

  uint64_t total() const { return total_; }
  uint64_t distinct() const;
  uint64_t Count(int64_t value) const;
  /// Rows with lo <= value <= hi.
  uint64_t RangeCount(int64_t lo, int64_t hi) const;
  /// Largest single-value count (0 when empty).
  uint64_t MaxCount() const;
  /// All per-value counts, largest first.
  const std::vector<uint64_t>& CountsDescending() const;

 private:
  /// Rebuilds the sorted arrays and prefix sums after a mutation.
  void Seal() const;

  std::map<int64_t, uint64_t> live_;
  mutable std::vector<int64_t> values_;
  mutable std::vector<uint64_t> counts_;
  mutable std::vector<uint64_t> prefix_;  ///< prefix_[i] = sum counts_[0..i)
  mutable std::vector<uint64_t> descending_;  ///< counts_, largest first
  mutable bool sealed_ = false;
  uint64_t total_ = 0;
};

/// Collects failed checks (the first few messages are kept).
class Checker {
 public:
  void Fail(const std::string& message);
  bool ok() const { return failures_ == 0; }
  uint64_t failures() const { return failures_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// Buckets are ordered and disjoint, every bucket count (and singleton
/// count) equals the tally over its range (singleton values excluded from
/// the bucket they fall in), and buckets plus singletons sum to
/// `rows_described`.
void CheckHistogram(const hist::Histogram& histogram, const ExactTally& tally,
                    uint64_t rows_described, const std::string& what,
                    Checker* checker);

/// Certified equi-depth depth error (Yıldız et al.): with target depth
/// t = max(1, ceil(N / B)) and certified error E, every bucket but the
/// last has depth in [t, t + E] and the last in (0, t + E]. E is the
/// program's certificate when it states one (`certified_error` >= 0), and
/// must then equal the bound recomputed from the tally (largest value
/// count - 1); otherwise the recomputed bound is used.
void CheckEquiDepthBound(const hist::Histogram& equi_depth,
                         uint32_t num_buckets, const ExactTally& tally,
                         int64_t certified_error, const std::string& what,
                         Checker* checker);

/// Every entry's count is exact, entries are ordered by count, and no
/// unlisted value has a larger count than the k-th entry.
void CheckTopK(const std::vector<hist::ValueCount>& top_k, uint32_t k,
               const ExactTally& tally, const std::string& what,
               Checker* checker);

/// Installed column stats at granularity 1 against the tally: validity,
/// row_count, exact NDV, the planner histogram, and the top-k list.
void CheckColumnStats(const db::ColumnStats& stats, uint32_t top_k,
                      const ExactTally& tally, const std::string& what,
                      Checker* checker);

/// Cluster-merged statistics must not depend on the shard count: they
/// equal the single-device statistics of the same column.
void CheckShardIndependence(const dphist::cluster::ClusterScanReport& merged,
                            const dphist::accel::AcceleratorReport& single,
                            const std::string& what, Checker* checker);

/// One service response for a table whose exact tally is `tally`: stamped
/// at or after `version_at_submit` (the data version current when the
/// request was submitted) and served by scan or cache. A scan-served
/// response must carry exact statistics and an accuracy contract that
/// describes the whole table and certifies its equi-depth histogram; a
/// cache-served one must carry the table's row count.
void CheckServedResponse(const dphist::svc::StatsResponse& response,
                         uint64_t version_at_submit,
                         const dphist::accel::ScanRequest& params,
                         const ExactTally& tally, const std::string& what,
                         Checker* checker);

/// Durability: stats recovered after a crash equal the stats the last
/// acknowledged write installed (provenance aside, which must read
/// kRecovered), at the same data version.
void CheckRecovered(const db::ColumnStats& acknowledged,
                    uint64_t acknowledged_version,
                    const db::ColumnStats& recovered,
                    uint64_t recovered_version, const std::string& what,
                    Checker* checker);

/// The service ledger: submitted = accepted + shed, accepted = sum of
/// ladder dequeues + coalesced + cache hits + stop-drained + displaced.
void CheckServiceLedger(const dphist::svc::ServiceCounters& counters,
                        Checker* checker);

/// q-error of one estimate: max(e, a) / min(e, a) with both floored at 1.
double QError(double estimate, double actual);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
