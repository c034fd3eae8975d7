#include "checks.h"

#include <algorithm>

#include "db/stats_codec.h"

namespace perfbench {

namespace {

std::string Str(uint64_t v) { return std::to_string(v); }
std::string Str(int64_t v) { return std::to_string(v); }

}  // namespace

ExactTally::ExactTally(std::span<const int64_t> values) {
  std::vector<int64_t> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    live_.emplace_hint(live_.end(), sorted[i], j - i);
    i = j;
  }
  total_ = sorted.size();
  Seal();  // queries on a sealed tally are read-only, so threads may share it
}

void ExactTally::Add(int64_t value, uint64_t count) {
  live_[value] += count;
  total_ += count;
  sealed_ = false;
}

bool ExactTally::Remove(int64_t value) {
  auto it = live_.find(value);
  if (it == live_.end()) return false;
  if (--it->second == 0) live_.erase(it);
  --total_;
  sealed_ = false;
  return true;
}

void ExactTally::Seal() const {
  if (sealed_) return;
  values_.clear();
  counts_.clear();
  prefix_.assign(1, 0);
  for (const auto& [value, count] : live_) {
    values_.push_back(value);
    counts_.push_back(count);
    prefix_.push_back(prefix_.back() + count);
  }
  descending_ = counts_;
  std::sort(descending_.begin(), descending_.end(), std::greater<>());
  sealed_ = true;
}

uint64_t ExactTally::distinct() const { return live_.size(); }

uint64_t ExactTally::Count(int64_t value) const {
  auto it = live_.find(value);
  return it == live_.end() ? 0 : it->second;
}

uint64_t ExactTally::RangeCount(int64_t lo, int64_t hi) const {
  if (hi < lo) return 0;
  Seal();
  const size_t a =
      std::lower_bound(values_.begin(), values_.end(), lo) - values_.begin();
  const size_t b =
      std::upper_bound(values_.begin(), values_.end(), hi) - values_.begin();
  return prefix_[b] - prefix_[a];
}

uint64_t ExactTally::MaxCount() const {
  Seal();
  return descending_.empty() ? 0 : descending_.front();
}

const std::vector<uint64_t>& ExactTally::CountsDescending() const {
  Seal();
  return descending_;
}

void Checker::Fail(const std::string& message) {
  ++failures_;
  if (messages_.size() < 20) messages_.push_back(message);
}

void CheckHistogram(const hist::Histogram& histogram, const ExactTally& tally,
                    uint64_t rows_described, const std::string& what,
                    Checker* checker) {
  uint64_t sum = 0;
  std::vector<int64_t> singleton_values;
  for (const hist::ValueCount& s : histogram.singletons) {
    if (s.count != tally.Count(s.value)) {
      checker->Fail(what + ": singleton " + Str(s.value) + " count " +
                    Str(s.count) + " != exact " + Str(tally.Count(s.value)));
    }
    singleton_values.push_back(s.value);
    sum += s.count;
  }
  std::sort(singleton_values.begin(), singleton_values.end());
  for (size_t i = 0; i < histogram.buckets.size(); ++i) {
    const hist::Bucket& b = histogram.buckets[i];
    if (b.lo > b.hi) {
      checker->Fail(what + ": bucket " + Str(uint64_t{i}) + " inverted");
      continue;
    }
    if (i > 0 && histogram.buckets[i - 1].hi >= b.lo) {
      checker->Fail(what + ": buckets " + Str(uint64_t{i - 1}) + "/" +
                    Str(uint64_t{i}) + " overlap or are out of order");
    }
    uint64_t exact = tally.RangeCount(b.lo, b.hi);
    for (auto it = std::lower_bound(singleton_values.begin(),
                                    singleton_values.end(), b.lo);
         it != singleton_values.end() && *it <= b.hi; ++it) {
      exact -= tally.Count(*it);
    }
    if (b.count != exact) {
      checker->Fail(what + ": bucket [" + Str(b.lo) + ", " + Str(b.hi) +
                    "] count " + Str(b.count) + " != exact " + Str(exact));
    }
    sum += b.count;
  }
  if (sum != rows_described) {
    checker->Fail(what + ": buckets + singletons sum to " + Str(sum) +
                  ", rows described " + Str(rows_described));
  }
}

void CheckEquiDepthBound(const hist::Histogram& equi_depth,
                         uint32_t num_buckets, const ExactTally& tally,
                         int64_t certified_error, const std::string& what,
                         Checker* checker) {
  const uint64_t n = tally.total();
  if (n == 0 || num_buckets == 0) return;
  const uint64_t t = std::max<uint64_t>(1, (n + num_buckets - 1) / num_buckets);
  const uint64_t recomputed = tally.MaxCount() - 1;
  uint64_t bound = recomputed;
  if (certified_error >= 0) {
    if (static_cast<uint64_t>(certified_error) != recomputed) {
      checker->Fail(what + ": certified max_depth_error " +
                    Str(certified_error) + " != recomputed " +
                    Str(recomputed));
    }
    bound = static_cast<uint64_t>(certified_error);
  }
  const size_t buckets = equi_depth.buckets.size();
  if (buckets == 0) {
    checker->Fail(what + ": empty equi-depth histogram");
    return;
  }
  for (size_t i = 0; i < buckets; ++i) {
    const uint64_t depth = equi_depth.buckets[i].count;
    const bool last = i + 1 == buckets;
    const bool low_ok = last ? depth > 0 : depth >= t;
    if (!low_ok || depth > t + bound) {
      checker->Fail(what + ": bucket " + Str(uint64_t{i}) + " depth " +
                    Str(depth) + " outside certified [" +
                    Str(last ? uint64_t{1} : t) + ", " + Str(t + bound) + "]");
    }
  }
}

void CheckTopK(const std::vector<hist::ValueCount>& top_k, uint32_t k,
               const ExactTally& tally, const std::string& what,
               Checker* checker) {
  const std::vector<uint64_t>& exact = tally.CountsDescending();
  const size_t expect = std::min<size_t>(k, exact.size());
  if (top_k.size() != expect) {
    checker->Fail(what + ": top-k has " + Str(uint64_t{top_k.size()}) +
                  " entries, expected " + Str(uint64_t{expect}));
  }
  for (size_t i = 0; i < top_k.size(); ++i) {
    const hist::ValueCount& e = top_k[i];
    if (e.count != tally.Count(e.value)) {
      checker->Fail(what + ": top-k value " + Str(e.value) + " count " +
                    Str(e.count) + " != exact " + Str(tally.Count(e.value)));
    }
    // With exact entry counts, matching the i-th largest exact count at
    // every rank means no unlisted value beats any listed one.
    if (i < exact.size() && e.count != exact[i]) {
      checker->Fail(what + ": top-k rank " + Str(uint64_t{i}) + " count " +
                    Str(e.count) + " but the rank's exact count is " +
                    Str(exact[i]));
    }
  }
}

void CheckColumnStats(const db::ColumnStats& stats, uint32_t top_k,
                      const ExactTally& tally, const std::string& what,
                      Checker* checker) {
  if (!stats.valid) {
    checker->Fail(what + ": stats not valid");
    return;
  }
  if (stats.row_count != tally.total()) {
    checker->Fail(what + ": row_count " + Str(stats.row_count) +
                  " != exact " + Str(tally.total()));
  }
  if (!stats.ndv_from_sketch && stats.ndv != tally.distinct()) {
    checker->Fail(what + ": ndv " + Str(stats.ndv) + " != exact " +
                  Str(tally.distinct()));
  }
  CheckHistogram(stats.histogram, tally, tally.total(), what + " histogram",
                 checker);
  CheckTopK(stats.top_k, top_k, tally, what + " top-k", checker);
}

void CheckShardIndependence(const dphist::cluster::ClusterScanReport& merged,
                            const dphist::accel::AcceleratorReport& single,
                            const std::string& what, Checker* checker) {
  if (merged.rows != single.rows ||
      merged.distinct_values != single.distinct_values) {
    checker->Fail(what + ": rows/distinct differ");
  }
  if (merged.histograms.top_k != single.histograms.top_k) {
    checker->Fail(what + ": top-k differs");
  }
  const hist::Histogram& a = merged.histograms.equi_depth;
  const hist::Histogram& b = single.histograms.equi_depth;
  if (a.buckets != b.buckets || a.total_count != b.total_count) {
    checker->Fail(what + ": equi-depth differs");
  }
  const hist::Histogram& c = merged.histograms.compressed;
  const hist::Histogram& d = single.histograms.compressed;
  if (c.buckets != d.buckets || c.singletons != d.singletons) {
    checker->Fail(what + ": compressed differs");
  }
}

void CheckServedResponse(const dphist::svc::StatsResponse& response,
                         uint64_t version_at_submit,
                         const dphist::accel::ScanRequest& params,
                         const ExactTally& tally, const std::string& what,
                         Checker* checker) {
  namespace svc = dphist::svc;
  if (response.stats.version < version_at_submit) {
    checker->Fail(what + ": served version " + Str(response.stats.version) +
                  " predates the version current at submit " +
                  Str(version_at_submit));
  }
  if (response.path == svc::ServePath::kCache) {
    if (response.stats.row_count != tally.total()) {
      checker->Fail(what + ": cached row_count mismatch");
    }
    return;
  }
  if (response.path != svc::ServePath::kScan) {
    checker->Fail(what + ": served by " +
                  std::string(svc::ServePathName(response.path)));
    return;
  }
  CheckColumnStats(response.stats, params.top_k, tally, what, checker);
  const svc::AccuracyContract& contract = response.contract;
  const uint64_t target = std::max<uint64_t>(
      1, (tally.total() + params.num_buckets - 1) / params.num_buckets);
  if (!contract.certified || contract.rows_described != tally.total() ||
      contract.target_depth != target) {
    checker->Fail(what + ": accuracy contract does not describe the table");
  }
  CheckEquiDepthBound(response.equi_depth, params.num_buckets, tally,
                      static_cast<int64_t>(contract.max_depth_error),
                      what + " equi-depth", checker);
}

void CheckRecovered(const db::ColumnStats& acknowledged,
                    uint64_t acknowledged_version,
                    const db::ColumnStats& recovered,
                    uint64_t recovered_version, const std::string& what,
                    Checker* checker) {
  if (recovered.provenance != db::StatsProvenance::kRecovered) {
    checker->Fail(what + ": recovered stats not stamped kRecovered");
  }
  db::ColumnStats a = acknowledged;
  db::ColumnStats b = recovered;
  a.provenance = b.provenance = db::StatsProvenance::kImplicit;
  if (db::SerializeColumnStats(a) != db::SerializeColumnStats(b)) {
    checker->Fail(what + ": recovered stats differ from the acknowledged ones");
  }
  if (recovered_version != acknowledged_version) {
    checker->Fail(what + ": recovered data version " + Str(recovered_version) +
                  " != acknowledged " + Str(acknowledged_version));
  }
}

void CheckServiceLedger(const dphist::svc::ServiceCounters& c,
                        Checker* checker) {
  uint64_t ladder = 0;
  for (uint64_t v : c.ladder_occupancy) ladder += v;
  if (c.submitted != c.accepted + c.shed) {
    checker->Fail("service ledger: submitted " + Str(c.submitted) +
                  " != accepted " + Str(c.accepted) + " + shed " +
                  Str(c.shed));
  }
  const uint64_t resolved =
      ladder + c.coalesced + c.cache_hits + c.stop_drained + c.displaced;
  if (c.accepted != resolved) {
    checker->Fail("service ledger: accepted " + Str(c.accepted) +
                  " != resolved " + Str(resolved));
  }
}

double QError(double estimate, double actual) {
  const double e = std::max(estimate, 1.0);
  const double a = std::max(actual, 1.0);
  return e > a ? e / a : a / e;
}

}  // namespace perfbench
