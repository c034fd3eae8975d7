#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Innermost open span of this thread, and a small thread ordinal for the
/// trace's track ids.
thread_local uint64_t tls_open_span = 0;
thread_local uint32_t tls_thread = 0;
std::atomic<uint32_t> next_thread{1};

uint32_t ThreadOrdinal() {
  if (tls_thread == 0) tls_thread = next_thread.fetch_add(1);
  return tls_thread;
}

}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* layer, const char* name)
    : tracer_(tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  record_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  record_.parent = tls_open_span;
  record_.layer = layer;
  record_.name = name;
  record_.thread = ThreadOrdinal();
  tls_open_span = record_.id;
  record_.start_ns = NowNanos();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_ns = NowNanos();
  tls_open_span = record_.parent;
  tracer_->Record(record_);
}

void Tracer::Record(const SpanRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(record);
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans_) {
    const uint64_t duration = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    const uint64_t children = it == child_ns.end() ? 0 : it->second;
    const uint64_t own = children < duration ? duration - children : 0;
    self[s.layer] += static_cast<double>(own) * 1e-9;
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const SpanRecord& s : spans_) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.layer, s.thread,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
