#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. The benchmark opens one
/// span around each public call it makes into a layer; spans nest per
/// host thread (the innermost open span on the calling thread is the
/// parent). Nothing is written until the run ends. When disabled, a
/// span costs one branch.
class Tracer {
 public:
  struct SpanRecord {
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root
    const char* layer = "";
    const char* name = "";
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint32_t thread = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span. `layer` and `name` must be string literals.
  class Span {
   public:
    Span(Tracer* tracer, const char* layer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    SpanRecord record_;
  };

  size_t span_count() const;

  /// Self time per layer, in seconds: each span's duration minus the
  /// durations of its direct children (children of one span run on its
  /// thread, one after another, so they never overlap).
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes the spans as a Chrome trace (chrome://tracing JSON).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  void Record(const SpanRecord& record);

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< guarded by mu_
  std::atomic<uint64_t> next_id_{1};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
