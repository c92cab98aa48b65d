// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent span, operation id). Spans are
// kept in memory while the benchmark runs and written out once at the
// end. The recorder starts disabled: untraced runs record nothing, and
// a disabled Span costs one relaxed atomic load.
//
// Spans wrap the benchmark's own calls into the library's public
// functions (one span per call or per timed batch of calls), not code
// inside the library.

#ifndef PERFBENCH_BENCH_TRACE_H_
#define PERFBENCH_BENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;  ///< since the recorder's epoch
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;    ///< 0 = root
  uint64_t op = 0;       ///< operation id (alert or upload index)
};

/// Per span name: calls, total time, and self time (duration minus the
/// part of it covered by child spans).
struct SelfTime {
  size_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on this thread (its parent is the innermost span open
  /// on this thread). Returns 0 when disabled.
  int64_t Open(const char* name, uint64_t op);
  void Close(int64_t id);

  /// Records a finished span measured elsewhere (for example an upload
  /// whose send and ack happen on different threads).
  void Record(const char* name, Clock::time_point start,
              Clock::time_point end, uint64_t op, int64_t parent);

  size_t size() const;
  std::map<std::string, SelfTime> SelfTimes() const;

  /// Writes every span as one JSON object per line. Returns false on an
  /// I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Tracer();
  int64_t Since(Clock::time_point t) const;

  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;       // guarded by mu_
  std::map<int64_t, size_t> open_;      // span id -> index, guarded by mu_
  std::atomic<int64_t> next_id_{1};
};

/// RAII span on the calling thread.
class Span {
 public:
  explicit Span(const char* name, uint64_t op = 0)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Open(name, op) : 0) {}
  ~Span() {
    if (id_ != 0) Tracer::Get().Close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_TRACE_H_
