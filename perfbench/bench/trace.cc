#include "trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {
namespace {

thread_local std::vector<int64_t> t_open_stack;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

int64_t Tracer::Since(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int64_t Tracer::Open(const char* name, uint64_t op) {
  SpanRecord span;
  span.name = name;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = t_open_stack.empty() ? 0 : t_open_stack.back();
  span.op = op;
  span.start_ns = Since(Clock::now());
  t_open_stack.push_back(span.id);
  std::lock_guard<std::mutex> lock(mu_);
  open_[span.id] = spans_.size();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::Close(int64_t id) {
  const int64_t end = Since(Clock::now());
  if (!t_open_stack.empty() && t_open_stack.back() == id) {
    t_open_stack.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns = end;
  open_.erase(it);
}

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end, uint64_t op, int64_t parent) {
  if (!enabled()) return;
  SpanRecord span;
  span.name = name;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent;
  span.op = op;
  span.start_ns = Since(start);
  span.end_ns = Since(end);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, SelfTime> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SelfTime> out;
  for (const SpanRecord& s : spans_) {
    const int64_t dur = s.end_ns - s.start_ns;
    // Union of the child intervals, clipped to this span.
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t run_lo = 0, run_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > run_hi) {
          if (run_hi > run_lo) covered += run_hi - run_lo;
          run_lo = lo;
          run_hi = hi;
        } else {
          run_hi = std::max(run_hi, hi);
        }
      }
      if (run_hi > run_lo) covered += run_hi - run_lo;
    }
    SelfTime& agg = out[s.name];
    agg.calls += 1;
    agg.total_ms += double(dur) / 1e6;
    agg.self_ms += double(dur - covered) / 1e6;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return bool(out);
}

}  // namespace perfbench
