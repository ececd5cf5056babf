// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only by benchmark code: the client around each
// request, the benchmark-owned stage bodies and ExecEnv wrappers, and the
// ladder rungs. Nothing inside src/ is instrumented. Spans of one request
// share its request id (`rid`); a stage body finds the id in its params and
// becomes the parent of the env-call spans it makes on the same thread.
// Recording is off unless a traced phase switched it on, so an untraced
// phase pays one relaxed load per would-be span.

#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/clock.h"

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // string literal
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t rid = 0;     // request id shared by one request's spans
  int64_t start_nanos = 0;
  int64_t dur_nanos = 0;
  int64_t bytes = 0;  // payload moved, for data-plane spans
};

class SpanLog {
 public:
  static SpanLog& Global() {
    static SpanLog* log = new SpanLog();
    return *log;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Add(const SpanRecord& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }
  // Copy of the spans recorded since `mark` (a previous size()).
  std::vector<SpanRecord> Since(size_t mark) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (mark >= spans_.size()) {
      return {};
    }
    return std::vector<SpanRecord>(spans_.begin() + static_cast<long>(mark),
                                   spans_.end());
  }

  // Chrome trace-event JSON (open in ui.perfetto.dev); ids and parents ride
  // in args so self time can be computed offline.
  bool WriteChromeTrace(const std::string& path, int pid) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%llu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"rid\":%llu,\"bytes\":%lld}}\n",
                   i == 0 ? "" : ",", s.name, pid,
                   static_cast<unsigned long long>(s.rid),
                   static_cast<double>(s.start_nanos) / 1e3,
                   static_cast<double>(s.dur_nanos) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.rid),
                   static_cast<long long>(s.bytes));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  SpanLog() { spans_.reserve(1 << 20); }

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

// The span the current thread is inside, inherited as parent by spans
// opened below it on the same thread.
inline thread_local uint64_t t_parent_span = 0;
inline thread_local uint64_t t_request_id = 0;

// Records [construction, destruction) as one span when the log is enabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t parent, uint64_t rid)
      : active_(SpanLog::Global().enabled()) {
    if (!active_) {
      return;
    }
    span_.name = name;
    span_.id = SpanLog::Global().NextId();
    span_.parent = parent;
    span_.rid = rid;
    saved_parent_ = t_parent_span;
    saved_rid_ = t_request_id;
    t_parent_span = span_.id;
    t_request_id = rid;
    span_.start_nanos = asbase::MonoNanos();
  }
  // Child of whatever span the thread is inside.
  explicit ScopedSpan(const char* name)
      : ScopedSpan(name, t_parent_span, t_request_id) {}

  ~ScopedSpan() {
    if (!active_) {
      return;
    }
    span_.dur_nanos = asbase::MonoNanos() - span_.start_nanos;
    t_parent_span = saved_parent_;
    t_request_id = saved_rid_;
    SpanLog::Global().Add(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_bytes(int64_t bytes) { span_.bytes = bytes; }

 private:
  bool active_;
  SpanRecord span_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_rid_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
