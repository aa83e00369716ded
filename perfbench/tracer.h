// In-memory span recorder for the traced replay.
//
// The benchmark records spans around its own calls into each layer's
// public functions; nothing inside the library is instrumented.  A span
// has a name, start and end (ns since the tracer was made), its own id,
// the id of the span that caused it, and the id of the request it
// belongs to.  Spans stay in memory and are written out once, as JSON
// lines, when the run ends.
//
// The replay is sequential, so "the current parent" is a single
// process-wide value: the replay thread sets it while it is blocked in a
// call, and leaf spans opened by other threads on its behalf (the
// service's admission worker appending to the WAL, say) attach to it.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;  // 0 = root
  uint64_t request;

  double ms() const { return double(end_ns - start_ns) * 1e-6; }
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  /// While disabled, spans still measure their duration but are not kept.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void set_request(uint64_t r) { request_.store(r, std::memory_order_relaxed); }
  uint64_t parent() const { return parent_.load(std::memory_order_relaxed); }
  void set_parent(uint64_t p) { parent_.store(p, std::memory_order_relaxed); }
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  uint64_t request() const { return request_.load(std::memory_order_relaxed); }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Writes one JSON object per span.  Returns false on an I/O error.
  bool Dump(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  const Clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> request_{0};
  std::atomic<uint64_t> parent_{0};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call.  A non-leaf span becomes the current parent until it
/// ends; a leaf span (opened from another thread) leaves it alone.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, bool leaf = false)
      : t_(t), leaf_(leaf) {
    span_.name = name;
    span_.id = t_->NextId();
    span_.parent = t_->parent();
    span_.request = t_->request();
    if (!leaf_) t_->set_parent(span_.id);
    span_.start_ns = t_->Now();
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span (idempotent) and returns its duration in ms.
  double End() {
    if (!done_) {
      span_.end_ns = t_->Now();
      done_ = true;
      if (!leaf_) t_->set_parent(span_.parent);
      if (t_->enabled()) t_->Record(span_);
    }
    return span_.ms();
  }

 private:
  Tracer* t_;
  bool leaf_;
  bool done_ = false;
  Span span_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
