// The traced run's spans: one per call into a module's public function,
// recorded by the benchmark around the call. Spans stay in memory until
// the run ends, then go out as JSON lines plus a self-time summary.

#ifndef TMS_E2EBENCH_TRACE_H_
#define TMS_E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace e2ebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration() const { return end_ns - start_ns; }
};

// Single-threaded: the traced run drives every layer from one thread.
class Tracer {
 public:
  // Opens a span under the innermost open one.
  int64_t Open(std::string name) {
    SpanRecord s;
    s.id = static_cast<int64_t>(spans_.size()) + 1;
    s.parent = open_.empty() ? 0 : open_.back();
    s.request = request_;
    s.name = std::move(name);
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    // After the push_back: a reallocation of spans_ is not the span's time.
    spans_.back().start_ns = NowNs();
    return spans_.back().id;
  }

  // Closes the innermost open span and returns its duration.
  int64_t Close() {
    SpanRecord& s = spans_[static_cast<size_t>(open_.back() - 1)];
    open_.pop_back();
    s.end_ns = NowNs();
    return s.duration();
  }

  void set_request(int64_t request) { request_ = request; }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  void WriteJsonLines(std::ostream& out) const {
    for (const SpanRecord& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
  }

  // Per span name: calls, total and self time (duration minus the part
  // covered by child spans).
  void WriteSummary(std::ostream& out) const {
    std::vector<int64_t> child_ns(spans_.size() + 1, 0);
    for (const SpanRecord& s : spans_) {
      if (s.parent == 0) continue;
      child_ns[static_cast<size_t>(s.parent)] += s.duration();
    }
    struct Row {
      int64_t calls = 0, total_ns = 0, self_ns = 0;
    };
    std::map<std::string, Row> rows;
    for (const SpanRecord& s : spans_) {
      Row& r = rows[s.name];
      ++r.calls;
      r.total_ns += s.duration();
      r.self_ns += s.duration() - child_ns[static_cast<size_t>(s.id)];
    }
    out << "span                              calls     total_ms"
           "      self_ms\n";
    for (const auto& [name, r] : rows) {
      char line[160];
      std::snprintf(line, sizeof(line), "%-30s %8lld %12.3f %12.3f\n",
                    name.c_str(), static_cast<long long>(r.calls),
                    r.total_ns / 1e6, r.self_ns / 1e6);
      out << line;
    }
  }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int64_t> open_;
  int64_t request_ = 0;
};

// RAII span.
class Span {
 public:
  Span(Tracer* tracer, std::string name) : tracer_(tracer) {
    tracer_->Open(std::move(name));
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->Close();
  }
  // Closes early; returns the duration.
  int64_t End() {
    Tracer* t = tracer_;
    tracer_ = nullptr;
    return t->Close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace e2ebench

#endif  // TMS_E2EBENCH_TRACE_H_
