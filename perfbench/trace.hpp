// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own code, around calls into
// the library's public API; nothing inside src/ is instrumented.  A span
// holds a name ("<layer>.<what>"), start and end on the steady clock, the
// index of its parent span (-1 for a root) and the item it belongs to.  A
// disabled Tracer records nothing, so the untraced run pays one branch per
// would-be span.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  std::uint64_t item = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (-1 when disabled).
  int open(const char* name, std::uint64_t item, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, Clock::now(), {}, parent, item});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = Clock::now();
  }

  /// Self time (span minus the spans whose parent it is), summed by name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += seconds_between(s.start, s.end);
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += seconds_between(s.start, s.end) - child[i];
    }
    return out;
  }

  /// One span per line: name, start and end in ns since the first span,
  /// parent index, item id (tab-separated).
  void write(std::ostream& out) const {
    if (spans_.empty()) return;
    const Clock::time_point t0 = spans_.front().start;
    auto ns = [&](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0).count();
    };
    out << "name\tstart_ns\tend_ns\tparent\titem\n";
    for (const Span& s : spans_) {
      out << s.name << '\t' << ns(s.start) << '\t' << ns(s.end) << '\t'
          << s.parent << '\t' << s.item << '\n';
    }
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: closed when the scope ends.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t item, int parent = -1)
      : tracer_(tracer), id_(tracer.open(name, item, parent)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
