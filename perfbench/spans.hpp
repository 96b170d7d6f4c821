// Host clock, sample medians and in-memory spans for the benchmark.
//
// Every span is recorded by the benchmark itself around a call into one
// picpar module (nothing under src/ is instrumented). A span has a name,
// start and end on the host's steady clock, and the index of the span that
// caused it; all spans of one benchmark run share the run id. Spans stay in
// memory and are exported once, when the benchmark ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "json.hpp"
#include "util/stats.hpp"

namespace perfbench {

/// Host steady-clock nanoseconds since the first call in this process.
inline std::int64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                              epoch)
      .count();
}

inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Median of host-time samples; throws on an empty set, so a run whose
/// repetitions all failed reports no time rather than 0.
inline double median(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  return picpar::percentile(v, 0.5);
}

/// Mean of host-time samples, with median()'s empty-set rule. The host's
/// speed switches between a fast and a slow level for seconds at a time,
/// so a run's samples mix the two; the median jumps between the levels
/// as their mix crosses one half, the mean moves with the mix.
inline double mean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("mean of no samples");
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  int parent = -1;           ///< index into the span list; -1 = root
};

/// Span store with an open-span stack, so a span opened inside another
/// becomes its child. Not thread-safe: the benchmark records from one
/// thread at a time (the sequential engine runs one simulated rank at a
/// time, and the handoff between rank threads orders their accesses).
class Spans {
public:
  explicit Spans(std::string run_id) : run_id_(std::move(run_id)) {}

  /// Open a span as a child of the innermost open span.
  void open(std::string name) {
    spans_.push_back(
        {std::move(name), now_ns(), -1, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  /// Close the innermost open span.
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Record an already-measured interval as a child of the innermost open
  /// span (used for intervals bracketed inside a simulated rank).
  void add(std::string name, std::int64_t start, std::int64_t end) {
    spans_.push_back(
        {std::move(name), start, end, stack_.empty() ? -1 : stack_.back()});
  }

  /// Self time of every span: its duration minus the part of its interval
  /// covered by its children.
  std::vector<double> self_seconds() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_)
      if (s.parent >= 0)
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                              s.end_ns);
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0, reach = spans_[i].start_ns;
      for (const auto& [a, b] : iv) {
        const std::int64_t lo = std::max(a, reach);
        const std::int64_t hi = std::min(b, spans_[i].end_ns);
        if (hi > lo) covered += hi - lo;
        reach = std::max(reach, hi);
      }
      self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                    covered) *
                1e-9;
    }
    return self;
  }

  /// {"run_id": ..., "spans": [{"id", "name", "parent", "start_ns",
  /// "end_ns", "self_s"}, ...]}
  void write(Json& j) const {
    const auto self = self_seconds();
    j.begin_object();
    j.key("run_id").str(run_id_);
    j.key("spans").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      j.begin_object();
      j.key("id").num(static_cast<std::int64_t>(i));
      j.key("name").str(s.name);
      j.key("parent").num(static_cast<std::int64_t>(s.parent));
      j.key("start_ns").num(s.start_ns);
      j.key("end_ns").num(s.end_ns);
      j.key("self_s").num(self[i]);
      j.end_object();
    }
    j.end_array();
    j.end_object();
  }

private:
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
public:
  Scope(Spans& s, std::string name) : s_(s) { s_.open(std::move(name)); }
  ~Scope() { s_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  Spans& s_;
};

}  // namespace perfbench
