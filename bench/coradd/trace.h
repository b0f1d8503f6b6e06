// Benchmark-side span recorder. Spans are recorded around the calls the
// benchmark makes into each layer (the program itself is not instrumented
// here), kept in memory, and written when the run ends as Chrome trace JSON
// plus a table of self time per span name: a span's duration minus the
// part of its interval that its child spans cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "benchkit/json_util.h"

namespace coradd::bench_coradd {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    double start = 0.0;  ///< Seconds since the recorder was created.
    double end = 0.0;
    int64_t parent = -1;   ///< Id of the enclosing span; -1 for a root.
    uint64_t request = 0;  ///< Served request the span belongs to; 0 = none.
  };

  double Seconds(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }
  double Now() const { return Seconds(Clock::now()); }

  /// Records a finished span and returns its id.
  int64_t Add(std::string name, double start, double end, int64_t parent = -1,
              uint64_t request = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), start, end, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Opens a span that starts now; Close() sets its end.
  int64_t Open(std::string name, int64_t parent = -1) {
    const double now = Now();
    return Add(std::move(name), now, now, parent);
  }
  void Close(int64_t id) {
    const double now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = now;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Self seconds summed per span name.
  std::map<std::string, double> SelfSeconds() const {
    const std::vector<Span> all = spans();
    std::vector<std::vector<std::pair<double, double>>> children(all.size());
    for (const Span& s : all) {
      if (s.parent >= 0) {
        children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      std::vector<std::pair<double, double>>& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0.0;
      double reach = s.start;  // end of the union measured so far
      for (const auto& [b, e] : kids) {
        const double lo = std::max(b, reach);
        const double hi = std::min(e, s.end);
        if (hi > lo) {
          covered += hi - lo;
          reach = hi;
        }
      }
      out[s.name] += (s.end - s.start) - covered;
    }
    return out;
  }

  /// Writes the spans as Chrome trace JSON. Spans of a served request are
  /// async events keyed by the request id, since requests overlap in time;
  /// the others are complete events on one track. The self-time table goes
  /// under "selfSeconds". Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const auto us = [](double s) { return benchkit::JsonNum(s * 1e6); };
    std::fprintf(f, "{\"traceEvents\": [\n");
    const std::vector<Span> all = spans();
    for (size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      const std::string name = benchkit::JsonQuote(s.name);
      const char* sep = i + 1 < all.size() ? "," : "";
      if (s.request == 0) {
        std::fprintf(f,
                     "{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                     "\"ts\": %s, \"dur\": %s, \"args\": {\"id\": %zu, "
                     "\"parent\": %lld}}%s\n",
                     name.c_str(), us(s.start).c_str(),
                     us(s.end - s.start).c_str(), i,
                     static_cast<long long>(s.parent), sep);
      } else {
        const unsigned long long req = s.request;
        std::fprintf(f,
                     "{\"name\": %s, \"cat\": \"request\", \"ph\": \"b\", "
                     "\"pid\": 1, \"tid\": 2, \"id\": %llu, \"ts\": %s},\n"
                     "{\"name\": %s, \"cat\": \"request\", \"ph\": \"e\", "
                     "\"pid\": 1, \"tid\": 2, \"id\": %llu, \"ts\": %s}%s\n",
                     name.c_str(), req, us(s.start).c_str(), name.c_str(),
                     req, us(s.end).c_str(), sep);
      }
    }
    std::fprintf(f, "],\n\"selfSeconds\": {");
    bool first = true;
    for (const auto& [name, seconds] : SelfSeconds()) {
      std::fprintf(f, "%s%s: %s", first ? "" : ", ",
                   benchkit::JsonQuote(name).c_str(),
                   benchkit::JsonNum(seconds).c_str());
      first = false;
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
  }

 private:
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null
/// recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int64_t parent = -1)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Open(std::move(name), parent)
                                : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

}  // namespace coradd::bench_coradd
