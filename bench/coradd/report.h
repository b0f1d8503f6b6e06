// What one bench_coradd run reports: named metrics with units, and a tally
// of checked operations. Every check that fails is printed to stderr and
// counted, and a run with any failure exits non-zero.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "benchkit/json_util.h"

namespace coradd::bench_coradd {

class Report {
 public:
  /// Records (or replaces) metric `name`.
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back(Metric{name, value, unit});
  }

  /// Counts one attempted operation; a false `ok` counts a failure and
  /// prints `what`.
  void Check(bool ok, const std::string& what) { Count(1, ok ? 0 : 1, what); }

  /// Counts `attempted` operations of which `failed` failed, and prints
  /// `what` when any did.
  void Count(uint64_t attempted, uint64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) {
      std::fprintf(stderr, "CHECK FAILED (%llu of %llu): %s\n",
                   static_cast<unsigned long long>(failed),
                   static_cast<unsigned long long>(attempted), what.c_str());
    }
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// One JSON object: correct, attempted, failed and every metric.
  std::string ToJson() const {
    std::string out = "{\"correct\": ";
    out += failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += (i == 0 ? "" : ", ") + benchkit::JsonQuote(m.name) +
             ": {\"value\": " + benchkit::JsonNum(m.value) +
             ", \"unit\": " + benchkit::JsonQuote(m.unit) + "}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Nearest-rank percentile (q in [0, 1]) of `samples`; 0 when empty.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

/// a / b, or 0 when b is 0.
inline double Ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

}  // namespace coradd::bench_coradd
