// bench_coradd: the repository's benchmark. One invocation runs one
// workload: CORADD designs the workload's database over a budget grid, the
// designs are checked and priced on the storage simulator, and the design
// chosen at 1x the fact heap is served under the workload's traffic with
// maintenance writes beside the reads. The last line of standard output is
// one JSON object: correct, attempted, failed, and every metric the mode
// measures. The exit code is non-zero when any check failed.
//
//   bench_coradd --workload=<name> --seed=<n> [--seconds=<s>] [--trace=FILE]
//
// Without --trace the run designs twice and serves for --seconds, and
// reports the end-to-end metrics. With --trace the run designs once
// untraced and once stage by stage with a span per call, serves for
// --seconds with spans per request, reports the per-layer metrics, and
// writes the spans to FILE as Chrome trace JSON. See README.md for every
// metric.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchkit/flags.h"
#include "benchkit/stats.h"
#include "design_phase.h"
#include "fixture.h"
#include "report.h"
#include "serve_phase.h"
#include "trace.h"
#include "workloads.h"

using namespace coradd;
using namespace coradd::bench_coradd;

namespace {

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool ParseSeed(const std::string& text, uint64_t* seed) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  *seed = std::strtoull(text.c_str(), &end, 10);
  return *end == '\0';
}

int Usage(const char* problem) {
  std::fprintf(stderr, "bench_coradd: %s\nusage: bench_coradd --workload=<",
               problem);
  for (size_t i = 0; i < std::size(kWorkloads); ++i) {
    std::fprintf(stderr, "%s%s", i == 0 ? "" : "|", kWorkloads[i].name);
  }
  std::fprintf(stderr,
               "> --seed=<n> [--seconds=<s>] [--trace=FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadSpec* spec =
      FindWorkload(benchkit::FlagValue(argc, argv, "workload", ""));
  if (spec == nullptr) return Usage("unknown or missing --workload");
  uint64_t seed = 0;
  if (!ParseSeed(benchkit::FlagValue(argc, argv, "seed", ""), &seed)) {
    return Usage("--seed must be a non-negative integer");
  }
  const double seconds = benchkit::FlagDouble(argc, argv, "seconds", 20.0);
  if (!(seconds >= 1.0 && seconds <= 600.0)) {
    return Usage("--seconds must be within [1, 600]");
  }
  const std::string trace_path = benchkit::FlagValue(argc, argv, "trace", "");
  SpanRecorder recorder;
  SpanRecorder* trace = trace_path.empty() ? nullptr : &recorder;
  Report report;

  // Set-up: the data is generated kSetupRepeats times and the last copy
  // kept.
  Dataset data;
  std::vector<double> generate_seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    data = Dataset{};
    const auto t0 = std::chrono::steady_clock::now();
    data = MakeDataset(spec->schema, spec->scale);
    generate_seconds.push_back(std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
  }
  DrawFrequencies(&data.workload, seed);

  const DesignRun design =
      trace != nullptr
          ? TraceDesign(data.catalog.get(), data.workload, spec->mine, trace,
                        &report)
          : DesignTwice(data.catalog.get(), data.workload, spec->mine,
                        &report);
  EvaluateDesigns(design, data.workload, &report);
  const double serve_setup_seconds =
      Serve(*design.context, design.designs[kServedBudgetIndex],
            data.workload, *spec, seed, seconds, trace, &report);

  report.Set("setup_s",
             benchkit::Median(generate_seconds) + serve_setup_seconds, "s");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (trace != nullptr) {
    report.Check(trace->WriteChromeTrace(trace_path),
                 "cannot write the trace to " + trace_path);
    std::fprintf(stderr, "self seconds per span name:\n");
    for (const auto& [name, self] : trace->SelfSeconds()) {
      std::fprintf(stderr, "  %-22s %12.6f\n", name.c_str(), self);
    }
  }
  std::printf("%s\n", report.ToJson().c_str());
  return report.failed() == 0 ? 0 : 1;
}
