// Shared infrastructure for the paper-reproduction bench binaries: scaled
// SSB/APB fixtures, budget grids, aligned table output, and re-exports of
// the statistics-grade harness in src/benchkit/ (flags, repetition
// measurement, schema-v2 BENCH_*.json emission). Every bench runs its body
// through benchkit::Harness — warmup + N repetitions with per-repetition
// wall samples, summary statistics and 95% CIs; see docs/BENCHMARKING.md.
//
// Scale note: the paper ran SSB Scale 4 / APB 45M rows on a physical disk.
// The harness defaults to smaller row counts with proportionally smaller
// simulated pages, preserving the *page-count geometry* (thousands of heap
// pages, multi-level B+Trees) that drives every effect under study. Pass
// --scale / --pages to change.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apb/apb.h"
#include "benchkit/bench_json.h"
#include "benchkit/flags.h"
#include "benchkit/harness.h"
#include "common/string_util.h"
#include "core/baseline_designers.h"
#include "core/coradd_designer.h"
#include "core/evaluator.h"
#include "ssb/ssb.h"

namespace coradd {
namespace bench {

// Harness surface (implemented in src/benchkit/, shared with unit tests).
using benchkit::BenchJson;
using benchkit::FlagBool;
using benchkit::FlagDouble;
using benchkit::FlagInt;
using benchkit::FlagValue;
using benchkit::Harness;
using benchkit::MeasureThroughput;
using benchkit::RunPass;
using benchkit::SampleStats;
using benchkit::Summarize;
using benchkit::ThroughputOptions;
using benchkit::ThroughputResult;
using benchkit::WallTimer;

/// A ready-to-use experiment fixture.
struct Fixture {
  std::unique_ptr<Catalog> catalog;
  Workload workload;
  std::unique_ptr<DesignContext> context;
  uint64_t fact_heap_bytes = 0;  ///< For budget grids relative to data size.
};

inline StatsOptions DefaultStats(uint32_t page_size) {
  StatsOptions sopt;
  sopt.sample_rows = 8192;
  sopt.disk.page_size_bytes = page_size;
  // Keep the paper's seek:page-transfer ratio (5.5 ms : one 8 KB page)
  // when simulating smaller pages, so seeks are not over-weighted 8x.
  sopt.disk.seek_seconds =
      0.0055 * static_cast<double>(page_size) / 8192.0;
  return sopt;
}

inline uint64_t FactHeapBytes(const DesignContext& context,
                              const Workload& workload) {
  uint64_t total = 0;
  for (const auto& fact : workload.FactTables()) {
    const UniverseStats* stats = context.StatsForFact(fact);
    HeapLayout layout;
    layout.num_rows = stats->num_rows();
    layout.row_width_bytes =
        stats->universe().fact_table().schema().RowWidthBytes();
    layout.page_size_bytes = stats->options().disk.page_size_bytes;
    total += layout.SizeBytes();
  }
  return total;
}

/// SSB fixture (13-query workload unless augmented = true).
inline Fixture MakeSsbFixture(double scale, uint32_t page_size,
                              bool augmented = false) {
  Fixture f;
  ssb::SsbOptions options;
  options.scale_factor = scale;
  f.catalog = ssb::MakeCatalog(options);
  f.workload = augmented ? ssb::MakeAugmentedWorkload() : ssb::MakeWorkload();
  f.context = std::make_unique<DesignContext>(f.catalog.get(), f.workload,
                                              DefaultStats(page_size));
  f.fact_heap_bytes = FactHeapBytes(*f.context, f.workload);
  return f;
}

/// APB fixture (31 queries, two fact tables).
inline Fixture MakeApbFixture(double scale, uint32_t page_size) {
  Fixture f;
  apb::ApbOptions options;
  options.scale = scale;
  f.catalog = apb::MakeCatalog(options);
  f.workload = apb::MakeWorkload(options);
  f.context = std::make_unique<DesignContext>(f.catalog.get(), f.workload,
                                              DefaultStats(page_size));
  f.fact_heap_bytes = FactHeapBytes(*f.context, f.workload);
  return f;
}

/// Budget grid as multiples of the fact heap size (the paper's 0..22 GB
/// axis spans ~0..9x the 2.5 GB APB data).
inline std::vector<uint64_t> BudgetGrid(uint64_t fact_bytes,
                                        std::vector<double> multiples = {
                                            0.0, 0.125, 0.25, 0.5, 1.0, 2.0,
                                            4.0, 8.0}) {
  std::vector<uint64_t> out;
  for (double m : multiples) {
    out.push_back(static_cast<uint64_t>(m * static_cast<double>(fact_bytes)));
  }
  return out;
}

/// CORADD options tuned for bench turnaround (documented in bench/README.md).
inline CoraddOptions BenchCoraddOptions() {
  CoraddOptions options;
  options.candidates.grouping.alphas = {0.0, 0.25, 0.5};
  options.candidates.grouping.restarts = 1;
  options.feedback.max_iterations = 1;
  options.feedback.max_new_per_iteration = 250;
  // Near-exhaustive budgets make the exact search plateau-heavy: the
  // incumbent — warm-started from the previous budget point and refined in
  // the first few waves — is optimal in practice (cf. Figure 5's node
  // counts), and everything past this cap is unprovable proof effort
  // against a loose bound. The cap is enforced at wave granularity, so
  // capped solves stay bit-identical at any thread count.
  options.solver.max_nodes = 60000;
  options.solver.time_limit_seconds = 20.0;
  return options;
}

/// Prints and records the candidate-generation segment (wall seconds
/// spent generating, trials priced/pruned, groups designed) in a bench's
/// --json output, from the designers' counters accumulated in `cg`.
/// BENCH_*.json thereby records the generation trajectory next to the
/// solver's.
inline void ReportCandgen(BenchJson* json, const CandGenStats& cg) {
  std::printf("candgen: %s\n", cg.ToString().c_str());
  json->Config("candgen_wall_seconds", cg.wall_seconds);
  json->Config("candgen_trials_priced", static_cast<double>(cg.trials_priced));
  json->Config("candgen_trials_pruned", static_cast<double>(cg.trials_pruned));
  json->Config("candgen_groups_designed",
               static_cast<double>(cg.groups_designed));
}

/// Collects the (designer, budget) sweep of a figure bench and evaluates
/// every cell in one parallel DesignEvaluator::RunMany, so all executed
/// query runs fan out across the shared pool together.
class SweepRunner {
 public:
  SweepRunner(DesignEvaluator* evaluator, const Workload* workload)
      : evaluator_(evaluator), workload_(workload) {
    CORADD_CHECK(evaluator != nullptr && workload != nullptr);
  }

  /// Registers one sweep cell. Designs are moved in and kept alive here.
  void Add(std::string label, uint64_t budget, DatabaseDesign design,
           const CostModel* planner) {
    labels_.push_back(std::move(label));
    budgets_.push_back(budget);
    planners_.push_back(planner);
    designs_.push_back(
        std::make_unique<DatabaseDesign>(std::move(design)));
  }

  size_t size() const { return designs_.size(); }
  const std::string& label(size_t i) const { return labels_[i]; }
  uint64_t budget(size_t i) const { return budgets_[i]; }
  const DatabaseDesign& design(size_t i) const { return *designs_[i]; }

  /// Evaluates every registered cell; results align with Add() order.
  std::vector<WorkloadRunResult> RunAll() const {
    std::vector<EvalJob> jobs;
    jobs.reserve(designs_.size());
    for (size_t i = 0; i < designs_.size(); ++i) {
      jobs.push_back(EvalJob{designs_[i].get(), workload_, planners_[i]});
    }
    return evaluator_->RunMany(jobs);
  }

 private:
  DesignEvaluator* evaluator_;
  const Workload* workload_;
  std::vector<std::string> labels_;
  std::vector<uint64_t> budgets_;
  std::vector<const CostModel*> planners_;
  std::vector<std::unique_ptr<DatabaseDesign>> designs_;
};

/// Prints a row of right-aligned cells.
inline void PrintRow(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%*s", width, c.c_str());
  std::printf("\n");
}

inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& cells,
                        int width = 14) {
  std::printf("\n=== %s ===\n", title.c_str());
  PrintRow(cells, width);
  for (size_t i = 0; i < cells.size(); ++i) std::printf("%*s", width, "----");
  std::printf("\n");
}

}  // namespace bench
}  // namespace coradd
