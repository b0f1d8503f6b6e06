// Data, statistics and designer settings of bench_coradd. They are copied
// here instead of shared with the figure benches, so that editing another
// bench can never move this benchmark's numbers.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "apb/apb.h"
#include "common/rng.h"
#include "core/context.h"
#include "core/coradd_designer.h"
#include "ssb/ssb.h"

namespace coradd::bench_coradd {

/// Simulated page size. Small pages keep the page-count geometry of the
/// paper's 8 KB pages on 45M rows (thousands of heap pages, multi-level
/// B+Trees) at the benchmark's row counts.
inline constexpr uint32_t kPageBytes = 1024;

/// Budgets as multiples of the fact heap: an empty budget, tight ones, and
/// ones where the solver runs into its node cap.
inline const std::vector<double> kBudgetMultiples = {0.0, 0.25, 0.5, 1.0,
                                                     2.0, 4.0,  8.0};
/// The design the serving phase installs: 1x the fact heap.
inline constexpr size_t kServedBudgetIndex = 3;

/// Query frequencies are drawn from [1 - kFrequencyJitter, 1 +
/// kFrequencyJitter]: every seed poses its own design problem, and the
/// designer does the same work on each. The simulated cost of the designs
/// then moves by about 0.05% from seed to seed, so a design 0.5% worse
/// shows. A jitter of 10% moved it by 2%, and a new dataset per seed moved
/// design time by ~25%.
inline constexpr double kFrequencyJitter = 0.002;

/// Each set-up step (data generation, engine build, a pass of reference
/// runs) is repeated this many times, and setup_s counts its median.
inline constexpr int kSetupRepeats = 5;

inline StatsOptions BenchStatsOptions() {
  StatsOptions sopt;
  sopt.sample_rows = 8192;
  sopt.disk.page_size_bytes = kPageBytes;
  // The paper's seek : page-transfer ratio (5.5 ms : one 8 KB page), kept
  // at the smaller page so seeks are not over-weighted 8x.
  sopt.disk.seek_seconds = 0.0055 * static_cast<double>(kPageBytes) / 8192.0;
  return sopt;
}

/// Designer options: three grouping alphas, one feedback iteration of at
/// most 250 new candidates, and a 60k-node solver cap (enforced at wave
/// granularity, so capped solves stay bit-identical at any thread count).
inline CoraddOptions BenchDesignerOptions() {
  CoraddOptions options;
  options.candidates.grouping.alphas = {0.0, 0.25, 0.5};
  options.candidates.grouping.restarts = 1;
  options.feedback.max_iterations = 1;
  options.feedback.max_new_per_iteration = 250;
  options.solver.max_nodes = 60000;
  options.solver.time_limit_seconds = 20.0;
  return options;
}

/// Which generator a workload's data comes from.
enum class SchemaKind { kSsb, kApb };

/// Generated data plus the workload run against it.
struct Dataset {
  std::unique_ptr<Catalog> catalog;
  Workload workload;
};

/// Generates the data. `scale` is the SSB scale factor (1 = 6M lineorder
/// rows) or the APB fraction of 45M actuals rows. The data comes from the
/// generators' fixed default seeds, as a TPC database comes from dbgen at
/// one scale; the benchmark seed varies the query mix instead (see
/// DrawFrequencies).
inline Dataset MakeDataset(SchemaKind schema, double scale) {
  Dataset d;
  if (schema == SchemaKind::kSsb) {
    ssb::SsbOptions options;
    options.scale_factor = scale;
    d.catalog = ssb::MakeCatalog(options);
    d.workload = ssb::MakeAugmentedWorkload();
  } else {
    apb::ApbOptions options;
    options.scale = scale;
    d.catalog = apb::MakeCatalog(options);
    d.workload = apb::MakeWorkload(options);
  }
  return d;
}

/// The random choices the benchmark seed drives. SubSeed gives each its
/// own generator seed, so no two draw the same sequence.
enum SeedUse : uint64_t {
  kSeedFrequencies = 0,
  kSeedQueryStream = 1,
  kSeedMaintenance = 2,
  kSeedClientStreams = 8,  ///< + client index
};
inline uint64_t SubSeed(uint64_t seed, uint64_t use) { return seed * 64 + use; }

/// Draws every query's frequency (the §5.3 weight the designer minimizes
/// against) from `seed`.
inline void DrawFrequencies(Workload* workload, uint64_t seed) {
  Rng rng(SubSeed(seed, kSeedFrequencies));
  for (Query& q : workload->queries) {
    q.frequency = 1.0 + kFrequencyJitter * (2.0 * rng.UniformDouble() - 1.0);
  }
}

/// Heap bytes of every fact table the workload reads; budgets are quoted
/// against it.
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

inline std::vector<uint64_t> BudgetGrid(uint64_t fact_heap_bytes) {
  std::vector<uint64_t> out;
  for (double m : kBudgetMultiples) {
    out.push_back(
        static_cast<uint64_t>(m * static_cast<double>(fact_heap_bytes)));
  }
  return out;
}

}  // namespace coradd::bench_coradd
