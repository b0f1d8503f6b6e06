// Parameterized property sweeps across module boundaries: invariants that
// must hold for *any* input in the swept family, complementing the
// example-based tests in the per-module files.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/context.h"
#include "cost/correlation_cost_model.h"
#include "cost/cost_model.h"
#include "ilp/domination.h"
#include "ilp/greedy_mk.h"
#include "mv/index_merging.h"
#include "solver/solver.h"
#include "ssb/ssb.h"
#include "stats/histogram.h"
#include "storage/layout.h"

namespace coradd {
namespace {

// ---------- Histogram: estimates within bounds for any data shape ----------

struct HistCase {
  uint64_t seed;
  size_t rows;
  int64_t domain;
  size_t buckets;
  bool zipf;
};

class HistogramPropertyTest : public ::testing::TestWithParam<HistCase> {};

TEST_P(HistogramPropertyTest, RangeEstimateTracksExactCount) {
  const HistCase c = GetParam();
  Rng rng(c.seed);
  std::vector<int64_t> values;
  values.reserve(c.rows);
  for (size_t i = 0; i < c.rows; ++i) {
    values.push_back(static_cast<int64_t>(
        c.zipf ? rng.Zipf(static_cast<uint64_t>(c.domain), 0.9)
               : rng.Uniform(static_cast<uint64_t>(c.domain))));
  }
  const Histogram h = Histogram::Build(values, c.buckets);
  Rng qrng(c.seed * 31 + 7);
  for (int trial = 0; trial < 20; ++trial) {
    int64_t lo = qrng.UniformInt(0, c.domain - 1);
    int64_t hi = qrng.UniformInt(0, c.domain - 1);
    if (lo > hi) std::swap(lo, hi);
    size_t exact = 0;
    for (int64_t v : values) {
      if (v >= lo && v <= hi) ++exact;
    }
    const double est = h.SelectivityRange(lo, hi);
    const double truth = static_cast<double>(exact) / c.rows;
    EXPECT_GE(est, 0.0);
    EXPECT_LE(est, 1.0 + 1e-12);
    // Within-bucket uniformity bounds the error by ~2 bucket masses.
    EXPECT_NEAR(est, truth, 2.0 / static_cast<double>(c.buckets) + 0.02)
        << "range [" << lo << "," << hi << "]";
  }
}

TEST_P(HistogramPropertyTest, SelectivitiesSumToOneOverPartition) {
  const HistCase c = GetParam();
  Rng rng(c.seed);
  std::vector<int64_t> values;
  for (size_t i = 0; i < c.rows; ++i) {
    values.push_back(static_cast<int64_t>(
        c.zipf ? rng.Zipf(static_cast<uint64_t>(c.domain), 0.9)
               : rng.Uniform(static_cast<uint64_t>(c.domain))));
  }
  const Histogram h = Histogram::Build(values, c.buckets);
  // Disjoint thirds of the domain partition all rows.
  const int64_t a = c.domain / 3, b = 2 * c.domain / 3;
  const double total = h.SelectivityRange(0, a - 1) +
                       h.SelectivityRange(a, b - 1) +
                       h.SelectivityRange(b, c.domain - 1);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HistogramPropertyTest,
    ::testing::Values(HistCase{1, 20000, 1000, 64, false},
                      HistCase{2, 20000, 1000, 64, true},
                      HistCase{3, 5000, 100000, 128, false},
                      HistCase{4, 5000, 100000, 128, true},
                      HistCase{5, 50000, 37, 256, false},
                      HistCase{6, 1000, 7, 4, true}));

// ---------- CoalescePages: coverage and minimality for any page set -------

class CoalescePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoalescePropertyTest, RunsCoverAllPagesExactlyOnce) {
  Rng rng(GetParam());
  std::vector<uint64_t> pages;
  const size_t n = 1 + rng.Uniform(500);
  for (size_t i = 0; i < n; ++i) pages.push_back(rng.Uniform(2000));
  std::sort(pages.begin(), pages.end());
  const uint64_t gap = rng.Uniform(5);
  const auto runs = CoalescePages(pages, gap);

  // Every input page is inside some run.
  for (uint64_t p : pages) {
    bool covered = false;
    for (const auto& r : runs) {
      if (p >= r.first_page && p <= r.last_page) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << p;
  }
  // Runs are sorted, non-overlapping, and separated by more than the gap
  // (otherwise they would have merged).
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_GT(runs[i].first_page, runs[i - 1].last_page);
    EXPECT_GT(runs[i].first_page - runs[i - 1].last_page, gap + 1);
  }
  // Run endpoints are actual pages from the input.
  for (const auto& r : runs) {
    EXPECT_TRUE(std::binary_search(pages.begin(), pages.end(), r.first_page));
    EXPECT_TRUE(std::binary_search(pages.begin(), pages.end(), r.last_page));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescePropertyTest,
                         ::testing::Range<uint64_t>(100, 110));

// ---------- BTreeShape: monotone and sane for any geometry ----------------

TEST(BTreeShapePropertyTest, MonotoneInEntries) {
  uint64_t prev_pages = 0;
  uint32_t prev_height = 0;
  for (uint64_t n : {10ull, 1000ull, 100000ull, 10000000ull, 1000000000ull}) {
    const BTreeShape s = ComputeBTreeShape(n, 12, 4);
    EXPECT_GE(s.TotalPages(), prev_pages);
    EXPECT_GE(s.height, prev_height);
    prev_pages = s.TotalPages();
    prev_height = s.height;
  }
}

TEST(BTreeShapePropertyTest, WiderEntriesNeedMorePages) {
  for (uint32_t bytes : {8u, 16u, 64u, 256u}) {
    const BTreeShape narrow = ComputeBTreeShape(1000000, bytes, 4);
    const BTreeShape wide = ComputeBTreeShape(1000000, bytes * 2, 4);
    EXPECT_GE(wide.leaf_pages, narrow.leaf_pages) << bytes;
  }
}

// ---------- Solver trio ordering on random instances ----------------------

class SolverOrderingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverOrderingTest, ExactLeqGreedyMkAndDensityGreedy) {
  Rng rng(GetParam());
  SelectionProblem p;
  p.budget_bytes = 10 + rng.Uniform(40);
  p.sizes = {0};
  p.forced = {0};
  const size_t nm = 6 + rng.Uniform(14);
  for (size_t m = 1; m < nm; ++m) p.sizes.push_back(rng.Uniform(12) + 1);
  const size_t nq = 2 + rng.Uniform(6);
  p.costs.resize(nq);
  for (auto& row : p.costs) {
    row.push_back(50.0 + static_cast<double>(rng.Uniform(50)));
    for (size_t m = 1; m < nm; ++m) {
      row.push_back(rng.Bernoulli(0.4)
                        ? kInfeasibleCost
                        : 1.0 + static_cast<double>(rng.Uniform(40)));
    }
  }
  if (nm > 5 && rng.Bernoulli(0.5)) p.sos1_groups = {{1, 2, 3}};

  const SelectionResult exact = SolverEngine().Solve(p);
  const SelectionResult mk = SolveSelectionGreedyMk(p);
  const SelectionResult density = SolveSelectionGreedyDensity(p);
  EXPECT_TRUE(exact.proved_optimal);
  EXPECT_LE(exact.expected_cost, mk.expected_cost + 1e-9);
  EXPECT_LE(exact.expected_cost, density.expected_cost + 1e-9);
  EXPECT_TRUE(SelectionFeasible(p, exact.chosen));
  EXPECT_TRUE(SelectionFeasible(p, mk.chosen));
  EXPECT_TRUE(SelectionFeasible(p, density.chosen));

  // Domination pruning must not change the exact optimum.
  const SelectionProblem pruned = CompactProblem(p, DominatedMask(p));
  EXPECT_NEAR(SolverEngine().Solve(pruned).expected_cost, exact.expected_cost,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverOrderingTest,
                         ::testing::Range<uint64_t>(500, 515));

// ---------- Candidate generation: memoized pricing + pruning safety -------

/// Shared small-SSB pricing fixture (built once; the cost models are pure
/// functions of it).
struct CandgenFixture {
  std::unique_ptr<Catalog> catalog;
  Workload workload;
  std::unique_ptr<DesignContext> context;

  CandgenFixture() {
    ssb::SsbOptions options;
    options.scale_factor = 0.002;
    catalog = ssb::MakeCatalog(options);
    workload = ssb::MakeWorkload();
    StatsOptions sopt;
    sopt.sample_rows = 2048;
    sopt.disk.page_size_bytes = 1024;
    context = std::make_unique<DesignContext>(catalog.get(), workload, sopt);
  }
};

const CandgenFixture& SharedCandgenFixture() {
  static const CandgenFixture* fixture = new CandgenFixture();
  return *fixture;
}

/// Random MvSpec over the SSB universe: random stored-column subset with a
/// random clustered key drawn from it.
MvSpec RandomSpec(Rng* rng, const Workload& workload) {
  // Column pool: everything any query references (so some specs can serve
  // some queries), shuffled and truncated.
  std::vector<std::string> pool;
  for (const auto& q : workload.queries) {
    for (const auto& c : q.AllColumns()) {
      if (std::find(pool.begin(), pool.end(), c) == pool.end()) {
        pool.push_back(c);
      }
    }
  }
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng->Uniform(i)]);
  }
  MvSpec spec;
  spec.fact_table = "lineorder";
  spec.name = "prop_spec";
  const size_t num_cols = 3 + rng->Uniform(pool.size() - 3);
  spec.columns.assign(pool.begin(),
                      pool.begin() + static_cast<long>(num_cols));
  const size_t key_len = 1 + rng->Uniform(std::min<size_t>(5, num_cols));
  spec.clustered_key.assign(spec.columns.begin(),
                            spec.columns.begin() + static_cast<long>(key_len));
  return spec;
}

class CandgenPricingPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(CandgenPricingPropertyTest, MemoizedPricesMatchFreshToTheLastBit) {
  const CandgenFixture& f = SharedCandgenFixture();
  Rng rng(GetParam());
  CorrelationCostModel warm(&f.context->registry());
  CorrelationCostModel fresh(&f.context->registry());
  for (int trial = 0; trial < 6; ++trial) {
    const MvSpec spec = RandomSpec(&rng, f.workload);
    for (const auto& q : f.workload.queries) {
      const double first = warm.Seconds(q, spec);   // computes + memoizes
      const double memo = warm.Seconds(q, spec);    // pure memo hit
      const double cold = fresh.Seconds(q, spec);   // freshly computed
      EXPECT_EQ(first, memo) << q.id;               // bitwise
      EXPECT_EQ(first, cold) << q.id;               // bitwise
      // The generation pruning bound never exceeds the true model cost.
      EXPECT_LE(warm.CostLowerBound(q, spec), first) << q.id;
    }
  }
}

TEST_P(CandgenPricingPropertyTest, PruningNeverDropsBestInterleaving) {
  const CandgenFixture& f = SharedCandgenFixture();
  Rng rng(GetParam() * 131 + 5);
  CorrelationCostModel model(&f.context->registry());

  // Random small-arity group; prune off == exhaustive enumeration (every
  // order-preserving interleaving under the cap is priced).
  QueryGroup group;
  const size_t arity = 2 + rng.Uniform(2);
  while (group.size() < arity) {
    const int qi = static_cast<int>(rng.Uniform(f.workload.queries.size()));
    if (std::find(group.begin(), group.end(), qi) == group.end()) {
      group.push_back(qi);
    }
  }
  std::sort(group.begin(), group.end());

  IndexMergingOptions pruned_options;
  pruned_options.t = 1 + static_cast<int>(rng.Uniform(3));
  IndexMergingOptions exhaustive_options = pruned_options;
  exhaustive_options.prune_trials = false;
  ClusteredIndexDesigner pruned(&f.context->registry(), &model,
                                pruned_options);
  ClusteredIndexDesigner exhaustive(&f.context->registry(), &model,
                                    exhaustive_options);

  const std::vector<MvSpec> a =
      pruned.DesignGroup(f.workload, group, "lineorder");
  const std::vector<MvSpec> b =
      exhaustive.DesignGroup(f.workload, group, "lineorder");
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << i;
    EXPECT_EQ(a[i].clustered_key, b[i].clustered_key) << i;
    EXPECT_EQ(a[i].columns, b[i].columns) << i;
  }
  // Every trial the exhaustive designer priced was either priced or
  // provably dominated under pruning — never silently lost.
  EXPECT_EQ(pruned.trials_priced() + pruned.trials_pruned(),
            exhaustive.trials_priced() + exhaustive.trials_pruned());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandgenPricingPropertyTest,
                         ::testing::Range<uint64_t>(700, 708));

// ---------- SSB scaling invariants ----------------------------------------

class SsbScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(SsbScaleTest, RowCountsScaleLinearly) {
  ssb::SsbOptions options;
  options.scale_factor = GetParam();
  auto catalog = ssb::MakeCatalog(options);
  EXPECT_EQ(catalog->GetTable("lineorder")->NumRows(),
            options.LineorderRows());
  // Date dimension is scale-independent.
  EXPECT_EQ(catalog->GetTable("date")->NumRows(), 2557u);
  // The universe join must resolve at every scale.
  Universe u(*catalog, *catalog->GetFactInfo("lineorder"));
  EXPECT_EQ(u.NumRows(), options.LineorderRows());
}

INSTANTIATE_TEST_SUITE_P(Scales, SsbScaleTest,
                         ::testing::Values(0.001, 0.002, 0.005));

}  // namespace
}  // namespace coradd
