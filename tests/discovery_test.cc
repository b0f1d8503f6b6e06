// Tests for src/discovery: the thread pool, the lattice-based dependency
// miner (planted exact FDs, planted AFDs at known g3 violation rates, arity
// caps, key/constant handling, minimality), thread-count determinism, the
// SSB date-hierarchy discoveries the paper exploits, and the end-to-end
// check that a designer wired to mined correlations lands within 10% of the
// seeded-synopsis design.
#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "core/coradd_designer.h"
#include "core/evaluator.h"
#include "discovery/fd_miner.h"
#include "common/thread_pool.h"
#include "ssb/ssb.h"

namespace coradd {
namespace {

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) pool.Submit([&] { done.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 64);
  // The pool is reusable after a drain.
  pool.ParallelFor(8, [&](size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 72);
}

TEST(ThreadPoolTest, SingleThreadPoolStillRuns) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.ParallelFor(100, [&](size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 4950);
}

// The one inline rule: a one-worker pool, or a one-index loop, runs every
// index on the calling thread. Each index sleeps so that a worker, if one
// were recruited, would have time to claim part of the loop.
TEST(ThreadPoolTest, RunsInlineOnOneWorkerOrOneIndex) {
  for (const auto& [workers, n] : {std::pair<size_t, size_t>{1, 100},
                                   std::pair<size_t, size_t>{4, 1}}) {
    SCOPED_TRACE(testing::Message() << workers << " workers, n = " << n);
    ThreadPool pool(workers);
    std::vector<std::thread::id> ran_on(n);
    pool.ParallelFor(n, [&](size_t i) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ran_on[i] = std::this_thread::get_id();
    });
    EXPECT_EQ(std::count(ran_on.begin(), ran_on.end(),
                         std::this_thread::get_id()),
              static_cast<std::ptrdiff_t>(n));
  }
}

// ---------- Miner fixtures ----------

/// a = i % 50, b = a / 10 (a -> b exact), extra = i % 20 — low-cardinality
/// and independent of a/b, so pairs like {a, extra} really enter the
/// level-2 lattice (a near-unique column would be excluded as a near-key
/// and make the minimality assertions vacuous).
MinerInput PlantedInput(size_t n) {
  MinerInput input;
  input.column_names = {"a", "b", "extra"};
  input.columns.resize(3);
  for (size_t i = 0; i < n; ++i) {
    const int64_t a = static_cast<int64_t>(i % 50);
    input.columns[0].push_back(a);
    input.columns[1].push_back(a / 10);
    input.columns[2].push_back(static_cast<int64_t>(i % 20));
  }
  input.source_rows = n;
  return input;
}

int Col(const DiscoveredDependencies& d, const char* name) {
  const int c = d.ColumnIndex(name);
  EXPECT_GE(c, 0) << name;
  return c;
}

// ---------- Exact FDs ----------

TEST(DependencyMinerTest, FindsPlantedExactFd) {
  DependencyMinerOptions opt;
  opt.max_lhs_arity = 2;
  const DiscoveredDependencies report =
      DependencyMiner(opt).Mine(PlantedInput(2000));

  const int a = Col(report, "a");
  const int b = Col(report, "b");
  const FunctionalDependency* fd = report.FindFd({a}, b);
  ASSERT_NE(fd, nullptr);
  EXPECT_TRUE(fd->exact());
  EXPECT_TRUE(report.DeterminesExactly({a}, b));
  // b has 5 values, a has 50: the reverse direction is soft, not exact.
  EXPECT_EQ(report.FindFd({b}, a), nullptr);
  EXPECT_FALSE(report.DeterminesExactly({b}, a));
  // strength(b -> a) = 5 / 50.
  EXPECT_NEAR(report.StrengthFor({b}, {a}), 0.1, 1e-12);
  EXPECT_NEAR(report.StrengthFor({a}, {b}), 1.0, 1e-12);
}

TEST(DependencyMinerTest, MinimalityPrunesSupersetLhs) {
  DependencyMinerOptions opt;
  opt.max_lhs_arity = 2;
  const DiscoveredDependencies report =
      DependencyMiner(opt).Mine(PlantedInput(2000));
  const int a = Col(report, "a");
  const int b = Col(report, "b");
  const int extra = Col(report, "extra");
  // The pair {a, extra} is an active level-2 candidate (both columns are
  // low-cardinality), and {a, extra} -> b holds — but it is not minimal,
  // so only {a} -> b is reported.
  EXPECT_NE(report.StatsForSet({a, extra}), nullptr);
  EXPECT_EQ(report.FindFd({a, extra}, b), nullptr);
  ASSERT_NE(report.FindFd({a}, b), nullptr);
  // DeterminesExactly still answers supersets via the minimal FD.
  EXPECT_TRUE(report.DeterminesExactly({a, extra}, b));
}

// ---------- Approximate FDs at planted violation rates ----------

/// lhs = i % 100; rhs = lhs, except one row in each of `violating_groups`
/// distinct groups is flipped to a fresh outlier value. The g3 error is
/// exactly violating_groups / n.
MinerInput AfdInput(size_t n, size_t violating_groups) {
  MinerInput input;
  input.column_names = {"lhs", "rhs"};
  input.columns.resize(2);
  for (size_t i = 0; i < n; ++i) {
    const int64_t g = static_cast<int64_t>(i % 100);
    input.columns[0].push_back(g);
    int64_t r = g;
    // Row i == g flips group g (each group has n/100 >= 2 rows, so the
    // majority value stays g and the flip costs exactly one row).
    if (i < violating_groups && i == static_cast<size_t>(g)) {
      r = 1000 + static_cast<int64_t>(i);  // outlier
    }
    input.columns[1].push_back(r);
  }
  input.source_rows = n;
  return input;
}

TEST(DependencyMinerTest, ReportsAfdErrorWithinTolerance) {
  const size_t n = 2000;
  const size_t violations = 40;  // g3 = 0.02
  DependencyMinerOptions opt;
  opt.max_lhs_arity = 1;
  opt.afd_error_threshold = 0.05;
  const DiscoveredDependencies report =
      DependencyMiner(opt).Mine(AfdInput(n, violations));

  const int lhs = Col(report, "lhs");
  const int rhs = Col(report, "rhs");
  const FunctionalDependency* fd = report.FindFd({lhs}, rhs);
  ASSERT_NE(fd, nullptr);
  EXPECT_FALSE(fd->exact());
  EXPECT_NEAR(fd->error, static_cast<double>(violations) / n, 1e-12);
}

TEST(DependencyMinerTest, AfdAboveThresholdNotReported) {
  DependencyMinerOptions opt;
  opt.max_lhs_arity = 1;
  opt.afd_error_threshold = 0.01;  // planted error is 0.02
  const DiscoveredDependencies report =
      DependencyMiner(opt).Mine(AfdInput(2000, 40));
  EXPECT_EQ(report.FindFd({Col(report, "lhs")}, Col(report, "rhs")), nullptr);
}

// ---------- Arity cap ----------

/// c3 = (c1 + c2) % 10: only the pair {c1, c2} determines c3.
MinerInput PairDeterminedInput(size_t n) {
  MinerInput input;
  input.column_names = {"c1", "c2", "c3"};
  input.columns.resize(3);
  for (size_t i = 0; i < n; ++i) {
    const int64_t c1 = static_cast<int64_t>(i % 10);
    const int64_t c2 = static_cast<int64_t>((i / 10) % 10);
    input.columns[0].push_back(c1);
    input.columns[1].push_back(c2);
    input.columns[2].push_back((c1 + c2) % 10);
  }
  input.source_rows = n;
  return input;
}

TEST(DependencyMinerTest, ArityCapBoundsLhsSize) {
  DependencyMinerOptions opt;
  opt.afd_error_threshold = 0.0;
  opt.max_lhs_arity = 1;
  const DiscoveredDependencies capped =
      DependencyMiner(opt).Mine(PairDeterminedInput(1000));
  const int c1 = Col(capped, "c1");
  const int c2 = Col(capped, "c2");
  const int c3 = Col(capped, "c3");
  EXPECT_EQ(capped.FindFd({c1, c2}, c3), nullptr);
  for (const auto& fd : capped.fds()) EXPECT_EQ(fd.lhs.size(), 1u);

  opt.max_lhs_arity = 2;
  const DiscoveredDependencies full =
      DependencyMiner(opt).Mine(PairDeterminedInput(1000));
  const FunctionalDependency* fd = full.FindFd({c1, c2}, c3);
  ASSERT_NE(fd, nullptr);
  EXPECT_TRUE(fd->exact());
  // Neither singleton determines c3.
  EXPECT_EQ(full.FindFd({c1}, c3), nullptr);
  EXPECT_EQ(full.FindFd({c2}, c3), nullptr);
}

// ---------- Keys, constants, soft correlations ----------

TEST(DependencyMinerTest, KeysAndConstantsAreFactsNotFdSpam) {
  MinerInput input;
  input.column_names = {"id", "konst", "val"};
  input.columns.resize(3);
  for (size_t i = 0; i < 500; ++i) {
    input.columns[0].push_back(static_cast<int64_t>(i));  // unique
    input.columns[1].push_back(7);                        // constant
    input.columns[2].push_back(static_cast<int64_t>(i % 20));
  }
  input.source_rows = 500;
  const DiscoveredDependencies report = DependencyMiner().Mine(input);

  const int id = Col(report, "id");
  const int konst = Col(report, "konst");
  ASSERT_EQ(report.keys().size(), 1u);
  EXPECT_EQ(report.keys()[0], std::vector<int>{id});
  ASSERT_EQ(report.constant_columns().size(), 1u);
  EXPECT_EQ(report.constant_columns()[0], konst);
  // No FD mentions the key or the constant on either side.
  for (const auto& fd : report.fds()) {
    EXPECT_NE(fd.rhs, id);
    EXPECT_NE(fd.rhs, konst);
    for (int c : fd.lhs) {
      EXPECT_NE(c, id);
      EXPECT_NE(c, konst);
    }
  }
  // But both still answer determination queries.
  EXPECT_TRUE(report.DeterminesExactly({id}, Col(report, "val")));
  EXPECT_TRUE(report.DeterminesExactly({Col(report, "val")}, konst));
}

TEST(DependencyMinerTest, SoftCorrelationStrengths) {
  // a has 100 values, b = a / 2 has 50: strength(b -> a) = 0.5 exactly,
  // and a -> b is an exact FD (so not a soft pair).
  MinerInput input;
  input.column_names = {"a", "b"};
  input.columns.resize(2);
  for (size_t i = 0; i < 4000; ++i) {
    const int64_t a = static_cast<int64_t>(i % 100);
    input.columns[0].push_back(a);
    input.columns[1].push_back(a / 2);
  }
  input.source_rows = 4000;
  DependencyMinerOptions opt;
  opt.min_soft_strength = 0.25;
  const DiscoveredDependencies report = DependencyMiner(opt).Mine(input);

  const int a = Col(report, "a");
  const int b = Col(report, "b");
  bool found = false;
  for (const auto& s : report.soft_correlations()) {
    EXPECT_FALSE(s.from == a && s.to == b) << "exact FD reported as soft";
    if (s.from == b && s.to == a) {
      found = true;
      EXPECT_NEAR(s.strength, 0.5, 1e-12);
    }
  }
  EXPECT_TRUE(found);

  // Soft pairs are harvested even when the FD lattice stops at arity 1
  // (the pair level is still built, partitions only).
  opt.max_lhs_arity = 1;
  const DiscoveredDependencies capped = DependencyMiner(opt).Mine(input);
  bool found_capped = false;
  for (const auto& s : capped.soft_correlations()) {
    if (s.from == Col(capped, "b") && s.to == Col(capped, "a")) {
      found_capped = true;
      EXPECT_NEAR(s.strength, 0.5, 1e-12);
    }
  }
  EXPECT_TRUE(found_capped);
}

// ---------- Determinism across thread counts ----------

MinerInput NoisyInput(size_t n, size_t cols) {
  MinerInput input;
  input.columns.resize(cols);
  Rng rng(99);
  for (size_t c = 0; c < cols; ++c) {
    input.column_names.push_back("c" + std::to_string(c));
  }
  for (size_t i = 0; i < n; ++i) {
    const int64_t base = static_cast<int64_t>(rng.Uniform(40));
    for (size_t c = 0; c < cols; ++c) {
      // Mix of derived (correlated) and independent columns.
      const int64_t v = (c % 3 == 0)   ? base / (1 + static_cast<int64_t>(c))
                        : (c % 3 == 1) ? (base + static_cast<int64_t>(
                                              rng.Uniform(1 + c))) %
                                             23
                                       : static_cast<int64_t>(
                                             rng.Uniform(1u << 20));
      input.columns[c].push_back(v);
    }
  }
  input.source_rows = n;
  return input;
}

TEST(DependencyMinerTest, ThreadCountDoesNotChangeResults) {
  const MinerInput input = NoisyInput(3000, 12);
  DependencyMinerOptions opt;
  opt.max_lhs_arity = 3;
  opt.afd_error_threshold = 0.08;
  opt.min_soft_strength = 0.0;

  ThreadPool pool1(1), pool2(2), pool4(4), pool8(8);
  opt.pool = &pool1;
  const DiscoveredDependencies one = DependencyMiner(opt).Mine(input);
  // nullptr mines on ThreadPool::Shared().
  for (ThreadPool* pool : {&pool2, &pool4, &pool8,
                           static_cast<ThreadPool*>(nullptr)}) {
    SCOPED_TRACE(pool != nullptr
                     ? std::to_string(pool->num_threads()) + " workers"
                     : std::string("shared pool"));
    opt.pool = pool;
    const DiscoveredDependencies many = DependencyMiner(opt).Mine(input);
    ASSERT_EQ(one.fds().size(), many.fds().size());
    for (size_t i = 0; i < one.fds().size(); ++i) {
      EXPECT_EQ(one.fds()[i].lhs, many.fds()[i].lhs);
      EXPECT_EQ(one.fds()[i].rhs, many.fds()[i].rhs);
      EXPECT_EQ(one.fds()[i].error, many.fds()[i].error);
    }
    ASSERT_EQ(one.soft_correlations().size(),
              many.soft_correlations().size());
    for (size_t i = 0; i < one.soft_correlations().size(); ++i) {
      EXPECT_EQ(one.soft_correlations()[i].from,
                many.soft_correlations()[i].from);
      EXPECT_EQ(one.soft_correlations()[i].to,
                many.soft_correlations()[i].to);
      EXPECT_EQ(one.soft_correlations()[i].strength,
                many.soft_correlations()[i].strength);
    }
    EXPECT_EQ(one.keys(), many.keys());
    EXPECT_EQ(one.constant_columns(), many.constant_columns());
  }
}

// ---------- Full-row verification of sample-exact FDs ----------

/// Clean prefix + violations planted only past row `clean_rows`: a miner
/// run over the prefix sees a -> b as exact; the full rows do not.
MinerInput InputWithLateViolations(size_t n, size_t clean_rows,
                                   size_t violations) {
  MinerInput input = PlantedInput(n);
  for (size_t i = 0; i < violations; ++i) {
    input.columns[1][clean_rows + i] = 9;  // b outlier; a/10 is always <= 4
  }
  return input;
}

TEST(DependencyMinerTest, VerifyDemotesSampleExactFdToAfd) {
  DependencyMinerOptions opt;
  opt.max_lhs_arity = 2;
  const DependencyMiner miner(opt);
  // Mined from the clean 1000-row prefix: a -> b is (sample-)exact.
  DiscoveredDependencies report = miner.Mine(PlantedInput(1000));
  const int a = Col(report, "a");
  const int b = Col(report, "b");
  ASSERT_NE(report.FindFd({a}, b), nullptr);
  ASSERT_TRUE(report.FindFd({a}, b)->exact());

  // Full rows: 40 violating rows in 2000 -> g3 = 0.02 for a -> b (each
  // violator is a minority of its a-group), within the 0.05 AFD threshold.
  // The fixture's other exact FD, {b, extra} -> a (a = b*10 + extra%10), is
  // also broken by the b outliers (g3 = 0.01) — both demote.
  const MinerInput full = InputWithLateViolations(2000, 1000, 40);
  const size_t changed = miner.VerifyExactFds(full, &report);
  EXPECT_EQ(changed, 2u);
  const FunctionalDependency* fd = report.FindFd({a}, b);
  ASSERT_NE(fd, nullptr);
  EXPECT_FALSE(fd->exact());
  EXPECT_NEAR(fd->error, 0.02, 1e-12);
  EXPECT_FALSE(report.DeterminesExactly({a}, b));
  const int extra = Col(report, "extra");
  const FunctionalDependency* fd2 = report.FindFd({b, extra}, a);
  ASSERT_NE(fd2, nullptr);
  EXPECT_NEAR(fd2->error, 0.01, 1e-12);
}

TEST(DependencyMinerTest, VerifyDropsFdBeyondAfdThreshold) {
  DependencyMinerOptions opt;
  opt.max_lhs_arity = 2;
  const DependencyMiner miner(opt);
  DiscoveredDependencies report = miner.Mine(PlantedInput(1000));
  const int a = Col(report, "a");
  const int b = Col(report, "b");
  ASSERT_NE(report.FindFd({a}, b), nullptr);

  // 300 / 2000 violating rows -> g3 = 0.15 > 0.05 for a -> b: not even an
  // AFD. {b, extra} -> a degrades past the threshold too (g3 = 0.12).
  const MinerInput full = InputWithLateViolations(2000, 1000, 300);
  const size_t changed = miner.VerifyExactFds(full, &report);
  EXPECT_EQ(changed, 2u);
  EXPECT_EQ(report.FindFd({a}, b), nullptr);
}

TEST(DependencyMinerTest, VerifyKeepsTrulyExactFdsUntouched) {
  DependencyMinerOptions opt;
  opt.max_lhs_arity = 2;
  const DependencyMiner miner(opt);
  DiscoveredDependencies report = miner.Mine(PlantedInput(1000));
  const int a = Col(report, "a");
  const int b = Col(report, "b");
  // Same generator, no violations: everything re-checks clean.
  EXPECT_EQ(miner.VerifyExactFds(PlantedInput(4000), &report), 0u);
  const FunctionalDependency* fd = report.FindFd({a}, b);
  ASSERT_NE(fd, nullptr);
  EXPECT_TRUE(fd->exact());
}

// ---------- MinerInput adapters ----------

TEST(MinerInputTest, UniverseSampleAndSynopsisAdapters) {
  ssb::SsbOptions options;
  options.scale_factor = 0.002;
  auto catalog = ssb::MakeCatalog(options);
  Universe universe(*catalog, *catalog->GetFactInfo("lineorder"));

  const MinerInput full = MinerInput::FromUniverse(universe);
  EXPECT_EQ(full.NumRows(), universe.NumRows());
  EXPECT_EQ(full.NumColumns(), universe.NumColumns());
  EXPECT_EQ(full.source_rows, universe.NumRows());

  const MinerInput sample = MinerInput::FromUniverse(universe, 512);
  EXPECT_EQ(sample.NumRows(), 512u);
  EXPECT_EQ(sample.source_rows, universe.NumRows());

  const Synopsis synopsis = Synopsis::Build(universe, 256, 42);
  const MinerInput from_syn = MinerInput::FromSynopsis(universe, synopsis);
  EXPECT_EQ(from_syn.NumRows(), 256u);
  EXPECT_EQ(from_syn.column_names[0], universe.Column(0).name);
}

// ---------- SSB: the paper's date hierarchy ----------

TEST(DiscoveryOnSsbTest, FindsDateHierarchyExactFds) {
  ssb::SsbOptions options;
  options.scale_factor = 0.01;
  auto catalog = ssb::MakeCatalog(options);
  const Workload workload = ssb::MakeWorkload();
  StatsOptions sopt;
  sopt.sample_rows = 4096;
  sopt.disk.page_size_bytes = 1024;
  DesignContext context(catalog.get(), workload, sopt);

  const DiscoveredDependencies* deps = context.MineDependencies("lineorder");
  ASSERT_NE(deps, nullptr);
  EXPECT_EQ(context.DependenciesForFact("lineorder"), deps);

  // The date-hierarchy dependencies the paper exploits, discovered from the
  // rows alone (d_datekey functionally determines the whole hierarchy).
  const int datekey = Col(*deps, "d_datekey");
  for (const char* rhs :
       {"d_year", "d_monthnuminyear", "d_yearmonthnum", "d_yearmonth"}) {
    EXPECT_TRUE(deps->DeterminesExactly({datekey}, Col(*deps, rhs))) << rhs;
  }
  // Geography and product hierarchies too.
  EXPECT_TRUE(deps->DeterminesExactly({Col(*deps, "c_city")},
                                      Col(*deps, "c_nation")));
  EXPECT_TRUE(deps->DeterminesExactly({Col(*deps, "p_brand1")},
                                      Col(*deps, "p_category")));
  // d_year does NOT determine d_monthnuminyear.
  EXPECT_FALSE(deps->DeterminesExactly({Col(*deps, "d_year")},
                                       Col(*deps, "d_monthnuminyear")));

  // After installation the stats layer answers strengths from the mined
  // report: an exact mined FD is exactly 1.0.
  const UniverseStats* stats = context.StatsForFact("lineorder");
  ASSERT_NE(stats->mined(), nullptr);
  const Universe& u = stats->universe();
  EXPECT_EQ(stats->correlations().Strength(u.ColumnIndex("d_datekey"),
                                           u.ColumnIndex("d_year")),
            1.0);
}

// ---------- Designer wired to mined correlations ----------

TEST(DiscoveryOnSsbTest, MinedDesignWithinTenPercentOfSeeded) {
  ssb::SsbOptions options;
  options.scale_factor = 0.005;
  auto catalog = ssb::MakeCatalog(options);
  const Workload workload = ssb::MakeWorkload();
  StatsOptions sopt;
  sopt.sample_rows = 4096;
  sopt.disk.page_size_bytes = 1024;
  DesignContext context(catalog.get(), workload, sopt);

  CoraddOptions copt;
  copt.candidates.grouping.alphas = {0.0, 0.25, 0.5};
  copt.candidates.grouping.restarts = 1;
  copt.feedback.max_iterations = 1;
  const uint64_t budget = 24ull << 20;

  DesignEvaluator evaluator(&context);

  // Seeded baseline: strengths from AE over the synopsis. Designed AND
  // evaluated before mining touches the shared context, so the baseline
  // never sees mined state.
  CoraddDesigner seeded(&context, copt);
  const DatabaseDesign d_seeded = seeded.Design(workload, budget);
  const double t_seeded =
      evaluator.Run(d_seeded, workload, seeded.model()).total_seconds;

  // Mined run: every strength the designers consume now comes from the
  // discovery subsystem alone (kMinedOnly — no seeded correlation entries).
  DependencyMiningConfig config;
  config.source = CorrelationSource::kMinedOnly;
  context.MineAllDependencies(config);
  CoraddDesigner mined(&context, copt);
  const DatabaseDesign d_mined = mined.Design(workload, budget);
  const double t_mined =
      evaluator.Run(d_mined, workload, mined.model()).total_seconds;
  EXPECT_GT(t_seeded, 0.0);
  EXPECT_LE(t_mined, t_seeded * 1.10 + 1e-9)
      << "mined " << t_mined << " vs seeded " << t_seeded;
}

}  // namespace
}  // namespace coradd
