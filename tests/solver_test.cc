// Tests for src/solver: the parallel warm-started branch-and-bound engine.
// Planted-optimum knapsack instances; two oracles that share no code with
// the engine — brute force on every instance of at most 16 candidates, and
// the paper's Table 3 LP relaxation (a lower bound that certifies the
// optimum when integral) on fig6-style and SSB problems brute force cannot
// reach; bit-identical determinism at 1/2/8 threads (including node-capped
// solves and warm starts), warm-start session mapping, and incremental
// re-pricing equivalence.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cost/correlation_cost_model.h"
#include "cost/cost_model.h"
#include "ilp/ilp_problem.h"
#include "ilp/problem_builder.h"
#include "mv/candidate_generator.h"
#include "solver/solver.h"
#include "solver/warm_start.h"
#include "ssb/ssb.h"

namespace coradd {
namespace {

// ---------- Synthetic instances ----------

/// The fig6 generator: candidates serve 1-3 queries, bigger is better plus
/// noise, budget binds like the paper's mid-range points.
SelectionProblem Fig6Synthetic(size_t num_candidates, size_t num_queries,
                               uint64_t seed) {
  Rng rng(seed);
  SelectionProblem p;
  p.sizes = {0};
  p.forced = {0};
  p.costs.resize(num_queries);
  for (auto& row : p.costs) row.push_back(120.0);

  uint64_t total_bytes = 0;
  for (size_t m = 1; m < num_candidates; ++m) {
    const uint64_t size = (rng.Uniform(64) + 1) << 20;
    p.sizes.push_back(size);
    total_bytes += size;
    const size_t group = 1 + rng.Uniform(3);
    const double quality =
        120.0 / (1.0 + static_cast<double>(size >> 20) / 8.0);
    for (size_t g = 0; g < group; ++g) {
      const size_t q = rng.Uniform(num_queries);
      p.costs[q].resize(num_candidates, kInfeasibleCost);
      p.costs[q][m] = quality * (0.8 + 0.4 * rng.UniformDouble());
    }
  }
  for (auto& row : p.costs) row.resize(num_candidates, kInfeasibleCost);
  p.budget_bytes = total_bytes / 6;
  return p;
}

/// Small random instance: a forced base plus candidates of 1-10 bytes, each
/// serving a query with probability 0.6; optional SOS1 group {1, 2, 3}.
SelectionProblem RandomInstance(uint64_t seed, size_t num_candidates,
                                size_t num_queries, uint64_t budget,
                                bool with_sos1) {
  Rng rng(seed);
  SelectionProblem p;
  p.budget_bytes = budget;
  p.sizes.push_back(0);
  for (size_t m = 1; m < num_candidates; ++m) {
    p.sizes.push_back(rng.Uniform(10) + 1);
  }
  p.forced = {0};
  p.costs.resize(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    p.costs[q].push_back(50.0 + static_cast<double>(rng.Uniform(50)));
    for (size_t m = 1; m < num_candidates; ++m) {
      if (rng.Bernoulli(0.4)) {
        p.costs[q].push_back(kInfeasibleCost);
      } else {
        p.costs[q].push_back(1.0 + static_cast<double>(rng.Uniform(40)));
      }
    }
  }
  if (with_sos1 && num_candidates >= 4) {
    p.sos1_groups = {{1, 2, 3}};
  }
  return p;
}

/// Exhaustive reference solver: every subset of the candidates.
double BruteForce(const SelectionProblem& p) {
  const size_t n = p.NumCandidates();
  double best = kInfeasibleCost;
  for (uint64_t mask = 0; mask < (1ull << n); ++mask) {
    std::vector<int> chosen;
    for (size_t m = 0; m < n; ++m) {
      if (mask & (1ull << m)) chosen.push_back(static_cast<int>(m));
    }
    if (!SelectionFeasible(p, chosen)) continue;
    best = std::min(best, EvaluateSelection(p, chosen));
  }
  return best;
}

/// Checks an engine solve against the paper's Table 3 LP relaxation
/// (BuildPaperIlp + SolvePaperLpRelaxation). The relaxation lower-bounds
/// the optimum. When every y lies within 1e-6 of 0 or 1 the LP optimum is
/// an integer design, hence the optimum, and the engine must reach it
/// within its optimality gap. Sets *integral to whether that held.
void CheckAgainstLpRelaxation(const SelectionProblem& p,
                              const SelectionResult& r, bool* integral) {
  const PaperIlpFormulation form = BuildPaperIlp(p);
  const LpSolution lp = SolvePaperLpRelaxation(form);
  ASSERT_EQ(lp.status, LpStatus::kOptimal);
  EXPECT_LE(lp.objective, r.expected_cost + 1e-6);
  *integral = true;
  for (int m = 0; m < form.num_y; ++m) {
    const double y = lp.x[static_cast<size_t>(m)];
    if (std::abs(y) > 1e-6 && std::abs(y - 1.0) > 1e-6) *integral = false;
  }
  if (*integral) {
    EXPECT_NEAR(r.expected_cost, lp.objective,
                2.0 * kSolverRelativeGap * (1.0 + lp.objective));
  }
}

// ---------- Planted optimum ----------

TEST(SolverEngineTest, FindsPlantedOptimum) {
  // One dedicated candidate per query at cost 1 (size 10), a decoy per
  // query that is bigger and slower, and a budget that fits exactly the
  // planted set. The unique optimum is base + all planted candidates.
  const size_t nq = 6;
  SelectionProblem p;
  p.sizes = {0};
  p.forced = {0};
  p.costs.resize(nq);
  for (auto& row : p.costs) row.push_back(100.0);
  std::vector<int> planted;
  for (size_t q = 0; q < nq; ++q) {
    planted.push_back(static_cast<int>(p.sizes.size()));
    p.sizes.push_back(10);
    for (size_t r = 0; r < nq; ++r) {
      p.costs[r].push_back(r == q ? 1.0 : kInfeasibleCost);
    }
    p.sizes.push_back(12);  // decoy: strictly worse, strictly bigger
    for (size_t r = 0; r < nq; ++r) {
      p.costs[r].push_back(r == q ? 2.0 : kInfeasibleCost);
    }
  }
  p.budget_bytes = 10 * nq;

  const SolverEngine engine;
  SolverStats stats;
  const SelectionResult r = engine.Solve(p, &stats);
  EXPECT_TRUE(r.proved_optimal);
  EXPECT_TRUE(stats.proved_optimal);
  EXPECT_NEAR(r.expected_cost, static_cast<double>(nq), 1e-12);
  std::vector<int> expect = {0};
  expect.insert(expect.end(), planted.begin(), planted.end());
  EXPECT_EQ(r.chosen, expect);
  EXPECT_EQ(stats.solves, 1u);
  EXPECT_GT(stats.nodes_expanded, 0u);
}

TEST(SolverEngineTest, ForcedCandidateClaimsItsSos1Group) {
  // A forced member of an SOS1 group excludes its siblings — even when a
  // sibling would be beneficial and fits the budget.
  SelectionProblem p;
  p.sizes = {0, 10};
  p.forced = {0};
  p.costs = {
      {50.0, 1.0},
      {50.0, 1.0},
  };
  p.sos1_groups = {{0, 1}};
  p.budget_bytes = 100;
  const SelectionResult r = SolverEngine().Solve(p);
  EXPECT_TRUE(r.proved_optimal);
  EXPECT_EQ(r.chosen, (std::vector<int>{0}));
  EXPECT_TRUE(SelectionFeasible(p, r.chosen));
  // And a warm hint naming the sibling must not smuggle it back in.
  const std::vector<int> hint = {1};
  const SelectionResult warm = SolverEngine().Solve(p, nullptr, &hint);
  EXPECT_EQ(warm.chosen, (std::vector<int>{0}));
}

TEST(SolverEngineTest, PlantedSos1GroupKeepsOnlyBestRecluster) {
  // Two "reclusterings" in one SOS1 group; the better one must win and the
  // pair must never be chosen together.
  SelectionProblem p;
  p.sizes = {0, 10, 10};
  p.forced = {0};
  p.costs = {
      {50.0, 5.0, 2.0},
      {50.0, 5.0, 2.0},
  };
  p.sos1_groups = {{1, 2}};
  p.budget_bytes = 100;
  const SelectionResult r = SolverEngine().Solve(p);
  EXPECT_TRUE(r.proved_optimal);
  EXPECT_EQ(r.chosen, (std::vector<int>{0, 2}));
  EXPECT_NEAR(r.expected_cost, 4.0, 1e-12);
}

// ---------- Brute force ----------

TEST(SolverEngineTest, MatchesBruteForceOnRandomInstances) {
  struct Case {
    uint64_t seed;
    size_t candidates;
    size_t queries;
    uint64_t budget;
    bool with_sos1;
  };
  std::vector<Case> cases;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    cases.push_back({seed, 10 + seed % 5, 3 + seed % 4, 8 + 3 * seed,
                     seed % 2 == 0});
  }
  // 8 to 16 candidates under budgets from 5 to 40 bytes, half with SOS1.
  cases.insert(cases.end(), {{1, 8, 3, 12, false},
                             {2, 10, 5, 20, false},
                             {3, 12, 4, 15, true},
                             {4, 14, 6, 25, true},
                             {5, 10, 8, 8, false},
                             {6, 12, 2, 40, true},
                             {7, 14, 5, 5, false},
                             {8, 16, 4, 30, true}});
  const SolverEngine engine;
  for (const Case& c : cases) {
    const SelectionProblem p = RandomInstance(c.seed, c.candidates, c.queries,
                                              c.budget, c.with_sos1);
    const double brute = BruteForce(p);
    const SelectionResult r = engine.Solve(p);
    EXPECT_TRUE(r.proved_optimal) << "seed " << c.seed;
    EXPECT_NEAR(r.expected_cost, brute, 1e-9) << "seed " << c.seed;
    EXPECT_TRUE(SelectionFeasible(p, r.chosen)) << "seed " << c.seed;
  }
}

TEST(SolverEngineTest, MatchesBruteForceAtSixteenCandidates) {
  const SolverEngine engine;
  for (uint64_t seed = 40; seed < 52; ++seed) {
    const SelectionProblem p =
        RandomInstance(seed, 16, 6, 20 + seed, seed % 2 == 1);
    const SelectionResult r = engine.Solve(p);
    EXPECT_NEAR(r.expected_cost, BruteForce(p), 1e-9) << seed;
  }
}

// ---------- Table 3 LP certificate ----------

TEST(SolverEngineTest, LpRelaxationCertifiesFig6Optima) {
  // Brute force cannot reach 100-400 candidates; the LP relaxation bounds
  // every solve and pins the optimum wherever it comes out integral.
  const SolverEngine engine;
  int integral_instances = 0;
  for (size_t n : {100ul, 200ul, 400ul}) {
    SCOPED_TRACE(n);
    const SelectionProblem p = Fig6Synthetic(n, 13, n);
    const SelectionResult r = engine.Solve(p);
    ASSERT_TRUE(r.proved_optimal);
    bool integral = false;
    ASSERT_NO_FATAL_FAILURE(CheckAgainstLpRelaxation(p, r, &integral));
    integral_instances += integral ? 1 : 0;
  }
  // Otherwise the equality half of the certificate never ran.
  EXPECT_GE(integral_instances, 1);
}

// ---------- Determinism across thread counts ----------

TEST(SolverEngineTest, BitIdenticalAcrossThreadCounts) {
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (size_t n : {200ul, 400ul}) {
    const SelectionProblem p = Fig6Synthetic(n, 13, n + 3);

    SolverOptions serial_opt;
    serial_opt.pool = &pool1;
    const SelectionResult reference = SolverEngine(serial_opt).Solve(p);

    for (ThreadPool* pool : {&pool2, &pool8}) {
      SolverOptions opt;
      opt.pool = pool;
      const SelectionResult r = SolverEngine(opt).Solve(p);
      // Bit-identical: same chosen set, same doubles, same node count.
      EXPECT_EQ(r.chosen, reference.chosen) << n;
      EXPECT_EQ(r.expected_cost, reference.expected_cost) << n;
      EXPECT_EQ(r.used_bytes, reference.used_bytes) << n;
      EXPECT_EQ(r.nodes_explored, reference.nodes_explored) << n;
      EXPECT_EQ(r.best_for_query, reference.best_for_query) << n;
    }
  }
}

TEST(SolverEngineTest, NodeCappedSolvesStayDeterministic) {
  // A capped search returns an incumbent; the cap is enforced at wave
  // granularity, so the incumbent must still be thread-count invariant.
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  // Seed 100 at 100 candidates needs ~50k nodes to prove optimality, so a
  // 2k cap suspends the search mid-plateau.
  const SelectionProblem p = Fig6Synthetic(100, 13, 100);

  SolverOptions serial_opt;
  serial_opt.pool = &pool1;
  serial_opt.max_nodes = 2000;
  serial_opt.nodes_per_task = 256;
  const SelectionResult reference = SolverEngine(serial_opt).Solve(p);
  EXPECT_FALSE(reference.proved_optimal);

  for (ThreadPool* pool : {&pool2, &pool8}) {
    SolverOptions opt;
    opt.pool = pool;
    opt.max_nodes = 2000;
    opt.nodes_per_task = 256;
    const SelectionResult r = SolverEngine(opt).Solve(p);
    EXPECT_EQ(r.chosen, reference.chosen);
    EXPECT_EQ(r.expected_cost, reference.expected_cost);
    EXPECT_EQ(r.nodes_explored, reference.nodes_explored);
    EXPECT_FALSE(r.proved_optimal);
  }
}

TEST(SolverEngineTest, WarmStartedSolvesStayDeterministic) {
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  const SelectionProblem p = Fig6Synthetic(300, 13, 7);
  const SelectionResult cold = SolverEngine().Solve(p);

  // Use the cold solution of a tighter budget as the warm hint.
  SelectionProblem tight = p;
  tight.budget_bytes = p.budget_bytes / 2;
  const SelectionResult tight_result = SolverEngine().Solve(tight);

  SolverOptions serial_opt;
  serial_opt.pool = &pool1;
  SolverStats ref_stats;
  const SelectionResult reference =
      SolverEngine(serial_opt).Solve(p, &ref_stats, &tight_result.chosen);
  EXPECT_EQ(ref_stats.warm_solves, 1u);
  // The optimum value never depends on the warm hint (modulo the
  // optimality gap); the chosen *set* may differ between warm and cold on
  // equal-cost plateaus.
  EXPECT_NEAR(reference.expected_cost, cold.expected_cost,
              2.0 * kSolverRelativeGap * (1.0 + cold.expected_cost));

  for (ThreadPool* pool : {&pool2, &pool8}) {
    SolverOptions opt;
    opt.pool = pool;
    const SelectionResult r =
        SolverEngine(opt).Solve(p, nullptr, &tight_result.chosen);
    EXPECT_EQ(r.chosen, reference.chosen);
    EXPECT_EQ(r.expected_cost, reference.expected_cost);
    EXPECT_EQ(r.nodes_explored, reference.nodes_explored);
  }
}

// ---------- Warm-start semantics ----------

TEST(SolverEngineTest, WarmHintNeverChangesProvenOptimum) {
  const SolverEngine engine;
  for (uint64_t seed = 60; seed < 66; ++seed) {
    const SelectionProblem p = RandomInstance(seed, 14, 5, 30, false);
    const SelectionResult cold = engine.Solve(p);
    // Warm with garbage indices too: repair must skip them.
    std::vector<int> hint = cold.chosen;
    hint.push_back(9999);
    hint.push_back(-3);
    SolverStats stats;
    const SelectionResult warm = engine.Solve(p, &stats, &hint);
    EXPECT_TRUE(warm.proved_optimal);
    EXPECT_NEAR(warm.expected_cost, cold.expected_cost,
                2.0 * kSolverRelativeGap * (1.0 + cold.expected_cost))
        << seed;
    EXPECT_EQ(stats.warm_solves, 1u);
  }
}

TEST(SolverEngineTest, StatsAccumulateAcrossSolves) {
  const SolverEngine engine;
  SolverStats stats;
  const SelectionProblem p = Fig6Synthetic(150, 13, 5);
  engine.Solve(p, &stats);
  const uint64_t nodes_once = stats.nodes_expanded;
  engine.Solve(p, &stats);
  EXPECT_EQ(stats.solves, 2u);
  EXPECT_EQ(stats.nodes_expanded, nodes_once * 2);
  EXPECT_TRUE(stats.proved_optimal);
}

// ---------- SSB-backed fixtures: re-pricing + session mapping ----------

class SolverSsbTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ssb::SsbOptions options;
    options.scale_factor = 0.003;
    catalog_ = ssb::MakeCatalog(options).release();
    universe_ = new Universe(*catalog_, *catalog_->GetFactInfo("lineorder"));
    StatsOptions sopt;
    sopt.sample_rows = 2048;
    sopt.disk.page_size_bytes = 1024;
    stats_ = new UniverseStats(universe_, sopt);
    registry_ = new StatsRegistry();
    registry_->Register(stats_);
    model_ = new CorrelationCostModel(registry_);
    workload_ = new Workload(ssb::MakeWorkload());
    CandidateGeneratorOptions gopt;
    gopt.grouping.alphas = {0.0, 0.5};
    gopt.grouping.restarts = 1;
    generator_ = new MvCandidateGenerator(catalog_, registry_, model_, gopt);
    candidates_ = new std::vector<MvSpec>(generator_->Generate(*workload_).mvs);
  }
  static void TearDownTestSuite() {
    delete candidates_;
    delete generator_;
    delete workload_;
    delete model_;
    delete registry_;
    delete stats_;
    delete universe_;
    delete catalog_;
  }

  static Catalog* catalog_;
  static Universe* universe_;
  static UniverseStats* stats_;
  static StatsRegistry* registry_;
  static CorrelationCostModel* model_;
  static Workload* workload_;
  static MvCandidateGenerator* generator_;
  static std::vector<MvSpec>* candidates_;
};

Catalog* SolverSsbTest::catalog_ = nullptr;
Universe* SolverSsbTest::universe_ = nullptr;
UniverseStats* SolverSsbTest::stats_ = nullptr;
StatsRegistry* SolverSsbTest::registry_ = nullptr;
CorrelationCostModel* SolverSsbTest::model_ = nullptr;
Workload* SolverSsbTest::workload_ = nullptr;
MvCandidateGenerator* SolverSsbTest::generator_ = nullptr;
std::vector<MvSpec>* SolverSsbTest::candidates_ = nullptr;

TEST_F(SolverSsbTest, AppendMatchesFullRebuild) {
  const uint64_t budget = 8ull << 20;
  const size_t half = candidates_->size() / 2;
  ASSERT_GT(half, 0u);

  std::vector<MvSpec> first(candidates_->begin(),
                            candidates_->begin() +
                                static_cast<ptrdiff_t>(half));
  std::vector<MvSpec> second(candidates_->begin() +
                                 static_cast<ptrdiff_t>(half),
                             candidates_->end());

  const BuiltProblem full = BuildSelectionProblem(
      *workload_, *candidates_, *model_, *registry_, budget);
  BuiltProblem grown = BuildSelectionProblem(*workload_, std::move(first),
                                             *model_, *registry_, budget);
  const size_t appended = AppendSelectionCandidates(
      &grown, std::move(second), *workload_, *model_, *registry_);

  EXPECT_EQ(appended, candidates_->size() - half);
  EXPECT_EQ(grown.specs.size(), full.specs.size());
  // The memoized model prices identical (query, spec) pairs identically,
  // so the incrementally grown problem must be bit-identical.
  EXPECT_EQ(grown.problem.sizes, full.problem.sizes);
  EXPECT_EQ(grown.problem.costs, full.problem.costs);
  EXPECT_EQ(grown.problem.forced, full.problem.forced);
  EXPECT_EQ(grown.problem.sos1_groups, full.problem.sos1_groups);
  EXPECT_EQ(grown.problem.query_weights, full.problem.query_weights);
  for (size_t m = 0; m < full.specs.size(); ++m) {
    EXPECT_EQ(MvSpecSignature(grown.specs[m]), MvSpecSignature(full.specs[m]));
  }
}

TEST_F(SolverSsbTest, LpRelaxationCertifiesSsbOptima) {
  // The fig5 problem set: real SSB candidate pools across budgets. The
  // engine proves (gap-)optimality; the Table 3 LP bounds every solve and
  // pins the optimum wherever it comes out integral.
  const SolverEngine engine;
  int integral_instances = 0;
  for (uint64_t budget : {2ull << 20, 8ull << 20, 32ull << 20}) {
    SCOPED_TRACE(budget);
    const BuiltProblem built = BuildSelectionProblem(
        *workload_, *candidates_, *model_, *registry_, budget);
    const SelectionResult r = engine.Solve(built.problem);
    ASSERT_TRUE(r.proved_optimal);
    bool integral = false;
    ASSERT_NO_FATAL_FAILURE(
        CheckAgainstLpRelaxation(built.problem, r, &integral));
    integral_instances += integral ? 1 : 0;
  }
  // Otherwise the equality half of the certificate never ran.
  EXPECT_GE(integral_instances, 1);
}

TEST_F(SolverSsbTest, WarmStartSessionMapsAcrossRebuiltProblems) {
  const SolverEngine engine;
  WarmStartSession session;
  EXPECT_FALSE(session.has_solution());

  const BuiltProblem tight = BuildSelectionProblem(
      *workload_, *candidates_, *model_, *registry_, 4ull << 20);
  const SelectionResult tight_result = engine.Solve(tight.problem);
  session.Record(tight, tight_result);
  EXPECT_TRUE(session.has_solution());

  // A rebuilt problem at another budget: the session maps by signature.
  const BuiltProblem loose = BuildSelectionProblem(
      *workload_, *candidates_, *model_, *registry_, 16ull << 20);
  const std::vector<int> warm = session.WarmChosen(loose);
  EXPECT_GE(warm.size(), tight_result.chosen.size() - 1);  // minus base

  SolverStats warm_stats;
  const SelectionResult warm_result =
      engine.Solve(loose.problem, &warm_stats, &warm);
  SolverStats cold_stats;
  const SelectionResult cold_result =
      engine.Solve(loose.problem, &cold_stats);
  ASSERT_TRUE(warm_result.proved_optimal);
  ASSERT_TRUE(cold_result.proved_optimal);
  EXPECT_NEAR(warm_result.expected_cost, cold_result.expected_cost,
              2.0 * kSolverRelativeGap * (1.0 + cold_result.expected_cost));
  EXPECT_EQ(warm_stats.warm_solves, 1u);
}

}  // namespace
}  // namespace coradd
