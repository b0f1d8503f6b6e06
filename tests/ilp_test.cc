// Tests for src/ilp: the two-phase simplex LP solver, selection-problem
// semantics, exact solves of hand-built instances, Greedy(m,k),
// dominated-candidate pruning (§5), and the Table 3 LP relaxation. Exact
// optima come from the solver engine (solver/solver.h); solver_test checks
// that engine against brute force and the LP.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "cost/cost_model.h"
#include "ilp/domination.h"
#include "ilp/greedy_mk.h"
#include "ilp/ilp_problem.h"
#include "ilp/lp.h"
#include "solver/solver.h"

namespace coradd {
namespace {

// ---------- LP solver ----------

TEST(LpSolverTest, SimpleTwoVariableOptimum) {
  // min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2.  Optimal at (2, 2): -6.
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {-1, -2};
  lp.AddRow({1, 1}, 4);
  lp.upper_bounds = {3, 2};
  const LpSolution s = SolveLp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -6.0, 1e-6);
  EXPECT_NEAR(s.x[0], 2.0, 1e-6);
  EXPECT_NEAR(s.x[1], 2.0, 1e-6);
}

TEST(LpSolverTest, DetectsInfeasible) {
  // x <= -1 with x >= 0.
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {1};
  lp.AddRow({1}, -1);
  EXPECT_EQ(SolveLp(lp).status, LpStatus::kInfeasible);
}

TEST(LpSolverTest, DetectsUnbounded) {
  // min -x with only x >= 0: unbounded below.
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {-1};
  lp.AddRow({-1}, 0);  // -x <= 0, vacuous
  EXPECT_EQ(SolveLp(lp).status, LpStatus::kUnbounded);
}

TEST(LpSolverTest, GreaterEqualConstraintViaNegativeRhs) {
  // min x  s.t. x >= 2  (encoded -x <= -2).
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {1};
  lp.AddRow({-1}, -2);
  const LpSolution s = SolveLp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 2.0, 1e-6);
}

TEST(LpSolverTest, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the same vertex.
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {-1, -1};
  lp.AddRow({1, 0}, 1);
  lp.AddRow({1, 0}, 1);
  lp.AddRow({0, 1}, 1);
  lp.AddRow({1, 1}, 2);
  const LpSolution s = SolveLp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-6);
}

TEST(LpSolverTest, MediumRandomInstanceSolves) {
  Rng rng(99);
  LinearProgram lp;
  lp.num_vars = 40;
  for (int j = 0; j < 40; ++j) {
    lp.objective.push_back(-1.0 - static_cast<double>(rng.Uniform(10)));
  }
  for (int i = 0; i < 30; ++i) {
    std::vector<double> row(40);
    for (auto& v : row) v = static_cast<double>(rng.Uniform(5));
    lp.AddRow(std::move(row), 50.0 + static_cast<double>(rng.Uniform(50)));
  }
  lp.upper_bounds.assign(40, 3.0);
  const LpSolution s = SolveLp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_LT(s.objective, 0.0);
  // Feasibility of the returned point.
  for (size_t r = 0; r < lp.rows.size(); ++r) {
    double lhs = 0;
    for (int j = 0; j < 40; ++j) lhs += lp.rows[r][static_cast<size_t>(j)] * s.x[static_cast<size_t>(j)];
    EXPECT_LE(lhs, lp.rhs[r] + 1e-6);
  }
}

// ---------- Selection helpers ----------

SelectionProblem TinyProblem() {
  // 1 base (forced, size 0) + 3 candidates; 2 queries.
  SelectionProblem p;
  p.sizes = {0, 10, 10, 15};
  p.costs = {
      {10.0, 1.0, kInfeasibleCost, 2.0},   // q0
      {10.0, kInfeasibleCost, 1.0, 2.0},   // q1
  };
  p.budget_bytes = 20;
  p.forced = {0};
  return p;
}

TEST(SelectionTest, EvaluateUsesBestChosen) {
  const SelectionProblem p = TinyProblem();
  std::vector<int> best;
  EXPECT_NEAR(EvaluateSelection(p, {0}, &best), 20.0, 1e-12);
  EXPECT_EQ(best, (std::vector<int>{0, 0}));
  EXPECT_NEAR(EvaluateSelection(p, {0, 1}, &best), 11.0, 1e-12);
  EXPECT_EQ(best[0], 1);
  EXPECT_NEAR(EvaluateSelection(p, {0, 3}, &best), 4.0, 1e-12);
}

TEST(SelectionTest, FeasibilityChecks) {
  SelectionProblem p = TinyProblem();
  EXPECT_TRUE(SelectionFeasible(p, {0, 1, 2}));   // 20 <= 20
  EXPECT_FALSE(SelectionFeasible(p, {0, 1, 3}));  // 25 > 20
  EXPECT_FALSE(SelectionFeasible(p, {1}));        // forced 0 missing
  p.sos1_groups = {{1, 2}};
  EXPECT_FALSE(SelectionFeasible(p, {0, 1, 2}));
}

TEST(SelectionTest, WeightsScaleCosts) {
  SelectionProblem p = TinyProblem();
  p.query_weights = {2.0, 1.0};
  EXPECT_NEAR(EvaluateSelection(p, {0}), 30.0, 1e-12);
}

// ---------- Exact solves (solver engine) ----------

TEST(BranchAndBoundTest, PicksPairOverSharedWhenBudgetAllows) {
  const SelectionProblem p = TinyProblem();
  const SelectionResult r = SolverEngine().Solve(p);
  EXPECT_TRUE(r.proved_optimal);
  // {1,2} costs 2.0 total beats {3} at 4.0; both fit in 20.
  EXPECT_NEAR(r.expected_cost, 2.0, 1e-12);
  EXPECT_EQ(r.chosen, (std::vector<int>{0, 1, 2}));
}

TEST(BranchAndBoundTest, TightBudgetPrefersShared) {
  SelectionProblem p = TinyProblem();
  p.budget_bytes = 15;  // only the shared MV fits
  const SelectionResult r = SolverEngine().Solve(p);
  EXPECT_TRUE(r.proved_optimal);
  EXPECT_NEAR(r.expected_cost, 4.0, 1e-12);
  EXPECT_EQ(r.chosen, (std::vector<int>{0, 3}));
}

TEST(BranchAndBoundTest, RespectsSos1) {
  SelectionProblem p = TinyProblem();
  p.sos1_groups = {{1, 2}};  // candidates 1 and 2 conflict
  const SelectionResult r = SolverEngine().Solve(p);
  EXPECT_TRUE(r.proved_optimal);
  // Best feasible: {3} at 4.0 (1+2 would be 2.0 but conflicts; 1+3 = 3.0
  // costs 25 bytes > budget).
  EXPECT_NEAR(r.expected_cost, 4.0, 1e-12);
}

TEST(BranchAndBoundTest, ZeroBudgetKeepsBaseOnly) {
  SelectionProblem p = TinyProblem();
  p.budget_bytes = 0;
  const SelectionResult r = SolverEngine().Solve(p);
  EXPECT_EQ(r.chosen, (std::vector<int>{0}));
  EXPECT_NEAR(r.expected_cost, 20.0, 1e-12);
}

TEST(BranchAndBoundTest, GreedyNeverBeatsExact) {
  for (uint64_t seed = 100; seed < 110; ++seed) {
    Rng rng(seed);
    SelectionProblem p;
    p.budget_bytes = 25;
    p.sizes = {0};
    p.forced = {0};
    for (int m = 1; m < 20; ++m) p.sizes.push_back(rng.Uniform(12) + 1);
    p.costs.resize(6);
    for (auto& row : p.costs) {
      row.push_back(100.0);
      for (int m = 1; m < 20; ++m) {
        row.push_back(rng.Bernoulli(0.5)
                          ? kInfeasibleCost
                          : 1.0 + static_cast<double>(rng.Uniform(80)));
      }
    }
    const SelectionResult exact = SolverEngine().Solve(p);
    const SelectionResult greedy = SolveSelectionGreedyDensity(p);
    EXPECT_LE(exact.expected_cost, greedy.expected_cost + 1e-9);
    EXPECT_TRUE(exact.proved_optimal);
  }
}

// ---------- Greedy(m,k) ----------

TEST(GreedyMkTest, FindsSeedPairGreedyWouldMiss) {
  // Two complementary MVs each useless alone; a mediocre single MV.
  // Plain greedy picks the mediocre one first and exhausts the budget;
  // Greedy(2,k)'s exhaustive phase finds the pair — the reason [5] has the
  // exhaustive phase at all.
  SelectionProblem p;
  p.sizes = {0, 10, 10, 12};
  p.budget_bytes = 20;
  p.forced = {0};
  p.costs = {
      {100.0, 100.0, 1.0, 60.0},
      {100.0, 1.0, 100.0, 60.0},
  };
  const SelectionResult r = SolveSelectionGreedyMk(p, GreedyMkOptions{2, 100});
  EXPECT_NEAR(r.expected_cost, 2.0, 1e-12);
}

TEST(GreedyMkTest, RespectsK) {
  SelectionProblem p;
  p.sizes = {0, 1, 1, 1};
  p.budget_bytes = 100;
  p.forced = {0};
  p.costs = {{9, 1, 9, 9}, {9, 9, 1, 9}, {9, 9, 9, 1}};
  const SelectionResult r = SolveSelectionGreedyMk(p, GreedyMkOptions{0, 2});
  // Only two adds allowed beyond forced.
  EXPECT_EQ(r.chosen.size(), 3u);
}

TEST(GreedyMkTest, NeverBetterThanExact) {
  for (uint64_t seed = 200; seed < 206; ++seed) {
    Rng rng(seed);
    SelectionProblem p;
    p.budget_bytes = 18;
    p.sizes = {0};
    p.forced = {0};
    for (int m = 1; m < 14; ++m) p.sizes.push_back(rng.Uniform(9) + 1);
    p.costs.resize(5);
    for (auto& row : p.costs) {
      row.push_back(60.0);
      for (int m = 1; m < 14; ++m) {
        row.push_back(rng.Bernoulli(0.4)
                          ? kInfeasibleCost
                          : 1.0 + static_cast<double>(rng.Uniform(50)));
      }
    }
    const double exact = SolverEngine().Solve(p).expected_cost;
    const double greedy = SolveSelectionGreedyMk(p).expected_cost;
    EXPECT_LE(exact, greedy + 1e-9) << seed;
  }
}

// ---------- Domination (Table 4) ----------

TEST(DominationTest, PaperTable4Scenario) {
  // MV1 dominates MV2 (smaller & faster everywhere m2 serves) but not MV3
  // (m3 uniquely serves q1).
  SelectionProblem p;
  p.sizes = {1ull << 30, 2ull << 30, 3ull << 30};
  p.costs = {
      {1.0, 5.0, 5.0},                          // Q1
      {kInfeasibleCost, kInfeasibleCost, 5.0},  // Q2
      {1.0, 2.0, 5.0},                          // Q3
  };
  p.budget_bytes = 10ull << 30;
  const auto mask = DominatedMask(p);
  EXPECT_FALSE(mask[0]);
  EXPECT_TRUE(mask[1]);
  EXPECT_FALSE(mask[2]);
}

TEST(DominationTest, EqualTwinsKeepOne) {
  SelectionProblem p;
  p.sizes = {5, 5};
  p.costs = {{1.0, 1.0}};
  p.budget_bytes = 100;
  const auto mask = DominatedMask(p);
  EXPECT_FALSE(mask[0]);
  EXPECT_TRUE(mask[1]);
}

TEST(DominationTest, ForcedNeverDominated) {
  SelectionProblem p;
  p.sizes = {5, 0};
  p.costs = {{1.0, 10.0}};
  p.forced = {1};
  p.budget_bytes = 100;
  const auto mask = DominatedMask(p);
  EXPECT_FALSE(mask[1]);
}

TEST(DominationTest, PruningPreservesOptimum) {
  for (uint64_t seed = 300; seed < 308; ++seed) {
    Rng rng(seed);
    SelectionProblem p;
    p.budget_bytes = 20;
    p.sizes = {0};
    p.forced = {0};
    for (int m = 1; m < 14; ++m) p.sizes.push_back(rng.Uniform(8) + 1);
    p.costs.resize(4);
    for (auto& row : p.costs) {
      row.push_back(60.0);
      for (int m = 1; m < 14; ++m) {
        row.push_back(rng.Bernoulli(0.3)
                          ? kInfeasibleCost
                          : 1.0 + static_cast<double>(rng.Uniform(30)));
      }
    }
    const double before = SolverEngine().Solve(p).expected_cost;
    const SelectionProblem pruned = CompactProblem(p, DominatedMask(p));
    const double after = SolverEngine().Solve(pruned).expected_cost;
    EXPECT_NEAR(before, after, 1e-9) << seed;
  }
}

TEST(DominationTest, CompactRemapsSos1AndForced) {
  SelectionProblem p;
  p.sizes = {0, 5, 5, 7};
  p.costs = {
      {10, 1, 1, 2},                                // q0
      {10, kInfeasibleCost, kInfeasibleCost, 3.0},  // q1: only 3 serves it
  };
  p.forced = {0};
  p.sos1_groups = {{1, 2, 3}};
  p.budget_bytes = 100;
  std::vector<int> old_index;
  const SelectionProblem c = CompactProblem(p, DominatedMask(p), &old_index);
  // Candidate 2 (twin of 1) is gone; 3 survives via q1; group remapped.
  EXPECT_EQ(c.NumCandidates(), 3u);
  EXPECT_EQ(c.forced, (std::vector<int>{0}));
  ASSERT_EQ(c.sos1_groups.size(), 1u);
  EXPECT_EQ(c.sos1_groups[0].size(), 2u);
  EXPECT_EQ(old_index[0], 0);
  EXPECT_EQ(old_index[2], 3);
}

// ---------- Paper ILP formulation ----------

TEST(PaperIlpTest, VariableAndConstraintCounts) {
  const SelectionProblem p = TinyProblem();
  const PaperIlpFormulation form = BuildPaperIlp(p);
  // y: 4. Feasible per query: q0 -> {0,1,3}, q1 -> {0,2,3}: x per (q, r>=2)
  // = 2 + 2.
  EXPECT_EQ(form.num_y, 4);
  EXPECT_EQ(form.num_x, 4);
  // Constraints: 4 penalty rows + budget + forced-base row.
  EXPECT_EQ(form.num_constraints, 6);
  EXPECT_EQ(form.orderings[0].front(), 1);  // fastest for q0
}

TEST(PaperIlpTest, RelaxationLowerBoundsExact) {
  for (uint64_t seed = 400; seed < 406; ++seed) {
    Rng rng(seed);
    SelectionProblem p;
    p.budget_bytes = 15;
    p.sizes = {0};
    p.forced = {0};
    for (int m = 1; m < 10; ++m) p.sizes.push_back(rng.Uniform(8) + 1);
    p.costs.resize(4);
    for (auto& row : p.costs) {
      row.push_back(50.0);
      for (int m = 1; m < 10; ++m) {
        row.push_back(rng.Bernoulli(0.4)
                          ? kInfeasibleCost
                          : 1.0 + static_cast<double>(rng.Uniform(40)));
      }
    }
    const PaperIlpFormulation form = BuildPaperIlp(p);
    const LpSolution relax = SolvePaperLpRelaxation(form);
    ASSERT_EQ(relax.status, LpStatus::kOptimal) << seed;
    const double exact = SolverEngine().Solve(p).expected_cost;
    EXPECT_LE(relax.objective, exact + 1e-6) << seed;
    // The relaxation is itself bounded below by the all-chosen cost.
    std::vector<int> all;
    for (size_t m = 0; m < p.NumCandidates(); ++m) all.push_back(static_cast<int>(m));
    EXPECT_GE(relax.objective, EvaluateSelection(p, all) - 1e-6) << seed;
  }
}

TEST(PaperIlpTest, RelaxationMatchesExactWhenIntegral) {
  // On the tiny instance the LP relaxation is integral.
  const SelectionProblem p = TinyProblem();
  const LpSolution relax = SolvePaperLpRelaxation(BuildPaperIlp(p));
  ASSERT_EQ(relax.status, LpStatus::kOptimal);
  EXPECT_NEAR(relax.objective, SolverEngine().Solve(p).expected_cost, 1e-6);
}

}  // namespace
}  // namespace coradd
