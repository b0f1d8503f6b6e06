// Reproduces Figure 6: solver runtime versus number of MV candidates.
// The paper's CPLEX solved its LP in minutes up to 20k candidates; we
// report the parallel solver engine (solver/solver.h) on synthetic pools up
// to 20k candidates, plus the dense-simplex LP relaxation at smaller sizes
// (see "Substitutions" in docs/ARCHITECTURE.md). solver_test checks the
// engine's objectives on the 100-400 candidate instances against this LP,
// not this bench. Runs under the benchkit repetition harness; --json
// emits schema-v2 BENCH_fig6_solver_runtime.json with SolverStats.
#include <chrono>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "ilp/ilp_problem.h"
#include "solver/solver.h"

using namespace coradd;
using namespace coradd::bench;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Synthetic selection instance shaped like CORADD's: each candidate is an
/// MV built for a small query group (serving 1-3 queries), bigger MVs tend
/// to be faster for their group (more useful columns, better clustering),
/// and the budget binds like the paper's mid-range points.
SelectionProblem Synthetic(size_t num_candidates, size_t num_queries,
                           uint64_t seed) {
  Rng rng(seed);
  SelectionProblem p;
  p.sizes = {0};
  p.forced = {0};
  p.costs.resize(num_queries);
  for (auto& row : p.costs) row.push_back(120.0);  // base full scan

  uint64_t total_bytes = 0;
  for (size_t m = 1; m < num_candidates; ++m) {
    const uint64_t size = (rng.Uniform(64) + 1) << 20;
    p.sizes.push_back(size);
    total_bytes += size;
    // Query group of 1-3 queries; runtime improves with size, plus noise
    // so every candidate is distinct (real cost tables have no ties).
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
  p.budget_bytes = total_bytes / 6;  // binding, like the paper's mid budgets
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("fig6_solver_runtime", argc, argv);
  const double max_thousands =
      FlagDouble(argc, argv, "max", h.fast() ? 2.0 : 20.0);
  BenchJson& json = h.json();
  json.Config("max_thousands", max_thousands);

  h.Run([&](const RunPass& pass) {
    // Realistic sizes first: what actually reaches the solver after
    // domination pruning (§5.3: ~160 candidates) is solved to proven
    // optimality in well under the paper's <1s.
    const SolverEngine engine;
    if (pass.reporting) {
      PrintHeader("Exact solve at post-domination sizes (proven optimal)",
                  {"#cands", "engine[s]", "nodes", "optimal",
                   "expected[s]"});
    }
    for (size_t n : {100ul, 200ul, 400ul, 800ul}) {
      const SelectionProblem p = Synthetic(n, 13, n);
      SolverStats stats;
      const double t0 = Now();
      const SelectionResult r = engine.Solve(p, &stats);
      const double engine_secs = Now() - t0;
      if (n == 800ul) h.Sample("exact800_engine_seconds", engine_secs);
      if (!pass.reporting) continue;
      PrintRow({std::to_string(n), StrFormat("%.3f", engine_secs),
                std::to_string(r.nodes_explored),
                r.proved_optimal ? "yes" : "no",
                StrFormat("%.1f", r.expected_cost)});
      json.Row({{"section", BenchJson::Quote("exact")},
                {"candidates", BenchJson::Num(static_cast<double>(n))},
                {"engine_seconds", BenchJson::Num(engine_secs)},
                {"solver_nodes",
                 BenchJson::Num(static_cast<double>(stats.nodes_expanded))},
                {"solver_prunes",
                 BenchJson::Num(static_cast<double>(stats.bound_prunes))},
                {"solver_waves",
                 BenchJson::Num(static_cast<double>(stats.waves))},
                {"objective", BenchJson::Num(r.expected_cost)}});
    }

    // Stress scale (the paper's 0-20k sweep): time-capped search; quality
    // is reported against the density-greedy heuristic (the incumbent is
    // always at least as good; "optimal=yes" means proven).
    if (pass.reporting) {
      PrintHeader("Figure 6: solver runtime vs #MV candidates (20s cap)",
                  {"#cands", "engine[s]", "optimal", "engine_cost",
                   "greedy_cost"});
    }
    for (size_t n : {1000ul, 2000ul, 5000ul, 10000ul, 15000ul, 20000ul}) {
      if (n > static_cast<size_t>(max_thousands * 1000)) break;
      const SelectionProblem p = Synthetic(n, 13, n);
      SolverOptions options;
      options.time_limit_seconds = h.fast() ? 2.0 : 20.0;
      const SolverEngine capped(options);
      SolverStats stats;
      const double t0 = Now();
      const SelectionResult r = capped.Solve(p, &stats);
      const double secs = Now() - t0;
      const SelectionResult greedy = SolveSelectionGreedyDensity(p);
      if (!pass.reporting) continue;
      PrintRow({std::to_string(n), StrFormat("%.3f", secs),
                r.proved_optimal ? "yes" : "no",
                StrFormat("%.1f", r.expected_cost),
                StrFormat("%.1f", greedy.expected_cost)});
      json.Row({{"section", BenchJson::Quote("stress")},
                {"candidates", BenchJson::Num(static_cast<double>(n))},
                {"engine_seconds", BenchJson::Num(secs)},
                {"solver_nodes",
                 BenchJson::Num(static_cast<double>(stats.nodes_expanded))},
                {"proved_optimal", r.proved_optimal ? std::string("true")
                                                    : std::string("false")},
                {"engine_cost", BenchJson::Num(r.expected_cost)},
                {"greedy_cost", BenchJson::Num(greedy.expected_cost)}});
    }

    if (pass.reporting) {
      PrintHeader("LP relaxation (dense two-phase simplex) runtime",
                  {"#cands", "lp[s]", "iters", "objective"});
    }
    for (size_t n : {50ul, 100ul, 200ul, 400ul}) {
      const SelectionProblem p = Synthetic(n, 13, n + 7);
      const PaperIlpFormulation form = BuildPaperIlp(p);
      const double t0 = Now();
      const LpSolution s = SolvePaperLpRelaxation(form);
      const double secs = Now() - t0;
      if (n == 400ul) h.Sample("lp400_seconds", secs);
      if (!pass.reporting) continue;
      PrintRow({std::to_string(n), StrFormat("%.3f", secs),
                std::to_string(s.iterations),
                s.status == LpStatus::kOptimal
                    ? StrFormat("%.1f", s.objective)
                    : std::string("n/a")});
      json.Row({{"section", BenchJson::Quote("lp")},
                {"candidates", BenchJson::Num(static_cast<double>(n))},
                {"lp_seconds", BenchJson::Num(secs)},
                {"lp_iterations",
                 BenchJson::Num(static_cast<double>(s.iterations))}});
    }
    if (pass.reporting) {
      std::printf(
          "\nPaper shape check: proven-optimal in <<1s at the "
          "~160-candidate\nsizes domination pruning leaves on real workloads "
          "(§5.3); at the\nsynthetic 0-20k stress sweep, runtime grows with "
          "candidate count and\nthe capped search still returns solutions no "
          "worse than greedy\n(the paper's CPLEX needed minutes at 20k).\n");
    }
  });
  return h.Finish();
}
