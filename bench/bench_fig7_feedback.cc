// Reproduces Figure 7: solution quality of the plain ILP and ILP+Feedback
// relative to OPT across budgets. The paper obtained OPT by brute-forcing
// all 2^13-1 query groupings for a week on four servers; we brute-force all
// groupings of a 6-query subworkload (flights 1 and 2), which is exact and
// runs in minutes at our scale (see "Substitutions" in docs/ARCHITECTURE.md).
//
// Every budget cell (OPT solve + ILP solve + feedback run) is independent —
// the sweep fans them out across the shared ThreadPool. Runs under the
// benchkit repetition harness; --json emits schema-v2
// BENCH_fig7_feedback.json.
#include "common/thread_pool.h"
#include "cost/correlation_cost_model.h"
#include "bench/bench_util.h"
#include "feedback/ilp_feedback.h"
#include "ilp/problem_builder.h"
#include "solver/solver.h"
#include "mv/candidate_generator.h"
#include "mv/fk_clustering.h"

using namespace coradd;
using namespace coradd::bench;

int main(int argc, char** argv) {
  Harness h("fig7_feedback", argc, argv);
  const double scale = FlagDouble(argc, argv, "scale", 0.02);
  BenchJson& json = h.json();
  json.Config("scale", scale);

  h.Run([&](const RunPass& pass) {
    Fixture f = MakeSsbFixture(scale, 1024);
    // Subworkload: flights 1 and 2 (queries 0..5).
    Workload sub;
    sub.name = "ssb6";
    for (int i = 0; i < 6; ++i) {
      sub.queries.push_back(f.workload.queries[static_cast<size_t>(i)]);
    }

    CorrelationCostModel model(&f.context->registry());
    CandidateGeneratorOptions gopt = BenchCoraddOptions().candidates;
    MvCandidateGenerator generator(f.catalog.get(), &f.context->registry(),
                                   &model, gopt);

    // --- OPT candidate pool: every non-empty query group (2^6 - 1 = 63).
    WallTimer pool_timer;
    std::vector<MvSpec> opt_pool;
    for (int mask = 1; mask < (1 << 6); ++mask) {
      QueryGroup group;
      for (int i = 0; i < 6; ++i) {
        if (mask & (1 << i)) group.push_back(i);
      }
      for (auto& spec : generator.DesignForGroup(sub, group, "lineorder", 4)) {
        opt_pool.push_back(std::move(spec));
      }
    }
    {
      const UniverseStats* stats = f.context->StatsForFact("lineorder");
      for (auto& spec : FkReclusterCandidates(
               *f.catalog->GetFactInfo("lineorder"), *stats, sub)) {
        opt_pool.push_back(std::move(spec));
      }
    }
    h.Sample("opt_pool_seconds", pool_timer.Seconds());
    if (pass.reporting) {
      std::printf("OPT pool from all 63 groupings: %zu candidates\n",
                  opt_pool.size());
    }

    // --- Initial (heuristic) candidate pool, as CORADD enumerates it.
    CandidateSet initial = generator.Generate(sub);

    // --- Sweep: one independent cell per budget, in parallel (the model's
    // memo caches are mutex-guarded; everything else is read-only). Each
    // cell's solves run their waves on the same shared pool, which handles
    // the nesting; results are bit-identical at any thread count.
    const std::vector<uint64_t> budgets =
        BudgetGrid(f.fact_heap_bytes, {0.125, 0.25, 0.5, 1.0, 2.0, 4.0});
    struct Cell {
      double opt = 0.0;
      double ilp = 0.0;
      double fb = 0.0;
    };
    std::vector<Cell> cells(budgets.size());
    const SolverEngine engine;
    WallTimer sweep_timer;
    ThreadPool::Shared().ParallelFor(budgets.size(), [&](size_t i) {
      const uint64_t budget = budgets[i];
      BuiltProblem opt_built = BuildSelectionProblem(
          sub, opt_pool, model, f.context->registry(), budget);
      cells[i].opt = engine.Solve(opt_built.problem).expected_cost;

      BuiltProblem ilp_built = BuildSelectionProblem(
          sub, initial.mvs, model, f.context->registry(), budget);
      cells[i].ilp = engine.Solve(ilp_built.problem).expected_cost;

      FeedbackOptions fopt;
      fopt.max_iterations = 2;
      const FeedbackOutcome fb = RunIlpFeedback(
          sub, generator, model, f.context->registry(),
          BuildSelectionProblem(sub, initial.mvs, model,
                                f.context->registry(), budget),
          budget, fopt);
      cells[i].fb = fb.result.expected_cost;
    });
    h.Sample("sweep_seconds", sweep_timer.Seconds());

    if (!pass.reporting) return;
    PrintHeader("Figure 7: total runtime relative to OPT",
                {"budget", "OPT[s]", "ILP/OPT", "ILP+FB/OPT"});
    for (size_t i = 0; i < budgets.size(); ++i) {
      const Cell& c = cells[i];
      PrintRow({HumanBytes(budgets[i]), StrFormat("%.3f", c.opt),
                StrFormat("%.3f", c.ilp / std::max(1e-12, c.opt)),
                StrFormat("%.3f", c.fb / std::max(1e-12, c.opt))});
      json.Row({{"budget_bytes",
                 BenchJson::Num(static_cast<double>(budgets[i]))},
                {"opt_seconds", BenchJson::Num(c.opt)},
                {"ilp_seconds", BenchJson::Num(c.ilp)},
                {"feedback_seconds", BenchJson::Num(c.fb)}});
    }
    std::printf(
        "\nPaper shape check: ILP within ~1.0-1.4x of OPT; feedback closes\n"
        "most of the gap (reaching OPT at many budgets).\n");
  });
  return h.Finish();
}
