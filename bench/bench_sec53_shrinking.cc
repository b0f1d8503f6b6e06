// Reproduces the Section 5.3 measurements: candidate counts before/after
// dominated-candidate pruning, the resulting paper-ILP size (variables /
// constraints), solve time, and the Table 4 domination example. Runs under
// the benchkit repetition harness; --json emits schema-v2
// BENCH_sec53_shrinking.json.
#include <chrono>

#include "cost/correlation_cost_model.h"
#include "bench/bench_util.h"
#include "ilp/domination.h"
#include "ilp/ilp_problem.h"
#include "ilp/problem_builder.h"
#include "mv/candidate_generator.h"
#include "solver/solver.h"

using namespace coradd;
using namespace coradd::bench;

int main(int argc, char** argv) {
  Harness h("sec53_shrinking", argc, argv);
  const double scale = FlagDouble(argc, argv, "scale", 0.02);
  BenchJson& json = h.json();
  json.Config("scale", scale);

  h.Run([&](const RunPass& pass) {
    Fixture f = MakeSsbFixture(scale, 1024);
    CorrelationCostModel model(&f.context->registry());
    MvCandidateGenerator generator(f.catalog.get(), &f.context->registry(),
                                   &model, BenchCoraddOptions().candidates);
    CandidateSet candidates = generator.Generate(f.workload);

    const uint64_t budget = f.fact_heap_bytes * 2;
    BuiltProblem built = BuildSelectionProblem(
        f.workload, candidates.mvs, model, f.context->registry(), budget);

    const auto t0 = std::chrono::steady_clock::now();
    const auto mask = DominatedMask(built.problem);
    const SelectionProblem pruned = CompactProblem(built.problem, mask);
    const double prune_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    size_t dominated = 0;
    for (bool b : mask) dominated += b ? 1 : 0;

    const PaperIlpFormulation form = BuildPaperIlp(pruned);

    const auto t1 = std::chrono::steady_clock::now();
    const SelectionResult r = SolverEngine().Solve(pruned);
    const double solve_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
            .count();

    h.Sample("domination_seconds", prune_secs);
    h.Sample("solve_seconds", solve_secs);

    if (!pass.reporting) return;
    std::printf("Section 5.3 reproduction (SSB 13 queries, scale %.3f)\n",
                scale);
    std::printf("  enumerated candidates : %zu\n", candidates.mvs.size());
    std::printf("  dominated (removed)   : %zu\n", dominated);
    std::printf("  surviving candidates  : %zu   (paper: 1600 -> 160)\n",
                pruned.NumCandidates());
    std::printf("  domination time       : %s\n",
                HumanSeconds(prune_secs).c_str());
    std::printf("  ILP variables         : %d  (y=%d, x=%d; paper: 2,080)\n",
                form.NumVariables(), form.num_y, form.num_x);
    std::printf("  ILP constraints       : %d  (paper: 2,240)\n",
                form.num_constraints);
    std::printf("  exact solve time      : %s  (paper: <1s)  optimal=%s\n",
                HumanSeconds(solve_secs).c_str(),
                r.proved_optimal ? "yes" : "no");
    json.Row({{"enumerated",
               BenchJson::Num(static_cast<double>(candidates.mvs.size()))},
              {"dominated", BenchJson::Num(static_cast<double>(dominated))},
              {"surviving",
               BenchJson::Num(static_cast<double>(pruned.NumCandidates()))},
              {"ilp_variables",
               BenchJson::Num(static_cast<double>(form.NumVariables()))},
              {"ilp_constraints",
               BenchJson::Num(static_cast<double>(form.num_constraints))},
              {"proved_optimal", r.proved_optimal ? std::string("true")
                                                  : std::string("false")}});

    // --- Table 4 example.
    PrintHeader("Table 4: MV1 dominates MV2 but not MV3",
                {"", "MV1", "MV2", "MV3"});
    PrintRow({"Q1", "1 sec", "5 sec", "5 sec"});
    PrintRow({"Q2", "N/A", "N/A", "5 sec"});
    PrintRow({"Q3", "1 sec", "2 sec", "5 sec"});
    PrintRow({"Size", "1 GB", "2 GB", "3 GB"});
    SelectionProblem table4;
    table4.sizes = {1ull << 30, 2ull << 30, 3ull << 30};
    table4.costs = {{1, 5, 5},
                    {kInfeasibleCost, kInfeasibleCost, 5},
                    {1, 2, 5}};
    table4.budget_bytes = 10ull << 30;
    const auto t4 = DominatedMask(table4);
    std::printf("dominated: MV1=%s MV2=%s MV3=%s  (paper: only MV2)\n",
                t4[0] ? "yes" : "no", t4[1] ? "yes" : "no",
                t4[2] ? "yes" : "no");
  });
  return h.Finish();
}
