// Ablation for §4.1.3's target-attribute weight alpha: sweep single alpha
// values and compare the resulting design quality against the paper's
// union-over-alphas approach, at a tight and a loose budget. Lower alpha
// favors merging queries aggressively (good when space is plentiful);
// higher alpha penalizes non-overlapping targets (good when space is
// tight); the union dominates both. Runs under the benchkit repetition
// harness; --json emits schema-v2 BENCH_ablation_alpha.json.
#include "cost/correlation_cost_model.h"
#include "bench/bench_util.h"
#include "ilp/problem_builder.h"
#include "mv/candidate_generator.h"
#include "solver/solver.h"

using namespace coradd;
using namespace coradd::bench;

int main(int argc, char** argv) {
  Harness h("ablation_alpha", argc, argv);
  const double scale = FlagDouble(argc, argv, "scale", 0.02);
  BenchJson& json = h.json();
  json.Config("scale", scale);

  h.Run([&](const RunPass& pass) {
    Fixture f = MakeSsbFixture(scale, 1024);
    CorrelationCostModel model(&f.context->registry());

    const uint64_t tight = f.fact_heap_bytes / 4;
    const uint64_t loose = f.fact_heap_bytes * 4;

    auto solve = [&](const std::vector<double>& alphas, uint64_t budget) {
      CandidateGeneratorOptions gopt;
      gopt.grouping.alphas = alphas;
      gopt.grouping.restarts = 1;
      MvCandidateGenerator generator(f.catalog.get(), &f.context->registry(),
                                     &model, gopt);
      CandidateSet set = generator.Generate(f.workload);
      BuiltProblem built = BuildSelectionProblem(
          f.workload, std::move(set.mvs), model, f.context->registry(),
          budget);
      return std::make_pair(
          SolverEngine().Solve(built.problem).expected_cost,
          built.specs.size());
    };

    if (pass.reporting) {
      PrintHeader("Ablation: target-attribute weight alpha (§4.1.3)",
                  {"alphas", "#cands", "tight[s]", "loose[s]"});
    }
    const std::vector<std::pair<std::string, std::vector<double>>> settings = {
        {"0.0", {0.0}},
        {"0.1", {0.1}},
        {"0.25", {0.25}},
        {"0.5", {0.5}},
        {"union(all)", {0.0, 0.1, 0.25, 0.5}},
    };
    for (const auto& [name, alphas] : settings) {
      const auto [cost_tight, n1] = solve(alphas, tight);
      const auto [cost_loose, n2] = solve(alphas, loose);
      if (!pass.reporting) continue;
      PrintRow({name, std::to_string(n1), StrFormat("%.3f", cost_tight),
                StrFormat("%.3f", cost_loose)});
      json.Row({{"alphas", BenchJson::Quote(name)},
                {"candidates", BenchJson::Num(static_cast<double>(n1))},
                {"tight_seconds", BenchJson::Num(cost_tight)},
                {"loose_seconds", BenchJson::Num(cost_loose)}});
    }
    if (pass.reporting) {
      std::printf(
          "\nExpected shape: no single alpha wins both budgets; the union "
          "is\nat least as good everywhere (the paper's reason to sweep "
          "alpha).\n");
    }
  });
  return h.Finish();
}
