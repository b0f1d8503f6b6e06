// Reproduces Figure 11: the augmented 52-query SSB workload — executed
// total runtime of CORADD vs the Naive designer (dedicated MVs +
// re-clusterings only) vs the commercial proxy, across budgets; plus the
// §7.2 designer-runtime breakdown. Paper shape: CORADD 1.5-2x better at
// tight budgets and 4-5x at large ones; Naive beats Commercial but trails
// CORADD because dedicated MVs share nothing.
//
// Every designer designs its grid in one DesignMany call: one shared
// candidate pool and price table per designer. CORADD's solves are
// warm-started budget to budget on the parallel solver engine; the
// baselines select their budgets concurrently on the shared pool. Every
// (designer, budget) cell is then executed in one parallel RunMany sweep.
// The whole pipeline (fixture build included) runs under the benchkit
// repetition harness; --json emits schema-v2 BENCH_fig11_ssb.json with
// wall / design / eval sample arrays.
#include "bench/bench_util.h"

using namespace coradd;
using namespace coradd::bench;

int main(int argc, char** argv) {
  Harness h("fig11_ssb", argc, argv);
  const double scale = FlagDouble(argc, argv, "scale", 0.005);
  // --mine additionally runs dependency discovery on the fixture before
  // designing (off by default: fig11 itself doesn't need it). The traced
  // CI run uses it so one trace file covers every subsystem, discovery
  // included. Deterministic, so it's safe under --trace bit-identity.
  const bool mine = FlagBool(argc, argv, "mine");
  BenchJson& json = h.json();
  json.Config("scale", scale);
  json.Config("mine", mine ? "true" : "false");

  h.Run([&](const RunPass& pass) {
    WallTimer timer;
    Fixture f = MakeSsbFixture(scale, 1024, /*augmented=*/true);
    if (mine) f.context->MineAllDependencies();
    if (pass.reporting) {
      std::printf("Augmented SSB: %zu queries, %zu lineorder rows\n",
                  f.workload.queries.size(),
                  f.catalog->GetTable("lineorder")->NumRows());
    }
    const double fixture_done = timer.Seconds();

    CoraddDesigner coradd(f.context.get(), BenchCoraddOptions());
    NaiveDesigner naive(f.context.get());
    CommercialDesigner commercial(f.context.get());
    DesignEvaluator evaluator(f.context.get(), /*max_resident=*/64);

    const std::vector<uint64_t> budgets =
        BudgetGrid(f.fact_heap_bytes, {0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0});

    // CORADD: warm-started chain across the grid (shared candidates/prices).
    std::vector<CoraddRunInfo> infos;
    std::vector<DatabaseDesign> coradd_designs =
        coradd.DesignMany(f.workload, budgets, &infos);

    std::vector<DatabaseDesign> naive_designs =
        naive.DesignMany(f.workload, budgets);
    std::vector<DatabaseDesign> commercial_designs =
        commercial.DesignMany(f.workload, budgets);

    double coradd_design_time = 0.0;
    for (const auto& d : coradd_designs) coradd_design_time += d.design_seconds;
    SolverStats total_stats;
    for (const auto& info : infos) total_stats.Accumulate(info.solver_stats);

    SweepRunner sweep(&evaluator, &f.workload);
    for (size_t b = 0; b < budgets.size(); ++b) {
      sweep.Add("coradd", budgets[b], std::move(coradd_designs[b]),
                &coradd.model());
      sweep.Add("naive", budgets[b], std::move(naive_designs[b]),
                &naive.model());
      sweep.Add("commercial", budgets[b], std::move(commercial_designs[b]),
                &commercial.model());
    }
    const double design_done = timer.Seconds();
    const std::vector<WorkloadRunResult> runs = sweep.RunAll();
    const double eval_seconds = timer.Seconds() - design_done;
    h.Sample("design_seconds", design_done - fixture_done);
    h.Sample("eval_seconds", eval_seconds);

    if (!pass.reporting) return;
    PrintHeader("Figure 11: comparison on augmented SSB (52 queries)",
                {"budget", "CORADD[s]", "Naive[s]", "Commercial",
                 "comm/coradd"});
    for (size_t i = 0; i + 2 < runs.size(); i += 3) {
      const double tc = runs[i].total_seconds;
      const double tn = runs[i + 1].total_seconds;
      const double tm = runs[i + 2].total_seconds;
      PrintRow({HumanBytes(sweep.budget(i)), StrFormat("%.3f", tc),
                StrFormat("%.3f", tn), StrFormat("%.3f", tm),
                StrFormat("%.2fx", tm / std::max(1e-12, tc))});
      for (size_t k : {i, i + 1, i + 2}) {
        json.Row({{"designer", BenchJson::Quote(sweep.label(k))},
                  {"budget_bytes",
                   BenchJson::Num(static_cast<double>(sweep.budget(k)))},
                  {"simulated_seconds",
                   BenchJson::Num(runs[k].total_seconds)},
                  {"design_seconds",
                   BenchJson::Num(sweep.design(k).design_seconds)}});
      }
    }

    PrintHeader("CORADD designer profile per budget",
                {"budget", "design[s]", "solve[s]", "nodes", "warm",
                 "optimal"});
    for (size_t b = 0; b < budgets.size(); ++b) {
      const SolverStats& st = infos[b].solver_stats;
      PrintRow({HumanBytes(budgets[b]),
                StrFormat("%.2f", sweep.design(3 * b).design_seconds),
                StrFormat("%.2f", infos[b].solve_seconds),
                std::to_string(st.nodes_expanded),
                StrFormat("%llu/%llu",
                          static_cast<unsigned long long>(st.warm_wins),
                          static_cast<unsigned long long>(st.warm_solves)),
                st.proved_optimal ? "yes" : "no"});
    }

    const CoraddRunInfo& info = infos.back();
    std::printf("\nDesigner runtime breakdown (last budget; cf. §7.2's "
                "22min stats / 1h candgen / 6h feedback at paper scale):\n");
    std::printf("  candidates enumerated : %zu (+%zu via feedback, %d iters)\n",
                info.candidates_enumerated, info.feedback_candidates_added,
                info.feedback_iterations);
    std::printf("  after domination      : %zu\n",
                info.candidates_after_domination);
    std::printf("  candgen time          : %s (shared across the grid)\n",
                HumanSeconds(info.candgen_seconds).c_str());
    std::printf("  pricing+domination    : %s (shared across the grid)\n",
                HumanSeconds(info.pricing_seconds).c_str());
    std::printf("  solve+feedback time   : %s (last budget)\n",
                HumanSeconds(info.solve_seconds).c_str());
    std::printf("  total CORADD design time across budgets: %s\n",
                HumanSeconds(coradd_design_time).c_str());
    std::printf("  solver: %s\n", total_stats.ToString().c_str());
    std::printf(
        "\nPaper shape check: CORADD fastest at every budget; Naive between\n"
        "CORADD and Commercial, converging slowly as dedicated MVs fit.\n");
    std::printf(
        "wall time: %.1fs (fixture %.1fs, design %.1fs, evaluation %.1fs)\n",
        timer.Seconds(), fixture_done, design_done - fixture_done,
        eval_seconds);
    json.Config("eval_seconds", eval_seconds);
    json.Config("design_seconds", design_done - fixture_done);
    json.Config("solver_nodes",
                static_cast<double>(total_stats.nodes_expanded));
    json.Config("solver_warm_solves",
                static_cast<double>(total_stats.warm_solves));
    CandGenStats candgen = coradd.candgen_stats();
    candgen.Accumulate(naive.candgen_stats());
    candgen.Accumulate(commercial.candgen_stats());
    ReportCandgen(&json, candgen);
  });
  return h.Finish();
}
