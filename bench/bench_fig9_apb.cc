// Reproduces Figure 9: APB-1 comparison across space budgets —
// CORADD's executed runtime, CORADD's own model estimate (CORADD-Model),
// the commercial-proxy design's executed runtime (Commercial), and the
// oblivious model's estimate of its own design (Commercial Cost Model).
// Paper shape: CORADD 1.5-3x faster at tight budgets, 5-6x at large ones;
// CORADD-Model tracks reality; the commercial model underestimates badly.
//
// CORADD designs through the warm-started DesignMany chain (shared
// candidate pool and prices), the commercial proxy designs its grid in one
// DesignMany call, then every (designer, budget) cell is executed in one
// parallel RunMany sweep — all under the benchkit repetition harness.
// --json emits schema-v2 BENCH_fig9_apb.json.
#include "bench/bench_util.h"

using namespace coradd;
using namespace coradd::bench;

int main(int argc, char** argv) {
  Harness h("fig9_apb", argc, argv);
  const double scale = FlagDouble(argc, argv, "scale", 0.004);
  BenchJson& json = h.json();
  json.Config("scale", scale);

  h.Run([&](const RunPass& pass) {
    WallTimer timer;
    Fixture f = MakeApbFixture(scale, 1024);
    if (pass.reporting) {
      std::printf("APB-1-like: %zu actuals + %zu budget rows, 31 queries\n",
                  f.catalog->GetTable("actuals")->NumRows(),
                  f.catalog->GetTable("budget")->NumRows());
    }

    CoraddDesigner coradd(f.context.get(), BenchCoraddOptions());
    CommercialDesigner commercial(f.context.get());
    DesignEvaluator evaluator(f.context.get(), /*max_resident=*/48);

    const std::vector<uint64_t> budgets =
        BudgetGrid(f.fact_heap_bytes, {0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0});
    std::vector<DatabaseDesign> coradd_designs =
        coradd.DesignMany(f.workload, budgets);
    std::vector<DatabaseDesign> commercial_designs =
        commercial.DesignMany(f.workload, budgets);

    SweepRunner sweep(&evaluator, &f.workload);
    for (size_t b = 0; b < budgets.size(); ++b) {
      sweep.Add("coradd", budgets[b], std::move(coradd_designs[b]),
                &coradd.model());
      sweep.Add("commercial", budgets[b], std::move(commercial_designs[b]),
                &commercial.model());
    }
    const double design_done = timer.Seconds();
    const std::vector<WorkloadRunResult> runs = sweep.RunAll();
    const double eval_seconds = timer.Seconds() - design_done;
    h.Sample("design_seconds", design_done);
    h.Sample("eval_seconds", eval_seconds);

    if (!pass.reporting) return;
    PrintHeader("Figure 9: comparison on APB-1 (total runtime of 31 queries)",
                {"budget", "CORADD[s]", "CORADD-Mod", "Commercial",
                 "Comm-Model", "speedup"});
    for (size_t i = 0; i + 1 < runs.size(); i += 2) {
      const WorkloadRunResult& rc = runs[i];      // coradd
      const WorkloadRunResult& rm = runs[i + 1];  // commercial
      PrintRow({HumanBytes(sweep.budget(i)),
                StrFormat("%.3f", rc.total_seconds),
                StrFormat("%.3f", rc.expected_seconds),
                StrFormat("%.3f", rm.total_seconds),
                StrFormat("%.3f", rm.expected_seconds),
                StrFormat("%.2fx", rm.total_seconds /
                                       std::max(1e-12, rc.total_seconds))});
      for (size_t k : {i, i + 1}) {
        json.Row({{"designer", BenchJson::Quote(sweep.label(k))},
                  {"budget_bytes",
                   BenchJson::Num(static_cast<double>(sweep.budget(k)))},
                  {"simulated_seconds", BenchJson::Num(runs[k].total_seconds)},
                  {"expected_seconds",
                   BenchJson::Num(runs[k].expected_seconds)}});
      }
    }
    std::printf(
        "\nPaper shape check: speedup grows with budget (1.5-3x tight,\n"
        "5-6x large); CORADD-Mod ~= CORADD; Comm-Model << Commercial.\n");
    std::printf("wall time: %.1fs (fixture+design %.1fs, evaluation %.1fs)\n",
                timer.Seconds(), design_done, eval_seconds);
    json.Config("eval_seconds", eval_seconds);
    CandGenStats candgen = coradd.candgen_stats();
    candgen.Accumulate(commercial.candgen_stats());
    ReportCandgen(&json, candgen);
  });
  return h.Finish();
}
