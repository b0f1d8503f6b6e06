// Ablation for §4.2's claim that concatenation-only index merging (as in
// [6]) produces designs "up to 90% slower" than order-preserving
// interleaved merging: design shared MVs for two-flight query groups both
// ways and compare expected group runtimes under the correlation-aware
// model. Runs under the benchkit repetition harness; --json emits schema-v2
// BENCH_ablation_merging.json including the candgen segment (trials priced
// vs pruned by the interleaving bound).
#include "cost/correlation_cost_model.h"
#include "bench/bench_util.h"
#include "mv/index_merging.h"

using namespace coradd;
using namespace coradd::bench;

int main(int argc, char** argv) {
  Harness h("ablation_merging", argc, argv);
  const double scale = FlagDouble(argc, argv, "scale", 0.02);
  BenchJson& json = h.json();
  json.Config("scale", scale);

  h.Run([&](const RunPass& pass) {
    Fixture f = MakeSsbFixture(scale, 1024);
    CorrelationCostModel model(&f.context->registry());

    IndexMergingOptions interleave_options;
    ClusteredIndexDesigner interleaved(&f.context->registry(), &model,
                                       interleave_options);
    IndexMergingOptions concat_options;
    concat_options.concatenation_only = true;
    ClusteredIndexDesigner concat(&f.context->registry(), &model,
                                  concat_options);

    const std::vector<std::pair<std::string, QueryGroup>> groups = {
        {"Q1.1+Q2.1", {0, 3}},        {"Q1.2+Q3.3", {1, 8}},
        {"Q2.2+Q4.1", {4, 10}},       {"Q1.1+Q1.2+Q1.3", {0, 1, 2}},
        {"Q3.1+Q3.2+Q3.3", {6, 7, 8}}, {"Q2.1+Q3.4+Q4.3", {3, 9, 12}},
    };

    auto group_cost = [&](const std::vector<MvSpec>& specs,
                          const QueryGroup& group) {
      double best = kInfeasibleCost;
      for (const auto& spec : specs) {
        double total = 0.0;
        for (int qi : group) {
          total +=
              model.Seconds(f.workload.queries[static_cast<size_t>(qi)], spec);
        }
        best = std::min(best, total);
      }
      return best;
    };

    if (pass.reporting) {
      PrintHeader("Ablation: interleaved vs concatenation-only merging (§4.2)",
                  {"group", "interleave[s]", "concat[s]", "slowdown"});
    }
    WallTimer design_timer;
    for (const auto& [name, group] : groups) {
      const double inter = group_cost(
          interleaved.DesignGroup(f.workload, group, "lineorder", 4), group);
      const double cat = group_cost(
          concat.DesignGroup(f.workload, group, "lineorder", 4), group);
      if (!pass.reporting) continue;
      PrintRow({name, StrFormat("%.4f", inter), StrFormat("%.4f", cat),
                StrFormat("%+.0f%%",
                          (cat / std::max(1e-12, inter) - 1.0) * 100)});
      json.Row({{"group", BenchJson::Quote(name)},
                {"interleave_seconds", BenchJson::Num(inter)},
                {"concat_seconds", BenchJson::Num(cat)}});
    }
    h.Sample("design_seconds", design_timer.Seconds());
    if (!pass.reporting) return;
    std::printf(
        "\nPaper shape check: concatenation-only merging is never better and\n"
        "can be dramatically slower (paper observed up to 90%% slower).\n");

    CandGenStats candgen;
    candgen.trials_priced =
        interleaved.trials_priced() + concat.trials_priced();
    candgen.trials_pruned =
        interleaved.trials_pruned() + concat.trials_pruned();
    candgen.groups_designed = 2 * groups.size();
    ReportCandgen(&json, candgen);
  });
  return h.Finish();
}
