// Budget sweep: the workflow a database administrator would actually run —
// sweep the space budget, compare the three designers (CORADD, Naive,
// commercial-style), and read off the knee of the cost/space curve. This is
// the Figure 9/11 methodology as a user-facing tool.
//
//   $ ./examples/budget_sweep
//   $ ./examples/budget_sweep --trace=sweep_trace.json   # Perfetto file
#include <cstdio>
#include <vector>

#include "common/string_util.h"
#include "core/baseline_designers.h"
#include "core/coradd_designer.h"
#include "core/evaluator.h"
#include "obs/trace.h"
#include "ssb/ssb.h"

using namespace coradd;

int main(int argc, char** argv) {
  const obs::TraceSession trace = obs::TraceSession::FromArgs(argc, argv);
  ssb::SsbOptions data_options;
  data_options.scale_factor = 0.01;
  auto catalog = ssb::MakeCatalog(data_options);
  Workload workload = ssb::MakeWorkload();
  StatsOptions sopt;
  sopt.disk.page_size_bytes = 1024;
  sopt.disk.seek_seconds = 0.0055 / 8.0;
  DesignContext context(catalog.get(), workload, sopt);

  CoraddOptions copt;
  copt.candidates.grouping.restarts = 1;
  copt.feedback.max_iterations = 1;
  CoraddDesigner coradd(&context, copt);
  NaiveDesigner naive(&context);
  CommercialDesigner commercial(&context);
  DesignEvaluator evaluator(&context, /*max_resident=*/48);

  // Each designer designs the whole grid in one call, then the grid is
  // evaluated in one RunMany so objects that recur across budgets and
  // designers are built once.
  std::vector<uint64_t> budgets;
  for (double mb : {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    budgets.push_back(static_cast<uint64_t>(mb * (1 << 20)));
  }
  const std::vector<DatabaseDesign> coradd_designs =
      coradd.DesignMany(workload, budgets);
  const std::vector<DatabaseDesign> naive_designs =
      naive.DesignMany(workload, budgets);
  const std::vector<DatabaseDesign> commercial_designs =
      commercial.DesignMany(workload, budgets);
  std::vector<EvalJob> jobs;
  for (size_t b = 0; b < budgets.size(); ++b) {
    jobs.push_back(EvalJob{&coradd_designs[b], &workload, &coradd.model()});
    jobs.push_back(EvalJob{&naive_designs[b], &workload, &naive.model()});
    jobs.push_back(
        EvalJob{&commercial_designs[b], &workload, &commercial.model()});
  }
  const std::vector<WorkloadRunResult> runs = evaluator.RunMany(jobs);

  std::printf("%12s %12s %12s %12s %10s\n", "budget", "CORADD", "Naive",
              "Commercial", "objects");
  for (size_t b = 0; b < budgets.size(); ++b) {
    std::printf("%12s %12s %12s %12s %10zu\n", HumanBytes(budgets[b]).c_str(),
                HumanSeconds(runs[3 * b].total_seconds).c_str(),
                HumanSeconds(runs[3 * b + 1].total_seconds).c_str(),
                HumanSeconds(runs[3 * b + 2].total_seconds).c_str(),
                coradd_designs[b].objects.size());
  }
  std::printf("\nReading the curve: the budget where CORADD's runtime "
              "flattens is the\npoint past which extra space buys little — "
              "the paper's Figures 9/11 knee.\n");
  return 0;
}
