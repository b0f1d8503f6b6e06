// The design half of a bench_coradd run: CORADD designs the workload over
// the budget grid, and the designs are checked and priced on the storage
// simulator.
#pragma once

#include <memory>
#include <vector>

#include "core/context.h"
#include "core/design.h"
#include "report.h"
#include "trace.h"

namespace coradd::bench_coradd {

/// The designs of one pass over the budget grid, and the context (data
/// statistics and mined dependencies) they were made with.
struct DesignRun {
  std::unique_ptr<DesignContext> context;
  std::vector<uint64_t> budgets;
  std::vector<DatabaseDesign> designs;  ///< One per budget.
};

/// Designs the workload twice, each time from a fresh DesignContext
/// (mining first when `mine`) with CoraddDesigner::DesignMany, and checks
/// that both passes chose the same designs. Returns the second pass.
DesignRun DesignTwice(const Catalog* catalog, const Workload& workload,
                      bool mine, Report* report);

/// Designs once with DesignMany untraced, timed as design.wall_s, then once
/// more stage by stage through the public calls DesignMany is made of, with
/// one span per call on `trace`. Checks that both give the same designs,
/// and reports the per-layer design metrics. Returns the staged pass.
DesignRun TraceDesign(const Catalog* catalog, const Workload& workload,
                      bool mine, SpanRecorder* trace, Report* report);

/// Checks every design (budget held, every query routed, the same answers
/// on every design) and reports design_sim_s: the frequency-weighted
/// simulated workload seconds of the designs, summed over the grid.
void EvaluateDesigns(const DesignRun& run, const Workload& workload,
                     Report* report);

}  // namespace coradd::bench_coradd
