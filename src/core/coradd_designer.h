// The CORADD designer (Fig 1): correlation statistics -> MV candidate
// generation (query grouping + clustered-index merging + FK clustering) ->
// ILP selection with dominated-candidate pruning -> ILP feedback ->
// CM design on the chosen objects.
//
// DesignMany() designs a whole budget grid in one call: candidates are
// generated, priced, and domination-pruned once, and the budgets form a
// warm-started sequential chain in which every point warm-starts its solves
// from the previous point's solution. Design(w, b) is DesignMany(w, {b}):
// a one-budget chain has nothing to warm-start from. Both are const and
// thread-safe: the cost model's memo caches are internally synchronized and
// everything else is read-only.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "cm/cm_designer.h"
#include "core/context.h"
#include "core/design.h"
#include "cost/correlation_cost_model.h"
#include "feedback/ilp_feedback.h"
#include "ilp/domination.h"
#include "mv/candidate_generator.h"
#include "solver/warm_start.h"

namespace coradd {

/// End-to-end CORADD options.
struct CoraddOptions {
  CandidateGeneratorOptions candidates;
  FeedbackOptions feedback;
  SolverOptions solver;
  CmDesignerOptions cm;
  CorrelationCostModelOptions cost_model;
  bool use_feedback = true;
  bool prune_dominated = true;
};

/// Designer statistics for the §7.2-style runtime breakdown.
struct CoraddRunInfo {
  size_t candidates_enumerated = 0;
  size_t candidates_after_domination = 0;
  size_t feedback_candidates_added = 0;
  int feedback_iterations = 0;
  double candgen_seconds = 0.0;  ///< §4 enumeration (grouping, merging)
  double pricing_seconds = 0.0;  ///< cost-table build + domination pruning
  double solve_seconds = 0.0;
  SolverStats solver_stats;  ///< Accumulated over every solve of the call.
};

/// The CORADD automatic database designer.
class CoraddDesigner {
 public:
  CoraddDesigner(const DesignContext* context, CoraddOptions options = {});

  /// Produces the design for `workload` within `budget_bytes`. Thread-safe;
  /// concurrent calls share only the memoized cost model.
  DatabaseDesign Design(const Workload& workload, uint64_t budget_bytes) const;

  /// Warm-started sweep over a budget grid (ascending or any order):
  /// candidate generation, pricing, and domination pruning are shared
  /// across all points, and each point's solves are warm-started from the
  /// previous point. Produces the same designs as per-budget Design()
  /// calls whenever the solves prove optimality. `infos`, if non-null, is
  /// filled with one entry per budget.
  std::vector<DatabaseDesign> DesignMany(
      const Workload& workload, const std::vector<uint64_t>& budgets,
      std::vector<CoraddRunInfo>* infos = nullptr) const;

  /// Run statistics of the most recently designed budget (under concurrent
  /// designing: whichever budget finished last). Returns a copy
  /// taken under the same lock the writers hold, so it is safe to call
  /// while other threads design.
  CoraddRunInfo last_run() const {
    std::lock_guard<std::mutex> lock(last_run_mu_);
    return last_run_;
  }
  const CorrelationCostModel& model() const { return *model_; }

  /// Generation-work counters of this designer's generator (trials priced
  /// and pruned across initial generation and feedback re-entries).
  CandGenStats candgen_stats() const { return generator_->stats(); }

 private:
  /// §4 + §5.3: generate, price, and (optionally) domination-prune.
  BuiltProblem BuildPrunedProblem(const Workload& workload,
                                  uint64_t budget_bytes,
                                  CoraddRunInfo* info) const;

  /// §5 + §6 + A-1: solve (with feedback) warm-started from `warm`,
  /// record the solution into it, design CMs, package.
  DatabaseDesign SolveAndPackage(const Workload& workload,
                                 BuiltProblem built, uint64_t budget_bytes,
                                 CoraddRunInfo* info, WarmStartSession* warm,
                                 GroupDesignMemo* memo) const;

  const DesignContext* context_;
  CoraddOptions options_;
  std::unique_ptr<CorrelationCostModel> model_;
  std::unique_ptr<MvCandidateGenerator> generator_;
  std::unique_ptr<CmDesigner> cm_designer_;
  mutable std::mutex last_run_mu_;
  mutable CoraddRunInfo last_run_;
};

}  // namespace coradd
