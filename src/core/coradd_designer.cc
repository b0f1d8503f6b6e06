#include "core/coradd_designer.h"

#include <chrono>

#include "common/string_util.h"

namespace coradd {

namespace {
double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

std::string DatabaseDesign::ToString() const {
  return StrFormat("%s{objects=%zu, %s of %s, expected=%.2fs}",
                   designer.c_str(), objects.size(),
                   HumanBytes(object_bytes).c_str(),
                   HumanBytes(budget_bytes).c_str(), expected_seconds);
}

CoraddDesigner::CoraddDesigner(const DesignContext* context,
                               CoraddOptions options)
    : context_(context), options_(options) {
  CORADD_CHECK(context != nullptr);
  model_ = std::make_unique<CorrelationCostModel>(&context_->registry(),
                                                  options_.cost_model);
  generator_ = std::make_unique<MvCandidateGenerator>(
      &context_->catalog(), &context_->registry(), model_.get(),
      options_.candidates);
  cm_designer_ = std::make_unique<CmDesigner>(&context_->registry(),
                                              model_.get(), options_.cm);
}

BuiltProblem CoraddDesigner::BuildPrunedProblem(const Workload& workload,
                                                uint64_t budget_bytes,
                                                CoraddRunInfo* info) const {
  // --- §4: candidate generation.
  const double t0 = Now();
  CandidateSet candidates = generator_->Generate(workload);
  info->candidates_enumerated = candidates.mvs.size();
  info->candgen_seconds += Now() - t0;

  // --- §5: build + prune.
  const double t1 = Now();
  BuiltProblem built =
      BuildSelectionProblem(workload, std::move(candidates.mvs), *model_,
                            context_->registry(), budget_bytes);
  if (options_.prune_dominated) PruneDominated(&built);
  info->candidates_after_domination = built.specs.size();
  info->pricing_seconds += Now() - t1;
  return built;
}

DatabaseDesign CoraddDesigner::SolveAndPackage(const Workload& workload,
                                               BuiltProblem built,
                                               uint64_t budget_bytes,
                                               CoraddRunInfo* info,
                                               WarmStartSession* warm,
                                               GroupDesignMemo* memo) const {
  const double t_solve = Now();
  const std::vector<int> warm_chosen = warm->WarmChosen(built);

  SelectionResult result;
  BuiltProblem final_problem;
  if (options_.use_feedback) {
    // --- §6: ILP feedback.
    FeedbackOutcome fb = RunIlpFeedback(
        workload, *generator_, *model_, context_->registry(),
        std::move(built), budget_bytes, options_.feedback, options_.solver,
        warm_chosen.empty() ? nullptr : &warm_chosen, memo);
    result = std::move(fb.result);
    final_problem = std::move(fb.problem);
    info->feedback_candidates_added = fb.candidates_added;
    info->feedback_iterations = fb.iterations;
    info->solver_stats.Accumulate(fb.solver_stats);
  } else {
    const SolverEngine engine(options_.solver);
    result = engine.Solve(built.problem, &info->solver_stats,
                          warm_chosen.empty() ? nullptr : &warm_chosen);
    final_problem = std::move(built);
  }
  warm->Record(final_problem, result);
  info->solve_seconds += Now() - t_solve;

  // --- A-1: CMs on the chosen objects.
  DatabaseDesign design;
  design.designer = "CORADD";
  design.budget_bytes = budget_bytes;
  design.expected_seconds = result.expected_cost;
  design.object_bytes = result.used_bytes;
  std::vector<int> object_index(final_problem.specs.size(), -1);
  for (int m : result.chosen) {
    const MvSpec& spec = final_problem.specs[static_cast<size_t>(m)];
    // Queries routed to this object.
    std::vector<const Query*> served;
    for (size_t q = 0; q < result.best_for_query.size(); ++q) {
      if (result.best_for_query[q] == m) {
        served.push_back(&workload.queries[q]);
      }
    }
    DesignedObject obj;
    obj.spec = spec;
    obj.cms = cm_designer_->Design(spec, served);
    object_index[static_cast<size_t>(m)] =
        static_cast<int>(design.objects.size());
    design.objects.push_back(std::move(obj));
  }
  design.object_for_query.resize(workload.queries.size(), -1);
  for (size_t q = 0; q < result.best_for_query.size(); ++q) {
    const int m = result.best_for_query[q];
    if (m >= 0) {
      design.object_for_query[q] = object_index[static_cast<size_t>(m)];
    }
  }
  return design;
}

DatabaseDesign CoraddDesigner::Design(const Workload& workload,
                                      uint64_t budget_bytes) const {
  return DesignMany(workload, {budget_bytes}).front();
}

std::vector<DatabaseDesign> CoraddDesigner::DesignMany(
    const Workload& workload, const std::vector<uint64_t>& budgets,
    std::vector<CoraddRunInfo>* infos) const {
  std::vector<DatabaseDesign> out;
  if (infos != nullptr) infos->clear();
  if (budgets.empty()) return out;

  // Candidates, prices, and the domination mask do not depend on the
  // budget, so the whole grid shares one pruned problem.
  CoraddRunInfo base_info;
  const double t_shared = Now();
  const BuiltProblem base =
      BuildPrunedProblem(workload, budgets.front(), &base_info);
  const double shared_seconds = Now() - t_shared;

  WarmStartSession warm;
  GroupDesignMemo memo;  // group designs recur budget to budget
  for (uint64_t budget : budgets) {
    CoraddRunInfo run = base_info;  // carries the shared candgen/pricing time
    const double t_budget = Now();
    BuiltProblem per_budget = base;  // feedback grows a private copy
    per_budget.problem.budget_bytes = budget;
    DatabaseDesign design = SolveAndPackage(workload, std::move(per_budget),
                                            budget, &run, &warm, &memo);
    // Attribute the shared candgen/pricing evenly across the grid.
    design.design_seconds = (Now() - t_budget) +
                            shared_seconds / static_cast<double>(budgets.size());
    out.push_back(std::move(design));
    if (infos != nullptr) infos->push_back(run);
    {
      std::lock_guard<std::mutex> lock(last_run_mu_);
      last_run_ = std::move(run);
    }
  }
  return out;
}

}  // namespace coradd
