#include "core/baseline_designers.h"

#include <algorithm>
#include <chrono>

#include "cm/cm_designer.h"
#include "ilp/domination.h"
#include "ilp/problem_builder.h"
#include "mv/fk_clustering.h"
#include "mv/index_merging.h"
#include "solver/solver.h"

namespace coradd {

namespace {
double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Routing + packaging shared by the baselines.
DatabaseDesign PackageDesign(const char* name, const Workload& workload,
                             const BuiltProblem& built,
                             const SelectionResult& result,
                             uint64_t budget_bytes) {
  DatabaseDesign design;
  design.designer = name;
  design.budget_bytes = budget_bytes;
  design.expected_seconds = result.expected_cost;
  design.object_bytes = result.used_bytes;
  std::vector<int> object_index(built.specs.size(), -1);
  for (int m : result.chosen) {
    DesignedObject obj;
    obj.spec = built.specs[static_cast<size_t>(m)];
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

}  // namespace

NaiveDesigner::NaiveDesigner(const DesignContext* context,
                             CorrelationCostModelOptions model_options)
    : context_(context) {
  CORADD_CHECK(context != nullptr);
  model_ = std::make_unique<CorrelationCostModel>(&context_->registry(),
                                                  model_options);
  IndexMergingOptions merge_options;
  merge_options.t = 1;  // dedicated designs only
  dedicated_ = std::make_unique<ClusteredIndexDesigner>(
      &context_->registry(), model_.get(), merge_options);
}

CandGenStats NaiveDesigner::candgen_stats() const {
  CandGenStats out;
  out.trials_priced = dedicated_->trials_priced();
  out.trials_pruned = dedicated_->trials_pruned();
  out.wall_seconds =
      1e-9 * static_cast<double>(enumerate_ns_.load(std::memory_order_relaxed));
  return out;
}

DatabaseDesign NaiveDesigner::Design(const Workload& workload,
                                     uint64_t budget_bytes) const {
  return DesignMany(workload, {budget_bytes}).front();
}

std::vector<DatabaseDesign> NaiveDesigner::DesignMany(
    const Workload& workload, const std::vector<uint64_t>& budgets) const {
  if (budgets.empty()) return {};
  const double t0 = Now();
  // Fact re-clusterings + one dedicated key per query. Pricing and the
  // enumerated specs do not depend on the budget, so the grid shares them.
  std::vector<MvSpec> candidates;
  for (const auto& fact : workload.FactTables()) {
    const UniverseStats* stats = context_->StatsForFact(fact);
    const FactTableInfo* info = context_->catalog().GetFactInfo(fact);
    CORADD_CHECK(stats != nullptr && info != nullptr);
    for (auto& spec : FkReclusterCandidates(*info, *stats, workload)) {
      candidates.push_back(std::move(spec));
    }
    for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
      if (workload.queries[qi].fact_table != fact) continue;
      for (auto& spec : dedicated_->DesignGroup(
               workload, QueryGroup{static_cast<int>(qi)}, fact)) {
        candidates.push_back(std::move(spec));
      }
    }
  }
  for (MvSpec& spec : candidates) {
    if (!spec.is_fact_recluster) spec.name = "naive_" + spec.name;
  }
  enumerate_ns_.fetch_add(static_cast<uint64_t>((Now() - t0) * 1e9),
                          std::memory_order_relaxed);
  const BuiltProblem built =
      BuildSelectionProblem(workload, std::move(candidates), *model_,
                            context_->registry(), budgets.front());
  const double shared_seconds = Now() - t0;

  const CmDesigner cm_designer(&context_->registry(), model_.get());
  std::vector<DatabaseDesign> out(budgets.size());
  ThreadPool::Shared().ParallelFor(budgets.size(), [&](size_t b) {
    const double t_budget = Now();
    SelectionProblem problem = built.problem;
    problem.budget_bytes = budgets[b];
    // "Picks as many candidates as possible": greedy by benefit density.
    const SelectionResult result = SolveSelectionGreedyDensity(problem);
    DatabaseDesign design =
        PackageDesign("Naive", workload, built, result, budgets[b]);

    // Dedicated MVs answer their query through the clustered index, but
    // fact re-clusterings still need CMs to reach dimension predicates.
    for (size_t o = 0; o < design.objects.size(); ++o) {
      if (!design.objects[o].spec.is_fact_recluster) continue;
      std::vector<const Query*> served;
      for (size_t q = 0; q < design.object_for_query.size(); ++q) {
        if (design.object_for_query[q] == static_cast<int>(o)) {
          served.push_back(&workload.queries[q]);
        }
      }
      design.objects[o].cms =
          cm_designer.Design(design.objects[o].spec, served);
    }
    // The shared enumeration and pricing are charged evenly to the grid.
    design.design_seconds = (Now() - t_budget) +
                            shared_seconds / static_cast<double>(budgets.size());
    out[b] = std::move(design);
  });
  return out;
}

CommercialDesigner::CommercialDesigner(const DesignContext* context,
                                       GreedyMkOptions greedy_options)
    : context_(context), greedy_options_(greedy_options) {
  CORADD_CHECK(context != nullptr);
  model_ = std::make_unique<ObliviousCostModel>(&context_->registry());
  CandidateGeneratorOptions options;
  generator_ = std::make_unique<MvCandidateGenerator>(
      &context_->catalog(), &context_->registry(), model_.get(), options);
}

CandGenStats CommercialDesigner::candgen_stats() const {
  return generator_->stats();
}

DatabaseDesign CommercialDesigner::Design(const Workload& workload,
                                          uint64_t budget_bytes) const {
  return DesignMany(workload, {budget_bytes}).front();
}

std::vector<DatabaseDesign> CommercialDesigner::DesignMany(
    const Workload& workload, const std::vector<uint64_t>& budgets) const {
  if (budgets.empty()) return {};
  const double t0 = Now();
  // Candidates, prices and the domination mask do not depend on the
  // budget, so the grid shares one compacted problem.
  BuiltProblem built =
      BuildSelectionProblem(workload, generator_->Generate(workload).mvs,
                            *model_, context_->registry(), budgets.front());
  {
    const std::vector<bool> dominated = DominatedMask(built.problem);
    std::vector<int> old_index;
    SelectionProblem compact =
        CompactProblem(built.problem, dominated, &old_index);
    std::vector<MvSpec> kept;
    for (int oi : old_index) {
      kept.push_back(std::move(built.specs[static_cast<size_t>(oi)]));
    }
    built.problem = std::move(compact);
    built.specs = std::move(kept);
  }
  const double shared_seconds = Now() - t0;

  std::vector<DatabaseDesign> out(budgets.size());
  ThreadPool::Shared().ParallelFor(budgets.size(), [&](size_t b) {
    const double t_budget = Now();
    const uint64_t budget_bytes = budgets[b];
    SelectionProblem problem = built.problem;
    problem.budget_bytes = budget_bytes;
    const SelectionResult result =
        SolveSelectionGreedyMk(problem, greedy_options_);
    DatabaseDesign design =
        PackageDesign("Commercial", workload, built, result, budget_bytes);

    // Dense B+Tree secondary indexes on predicated stored columns of each
    // object, added while they fit the leftover budget.
    uint64_t used = design.object_bytes;
    for (size_t o = 0; o < design.objects.size(); ++o) {
      DesignedObject& obj = design.objects[o];
      const UniverseStats* stats = context_->StatsForFact(obj.spec.fact_table);
      for (size_t q = 0; q < design.object_for_query.size(); ++q) {
        if (design.object_for_query[q] != static_cast<int>(o)) continue;
        for (const auto& col : workload.queries[q].PredicateColumns()) {
          // Only stored columns can carry a dense index.
          bool stored = std::find(obj.spec.columns.begin(),
                                  obj.spec.columns.end(),
                                  col) != obj.spec.columns.end();
          if (!stored) continue;
          if (!obj.spec.clustered_key.empty() &&
              obj.spec.clustered_key[0] == col) {
            continue;  // leading clustered attribute needs no secondary index
          }
          if (std::find(obj.btree_columns.begin(), obj.btree_columns.end(),
                        col) != obj.btree_columns.end()) {
            continue;
          }
          const int ucol = stats->universe().ColumnIndex(col);
          const uint32_t key_bytes =
              stats->universe().Column(static_cast<size_t>(ucol)).byte_size;
          const BTreeShape shape =
              ComputeBTreeShape(stats->num_rows(), key_bytes + 8, key_bytes,
                                stats->options().disk.page_size_bytes);
          const uint64_t bytes =
              shape.TotalPages() * stats->options().disk.page_size_bytes;
          if (used + bytes > budget_bytes) continue;
          used += bytes;
          obj.btree_columns.push_back(col);
        }
      }
    }
    design.object_bytes = used;
    design.design_seconds = (Now() - t_budget) +
                            shared_seconds / static_cast<double>(budgets.size());
    out[b] = std::move(design);
  });
  return out;
}

}  // namespace coradd
