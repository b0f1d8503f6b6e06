// Baseline designers the paper compares against.
//
// NaiveDesigner (§7.2, Experiment 2): correlation-aware cost model but no
// query grouping or index merging — only fact re-clusterings and dedicated
// per-query MVs, packed by the solver's density greedy ("picks as many
// candidates as possible").
//
// CommercialDesigner: proxy for the commercial product — the same
// state-of-the-art machinery ([1,5]: MV candidates per query group, dense
// B+Tree secondary indexes, Greedy(m,k) selection) driven by the
// correlation-OBLIVIOUS cost model of Fig 10. See "Substitutions" in
// docs/ARCHITECTURE.md for the rationale.
#pragma once

#include <memory>

#include "core/context.h"
#include "core/design.h"
#include "cost/oblivious_cost_model.h"
#include "ilp/greedy_mk.h"
#include "mv/candidate_generator.h"

namespace coradd {

/// §7.2's Naive baseline. Design() is const and thread-safe (the memoized
/// cost model is internally synchronized), so bench sweeps can design every
/// budget cell concurrently. Candidate enumeration (fact re-clusterings +
/// dedicated per-query keys) is model-independent, so it routes through the
/// context's CandidateGenCache under a designer tag — concurrent budget
/// cells and repeat calls share one enumeration pass.
class NaiveDesigner {
 public:
  explicit NaiveDesigner(const DesignContext* context,
                         CorrelationCostModelOptions model_options = {});

  DatabaseDesign Design(const Workload& workload, uint64_t budget_bytes) const;

  const CorrelationCostModel& model() const { return *model_; }

  /// Trial-pricing counters of the dedicated-key designer.
  CandGenStats candgen_stats() const;

 private:
  const DesignContext* context_;
  std::unique_ptr<CorrelationCostModel> model_;
  std::unique_ptr<ClusteredIndexDesigner> dedicated_;
};

/// Correlation-oblivious commercial-designer proxy. Design() is const and
/// thread-safe, like NaiveDesigner's; generation goes through the context's
/// CandidateGenCache keyed by the oblivious model's CacheId().
class CommercialDesigner {
 public:
  explicit CommercialDesigner(const DesignContext* context,
                              GreedyMkOptions greedy_options = {});

  DatabaseDesign Design(const Workload& workload, uint64_t budget_bytes) const;

  const ObliviousCostModel& model() const { return *model_; }

  /// Trial-pricing counters of the underlying generator.
  CandGenStats candgen_stats() const;

 private:
  const DesignContext* context_;
  GreedyMkOptions greedy_options_;
  std::unique_ptr<ObliviousCostModel> model_;
  std::unique_ptr<MvCandidateGenerator> generator_;
};

}  // namespace coradd
