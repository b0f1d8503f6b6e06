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
//
// Both design a whole budget grid in one DesignMany call: candidates are
// enumerated and priced once (Commercial also drops dominated candidates
// once), then every budget is selected and packaged concurrently on
// ThreadPool::Shared(), each into its own slot. Design(w, b) is
// DesignMany(w, {b}).front().
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/context.h"
#include "core/design.h"
#include "cost/oblivious_cost_model.h"
#include "ilp/greedy_mk.h"
#include "mv/candidate_generator.h"

namespace coradd {

/// §7.2's Naive baseline. Its candidates are the fact re-clusterings plus
/// one dedicated key per query. Design() and DesignMany() are const and
/// thread-safe (the memoized cost model is internally synchronized).
class NaiveDesigner {
 public:
  explicit NaiveDesigner(const DesignContext* context,
                         CorrelationCostModelOptions model_options = {});

  DatabaseDesign Design(const Workload& workload, uint64_t budget_bytes) const;

  /// One design per entry of `budgets`, in order; candidates are
  /// enumerated and priced once for the whole grid.
  std::vector<DatabaseDesign> DesignMany(
      const Workload& workload, const std::vector<uint64_t>& budgets) const;

  const CorrelationCostModel& model() const { return *model_; }

  /// Trial-pricing counters of the dedicated-key designer, with the wall
  /// time spent enumerating candidates.
  CandGenStats candgen_stats() const;

 private:
  const DesignContext* context_;
  std::unique_ptr<CorrelationCostModel> model_;
  std::unique_ptr<ClusteredIndexDesigner> dedicated_;
  mutable std::atomic<uint64_t> enumerate_ns_{0};
};

/// Correlation-oblivious commercial-designer proxy. Design() and
/// DesignMany() are const and thread-safe, like NaiveDesigner's.
class CommercialDesigner {
 public:
  explicit CommercialDesigner(const DesignContext* context,
                              GreedyMkOptions greedy_options = {});

  DatabaseDesign Design(const Workload& workload, uint64_t budget_bytes) const;

  /// One design per entry of `budgets`, in order; candidates are generated,
  /// priced and domination-pruned once for the whole grid.
  std::vector<DatabaseDesign> DesignMany(
      const Workload& workload, const std::vector<uint64_t>& budgets) const;

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
