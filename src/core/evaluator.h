// Runs a DatabaseDesign against a workload on the storage simulator: each
// query executes cold (caches discarded, as in §7) on the object the design
// routes it to, with plan selection by the supplied cost model. Produces
// both "real" (simulated-I/O) and "expected" (model) runtimes — the paired
// curves of Figures 9 and 11 — plus per-query aggregates that must agree
// across designs (a built-in correctness check).
//
// Evaluation is parallel end-to-end: RunMany() takes a whole sweep of
// (design, workload, planner) jobs — the per-budget/per-designer loops of
// the figure benches — materializes the distinct objects concurrently, then
// fans every (job, query) pair out over the shared ThreadPool. Each task
// keeps its own DiskModel, so simulated seconds and page counts are exactly
// the serial numbers, and reductions run in fixed (job, query) order.
#pragma once

#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/context.h"
#include "core/design.h"
#include "exec/executor.h"

namespace coradd {

/// One query's outcome.
struct QueryRunRecord {
  std::string query_id;
  std::string object_name;
  double real_seconds = 0.0;
  double expected_seconds = 0.0;
  double aggregate = 0.0;
  uint64_t rows_output = 0;
  uint64_t fragments = 0;
  AccessPath path = AccessPath::kFullScan;
};

/// Whole-workload outcome.
struct WorkloadRunResult {
  double total_seconds = 0.0;     ///< Frequency-weighted real runtime.
  double expected_seconds = 0.0;  ///< Frequency-weighted model estimate.
  std::vector<QueryRunRecord> per_query;
};

/// One independent evaluation: a design, the workload to run on it, and the
/// model acting as run-time optimizer / "expected" estimator. All three must
/// outlive the RunMany() call.
struct EvalJob {
  const DatabaseDesign* design = nullptr;
  const Workload* workload = nullptr;
  const CostModel* planner = nullptr;
};

/// Materializes design objects (with caching across budgets — identical
/// objects recur as the budget grid sweeps) and executes workloads.
/// `cache_capacity` = 0 keeps objects only for the call and caches none.
class DesignEvaluator {
 public:
  explicit DesignEvaluator(const DesignContext* context,
                           size_t cache_capacity = 24,
                           ExecOptions exec_options = {});

  /// Runs every workload query on its routed object. `planner` doubles as
  /// run-time optimizer and "expected" estimator (pass the designer's own
  /// model to reproduce the paired model/real curves).
  WorkloadRunResult Run(const DatabaseDesign& design, const Workload& workload,
                        const CostModel& planner);

  /// Evaluates every job, fanning all (job, query) pairs across the pool.
  /// Results are identical to calling Run() per job in order (same objects,
  /// same DiskModel accounting, same reduction order) at any thread count.
  /// Jobs are processed in chunks whose distinct materialized objects fit
  /// cache_capacity, so a wide sweep never pins more objects than the
  /// serial path would cache (a single job may still exceed it).
  std::vector<WorkloadRunResult> RunMany(const std::vector<EvalJob>& jobs);

  uint64_t cache_hits() const { return cache_hits_; }

 private:
  /// RunMany for one chunk: pins every distinct object of `jobs` for the
  /// duration of the call.
  std::vector<WorkloadRunResult> RunChunk(const std::vector<EvalJob>& jobs);
  const DesignContext* context_;
  size_t cache_capacity_;
  ExecOptions exec_options_;
  std::unordered_map<std::string, std::shared_ptr<MaterializedObject>> cache_;
  std::list<std::string> cache_order_;
  uint64_t cache_hits_ = 0;
};

}  // namespace coradd
