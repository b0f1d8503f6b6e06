// Runs a DatabaseDesign against a workload on the storage simulator: each
// query executes cold (caches discarded, as in §7) on the object the design
// routes it to, with plan selection by the supplied cost model. Produces
// both "real" (simulated-I/O) and "expected" (model) runtimes — the paired
// curves of Figures 9 and 11 — plus per-query aggregates that must agree
// across designs (a built-in correctness check).
//
// Evaluation is object-major: RunMany() takes a whole sweep of (design,
// workload, planner) jobs — the per-budget/per-designer loops of the figure
// benches — routes every (job, query) pair to its structurally distinct
// object once, then walks those objects in runs of at most `max_resident`:
// build the run concurrently, fan every pair routed to it out over the
// ThreadPool, drop it. Each task keeps its own DiskModel, so simulated
// seconds and page counts are exactly the serial numbers, and reductions
// run in fixed (job, query) order. RouteObjects and MaterializeObjects are
// the same route-and-build path the serving engine uses.
#pragma once

#include <memory>
#include <string>
#include <vector>

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

/// Resolves the object every (job, query) pair runs on. Returns the
/// distinct routed objects (by ObjectSignature) in first-appearance
/// (job, query) order; `(*object_of)[j][qi]` is the index in that list of
/// the object job j routes query qi to. Aborts on a null design or
/// workload, a routing vector shorter than the workload, or an index
/// outside the design's objects.
std::vector<const DesignedObject*> RouteObjects(
    const std::vector<EvalJob>& jobs,
    std::vector<std::vector<size_t>>* object_of);

/// Builds `objects` concurrently on `pool` (each build also runs its own
/// parallel loops there). Out[i] is the materialization of objects[i].
std::vector<std::unique_ptr<MaterializedObject>> MaterializeObjects(
    const DesignContext& context,
    const std::vector<const DesignedObject*>& objects, ThreadPool* pool);

/// Materializes design objects and executes workloads on them. At most
/// `max_resident` objects (0 is read as 1) are materialized at once, and
/// each distinct object of a RunMany call is built exactly once; nothing
/// is kept across calls.
class DesignEvaluator {
 public:
  explicit DesignEvaluator(const DesignContext* context,
                           size_t max_resident = 24,
                           ExecOptions exec_options = {});

  /// Runs every workload query on its routed object. `planner` doubles as
  /// run-time optimizer and "expected" estimator (pass the designer's own
  /// model to reproduce the paired model/real curves).
  WorkloadRunResult Run(const DatabaseDesign& design, const Workload& workload,
                        const CostModel& planner);

  /// Evaluates every job, fanning all (job, query) pairs across the pool.
  /// Results are identical to calling Run() per job in order (same objects,
  /// same DiskModel accounting, same reduction order) at any thread count
  /// and any `max_resident`. Pass a whole sweep in one call: objects shared
  /// by several jobs are then built once.
  std::vector<WorkloadRunResult> RunMany(const std::vector<EvalJob>& jobs);

 private:
  const DesignContext* context_;
  size_t max_resident_;
  ExecOptions exec_options_;
};

}  // namespace coradd
