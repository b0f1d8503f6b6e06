// Internal machinery of the parallel branch-and-bound engine: the compiled
// (read-only) form of a SelectionProblem shared by every search task, node
// descriptors, and the bounded depth-first task search.
//
// A node is described *extensionally* as the include/exclude decisions on
// its path from the root; tasks rebuild the node state from the compiled
// root on expansion. That makes suspension trivial (a task that exhausts
// its node budget just returns its remaining stack) and keeps every
// floating-point operation a pure function of (root arrays, decision list)
// — the foundation of the engine's determinism contract (docs/SOLVER.md).
#pragma once

#include <cstdint>
#include <vector>

#include "ilp/selection.h"

namespace coradd {
namespace solver_internal {

/// Read-only root compilation of a SelectionProblem. Candidate costs are
/// transposed to pool-major, frequency-weighted rows so the per-node
/// marginal-benefit scan is one contiguous pass per candidate (the original
/// costs[q][m] layout strides by the full candidate count per access).
struct CompiledProblem {
  const SelectionProblem* problem = nullptr;
  size_t nq = 0;

  /// Pool of undecided candidates in static order: root benefit density
  /// descending, candidate id ascending on ties. Forced candidates, those
  /// that cannot fit the budget, and those with no root benefit (marginal
  /// benefit is non-increasing down the tree, so they stay useless) are
  /// excluded up front.
  std::vector<int> pool;                 ///< pool position -> candidate id
  std::vector<uint64_t> pool_sizes;      ///< bytes, aligned with pool
  std::vector<int> pool_group;           ///< SOS1 group id or -1
  std::vector<int> pos_of_candidate;     ///< candidate id -> pool pos or -1
  size_t num_groups = 0;

  /// Weighted cost table: wcost[pos * nq + q] = w_q * costs[q][pool[pos]]
  /// (infeasible pairs stay +infinity).
  std::vector<double> wcost;

  /// Root state: forced candidates applied.
  std::vector<double> root_wcur;         ///< per-query weighted best cost
  double root_total = 0.0;
  uint64_t root_used = 0;
  uint64_t budget = 0;
};

CompiledProblem CompileProblem(const SelectionProblem& problem);

/// A search node: the include/exclude path from the root, in apply order.
/// Entries are pool positions.
struct NodeRef {
  std::vector<int32_t> includes;
  std::vector<int32_t> excludes;
};

/// A feasible solution in compiled coordinates.
struct CompiledSolution {
  double cost = 0.0;                     ///< weighted total (internal space)
  std::vector<int32_t> includes;         ///< pool positions
  bool valid = false;
};

/// Density-greedy incumbent from the root (benefit per byte, SOS1-aware).
CompiledSolution GreedyIncumbent(const CompiledProblem& cp);

/// Evaluates a caller-supplied warm-start hint: applies the listed pool
/// positions in pool order, skipping any that would break the budget or an
/// SOS1 group (deterministic repair). Returns an invalid solution when
/// nothing usable was supplied.
CompiledSolution ApplyWarmHint(const CompiledProblem& cp,
                               const std::vector<int32_t>& positions);

/// Outcome of one bounded task search.
struct TaskResult {
  CompiledSolution best;                 ///< best solution found by the task
  std::vector<NodeRef> suspended;        ///< unexpanded stack, bottom first
  uint64_t nodes = 0;
  uint64_t bound_prunes = 0;
  uint64_t leaf_shortcuts = 0;
  uint64_t incumbent_updates = 0;
};

/// Expands at most `node_budget` nodes of the subtree under `start` in
/// depth-first order, pruning against min(`incumbent_cost`, best found so
/// far) minus the optimality-gap slack max(1e-9, kSolverRelativeGap *
/// that). Deterministic: depends only on the arguments, never on timing or
/// thread placement.
TaskResult RunSearchTask(const CompiledProblem& cp, NodeRef start,
                         double incumbent_cost, uint64_t node_budget);

}  // namespace solver_internal
}  // namespace coradd
