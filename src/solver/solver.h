// The parallel warm-started branch-and-bound engine for the §5.1 selection
// ILP — the repo's one exact engine — and the density greedy that seeds it.
//
// The engine expands the search tree in deterministic *waves*: each wave
// takes a fixed-size batch of frontier subtrees, runs a bounded depth-first
// search on each across ThreadPool::Shared() (or any caller pool), and
// merges incumbents and suspended frontiers in task order. Because the
// wave structure is a pure function of the problem — never of thread count
// or timing — the selected design is bit-identical at any thread count,
// the same contract the batched executor established in PR 3.
//
// Warm starts: a caller-supplied incumbent hint (the previous budget point
// of a grid sweep, or the previous ILP-feedback iteration) is repaired
// deterministically and seeds the incumbent, which makes near-identical
// consecutive solves prune almost immediately. See solver/warm_start.h for
// the cross-problem mapping and docs/SOLVER.md for the full contract and
// the independent oracles (brute force, the Table 3 LP) the tests check
// the engine against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ilp/selection.h"

namespace coradd {

class ThreadPool;

/// Relative optimality gap: subtrees that cannot improve the incumbent by
/// more than this fraction of its cost are pruned (with a 1e-9 absolute
/// floor). CORADD plateaus hold thousands of designs within microseconds of
/// simulated runtime of each other; proving the last 1e-6 is pure cost.
/// CPLEX defaults to 1e-4.
inline constexpr double kSolverRelativeGap = 1e-6;

/// Engine knobs. The defaults suit post-domination CORADD instances; the
/// per-task node budget trades incumbent freshness for parallel width but
/// never affects the chosen design.
struct SolverOptions {
  uint64_t max_nodes = 4000000;     ///< deterministic cap, wave granularity
  double time_limit_seconds = 120.0;  ///< safety valve; see docs/SOLVER.md
  uint64_t nodes_per_task = 0;      ///< node budget per task; 0 = auto
  ThreadPool* pool = nullptr;       ///< nullptr = ThreadPool::Shared()
};

/// Search statistics of one solve, accumulable across a feedback loop or a
/// budget sweep. Surfaced through bench --json.
struct SolverStats {
  uint64_t nodes_expanded = 0;
  uint64_t bound_prunes = 0;
  uint64_t leaf_shortcuts = 0;      ///< subtrees closed by the all-fit rule
  uint64_t incumbent_updates = 0;
  uint64_t waves = 0;
  uint64_t tasks = 0;
  uint64_t solves = 0;              ///< solves accumulated into this record
  uint64_t warm_solves = 0;         ///< solves that received a warm hint
  uint64_t warm_wins = 0;           ///< warm incumbent beat density greedy
  bool proved_optimal = true;       ///< AND over accumulated solves
  double wall_seconds = 0.0;

  void Accumulate(const SolverStats& other);
  std::string ToString() const;
};

/// Stateless parallel branch-and-bound engine. Solve() is const and
/// thread-safe; concurrent solves share nothing but the thread pool.
class SolverEngine {
 public:
  explicit SolverEngine(SolverOptions options = {});

  /// Solves `problem` exactly. `warm_chosen` (optional) is a list of
  /// candidate indices from a previous solution of a structurally similar
  /// problem; infeasible or unknown entries are skipped deterministically.
  /// The result's `proved_optimal` is false only when the node or time
  /// limit was hit, in which case the best incumbent is returned.
  SelectionResult Solve(const SelectionProblem& problem,
                        SolverStats* stats = nullptr,
                        const std::vector<int>* warm_chosen = nullptr) const;

  const SolverOptions& options() const { return options_; }

 private:
  SolverOptions options_;
};

/// Density greedy (benefit per byte, SOS1-aware): the incumbent every
/// Solve() starts from, returned on its own. The Naive baseline's selector
/// and the heuristic reference of bench_fig6. `proved_optimal` is false.
SelectionResult SolveSelectionGreedyDensity(const SelectionProblem& problem);

}  // namespace coradd
