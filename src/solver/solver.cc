#include "solver/solver.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/subproblem.h"

namespace coradd {

using solver_internal::CompiledProblem;
using solver_internal::CompiledSolution;
using solver_internal::NodeRef;
using solver_internal::TaskResult;

namespace {

/// Frontier subtrees per wave: the wave's parallel width. Fixed, so the
/// wave structure never depends on the thread count.
constexpr size_t kTasksPerWave = 24;

/// Auto node budget per task: keep a wave's work roughly constant across
/// problem sizes so the time limit retains wave-boundary granularity.
/// Purely a function of the pool size — never of thread count.
uint64_t AutoNodesPerTask(size_t pool_size) {
  const uint64_t budget = (1ull << 21) / std::max<size_t>(64, pool_size);
  return std::clamp<uint64_t>(budget, 128, 8192);
}

/// Maps a compiled solution back to problem coordinates: forced plus chosen
/// pool candidates, ascending, with cost, routing and bytes recomputed from
/// the problem itself.
SelectionResult AssembleResult(const SelectionProblem& problem,
                               const CompiledProblem& cp,
                               const CompiledSolution& solution) {
  SelectionResult out;
  out.chosen.assign(problem.forced.begin(), problem.forced.end());
  for (int32_t pos : solution.includes) {
    out.chosen.push_back(cp.pool[static_cast<size_t>(pos)]);
  }
  std::sort(out.chosen.begin(), out.chosen.end());
  out.expected_cost = EvaluateSelection(problem, out.chosen,
                                        &out.best_for_query);
  out.used_bytes = 0;
  for (int m : out.chosen) {
    out.used_bytes += problem.sizes[static_cast<size_t>(m)];
  }
  return out;
}

}  // namespace

void SolverStats::Accumulate(const SolverStats& other) {
  nodes_expanded += other.nodes_expanded;
  bound_prunes += other.bound_prunes;
  leaf_shortcuts += other.leaf_shortcuts;
  incumbent_updates += other.incumbent_updates;
  waves += other.waves;
  tasks += other.tasks;
  solves += other.solves;
  warm_solves += other.warm_solves;
  warm_wins += other.warm_wins;
  proved_optimal = proved_optimal && other.proved_optimal;
  wall_seconds += other.wall_seconds;
}

std::string SolverStats::ToString() const {
  return StrFormat(
      "SolverStats{solves=%llu, nodes=%llu, prunes=%llu, shortcuts=%llu, "
      "waves=%llu, tasks=%llu, warm=%llu/%llu, optimal=%s, wall=%.3fs}",
      static_cast<unsigned long long>(solves),
      static_cast<unsigned long long>(nodes_expanded),
      static_cast<unsigned long long>(bound_prunes),
      static_cast<unsigned long long>(leaf_shortcuts),
      static_cast<unsigned long long>(waves),
      static_cast<unsigned long long>(tasks),
      static_cast<unsigned long long>(warm_wins),
      static_cast<unsigned long long>(warm_solves),
      proved_optimal ? "yes" : "no", wall_seconds);
}

SolverEngine::SolverEngine(SolverOptions options) : options_(options) {}

SelectionResult SolverEngine::Solve(const SelectionProblem& problem,
                                    SolverStats* stats,
                                    const std::vector<int>* warm_chosen) const {
  const auto t_start = std::chrono::steady_clock::now();
  SolverStats local;
  local.solves = 1;

  TRACE_SPAN_NAMED(
      solve_span, "solver.solve",
      {{"candidates", static_cast<int64_t>(problem.NumCandidates())}});
  const CompiledProblem cp = solver_internal::CompileProblem(problem);
  const uint64_t nodes_per_task = options_.nodes_per_task > 0
                                      ? options_.nodes_per_task
                                      : AutoNodesPerTask(cp.pool.size());

  // --- Incumbent seeding: density greedy, optionally challenged by the
  // caller's warm-start hint (mapped to pool positions, repaired).
  CompiledSolution best = solver_internal::GreedyIncumbent(cp);
  if (warm_chosen != nullptr && !warm_chosen->empty()) {
    std::vector<int32_t> positions;
    for (int id : *warm_chosen) {
      if (id < 0 || static_cast<size_t>(id) >= cp.pos_of_candidate.size()) {
        continue;
      }
      const int pos = cp.pos_of_candidate[static_cast<size_t>(id)];
      if (pos >= 0) positions.push_back(pos);
    }
    const CompiledSolution warm = solver_internal::ApplyWarmHint(cp, positions);
    if (warm.valid) {
      local.warm_solves = 1;
      if (warm.cost < best.cost) {
        best = warm;
        local.warm_wins = 1;
      }
    }
  }

  // --- Deterministic wave search. `open` is a stack (back = next in DFS
  // order); each wave consumes up to kTasksPerWave subtrees from the top.
  std::vector<NodeRef> open;
  open.push_back(NodeRef{});
  bool limit_hit = false;
  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : ThreadPool::Shared();
  std::vector<NodeRef> wave;
  std::vector<TaskResult> results;
  while (!open.empty()) {
    if (local.nodes_expanded >= options_.max_nodes) {
      limit_hit = true;
      break;
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_start)
            .count();
    if (elapsed > options_.time_limit_seconds) {
      limit_hit = true;
      break;
    }

    const size_t width = std::min(kTasksPerWave, open.size());
    wave.clear();
    for (size_t t = 0; t < width; ++t) {
      wave.push_back(std::move(open.back()));  // task 0 = deepest subtree
      open.pop_back();
    }
    results.assign(width, TaskResult{});
    const double wave_incumbent = best.cost;
    // Last-wave clamp: shrink per-task budgets so a capped solve lands on
    // max_nodes instead of overshooting by a whole wave. Deterministic —
    // a pure function of the (deterministic) node counter.
    const uint64_t remaining = options_.max_nodes - local.nodes_expanded;
    const uint64_t task_budget = std::min<uint64_t>(
        nodes_per_task,
        std::max<uint64_t>(1, (remaining + width - 1) / width));
    auto run_task = [&](size_t t) {
      results[t] = solver_internal::RunSearchTask(
          cp, std::move(wave[t]), wave_incumbent, task_budget);
    };
    {
      TRACE_SPAN("solver.wave",
                 {{"wave", static_cast<int64_t>(local.waves)},
                  {"tasks", static_cast<int64_t>(width)},
                  {"open", static_cast<int64_t>(open.size())}});
      pool.ParallelFor(width, run_task);
    }

    // Ordered merge: task order — never completion order — decides ties.
    for (size_t t = 0; t < width; ++t) {
      TaskResult& r = results[t];
      local.nodes_expanded += r.nodes;
      local.bound_prunes += r.bound_prunes;
      local.leaf_shortcuts += r.leaf_shortcuts;
      local.incumbent_updates += r.incumbent_updates;
      if (r.best.valid && r.best.cost < best.cost) best = std::move(r.best);
    }
    // Preserve depth-first order: task 0 held the deepest subtree, so its
    // suspension must end up back on top of the stack.
    for (size_t t = width; t-- > 0;) {
      for (auto& node : results[t].suspended) {
        open.push_back(std::move(node));
      }
    }
    local.waves += 1;
    local.tasks += width;
  }

  SelectionResult out = AssembleResult(problem, cp, best);
  out.nodes_explored = local.nodes_expanded;
  out.proved_optimal = !limit_hit;

  local.proved_optimal = !limit_hit;
  local.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  solve_span.Arg("nodes", static_cast<int64_t>(local.nodes_expanded));
  solve_span.Arg("waves", static_cast<int64_t>(local.waves));

  // Process totals live in the registry; `local` stays the per-solve view
  // (SolverStats consumers see unchanged per-call values). Pointers are
  // cached — the post-solve mirror is a handful of relaxed adds.
  {
    auto& reg = obs::MetricsRegistry::Global();
    static obs::Counter& solves = *reg.GetCounter("solver.solves");
    static obs::Counter& nodes = *reg.GetCounter("solver.nodes_expanded");
    static obs::Counter& prunes = *reg.GetCounter("solver.bound_prunes");
    static obs::Counter& shortcuts = *reg.GetCounter("solver.leaf_shortcuts");
    static obs::Counter& incumbents =
        *reg.GetCounter("solver.incumbent_updates");
    static obs::Counter& waves_total = *reg.GetCounter("solver.waves");
    static obs::Counter& tasks_total = *reg.GetCounter("solver.tasks");
    static obs::Counter& warm_solves = *reg.GetCounter("solver.warm_solves");
    static obs::Counter& warm_wins = *reg.GetCounter("solver.warm_wins");
    static obs::Histogram& solve_us =
        *reg.GetHistogram("solver.solve_micros");
    solves.Add(local.solves);
    nodes.Add(local.nodes_expanded);
    prunes.Add(local.bound_prunes);
    shortcuts.Add(local.leaf_shortcuts);
    incumbents.Add(local.incumbent_updates);
    waves_total.Add(local.waves);
    tasks_total.Add(local.tasks);
    warm_solves.Add(local.warm_solves);
    warm_wins.Add(local.warm_wins);
    solve_us.Observe(static_cast<uint64_t>(local.wall_seconds * 1e6));
  }

  if (stats != nullptr) stats->Accumulate(local);
  return out;
}

SelectionResult SolveSelectionGreedyDensity(const SelectionProblem& problem) {
  const CompiledProblem cp = solver_internal::CompileProblem(problem);
  return AssembleResult(problem, cp, solver_internal::GreedyIncumbent(cp));
}

}  // namespace coradd
