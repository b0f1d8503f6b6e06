#include "solver/subproblem.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/status.h"
#include "cost/cost_model.h"
#include "solver/solver.h"

namespace coradd {
namespace solver_internal {

namespace {

constexpr double kDeltaEps = 1e-12;  ///< below this a candidate is useless
/// Absolute floor of the pruning slack: subtrees that cannot beat the
/// incumbent by more than this are pruned even when the relative gap is
/// smaller. CORADD's plateaus are full of solutions within ~1e-10 of each
/// other (candidates that fit the budget without changing any query's
/// winner); exact pruning would walk them all.
constexpr double kPruneSlack = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// w_q * cost, keeping infeasible pairs at +infinity even for weight 0.
inline double Weighted(double cost, double weight) {
  return cost == kInfeasibleCost ? kInf : cost * weight;
}

/// Fractional-knapsack ordering entry for the bound computation.
struct DensityEntry {
  double density;
  double delta;
  int32_t pos;
};

/// Reusable per-task buffers; sized once, no per-node allocation.
struct Scratch {
  std::vector<double> wcur;              ///< per-query weighted current cost
  std::vector<double> wbest;             ///< per-query best over live pool
  std::vector<uint32_t> decided_epoch;   ///< per pool position
  std::vector<uint8_t> group_used;       ///< per SOS1 group
  std::vector<uint32_t> group_live;      ///< live members per SOS1 group
  std::vector<int32_t> live;             ///< live pool positions
  std::vector<double> live_delta;        ///< aligned with live
  std::vector<DensityEntry> density;     ///< knapsack ordering
  uint32_t epoch = 0;

  explicit Scratch(const CompiledProblem& cp)
      : wcur(cp.nq),
        wbest(cp.nq),
        decided_epoch(cp.pool.size(), 0),
        group_used(cp.num_groups, 0),
        group_live(cp.num_groups, 0) {}
};

/// Marginal weighted benefit of pool position `pos` against `wcur`.
inline double DeltaOf(const CompiledProblem& cp, const double* wcur,
                      int32_t pos) {
  const double* row = cp.wcost.data() + static_cast<size_t>(pos) * cp.nq;
  double d = 0.0;
  for (size_t q = 0; q < cp.nq; ++q) {
    if (row[q] < wcur[q]) d += wcur[q] - row[q];
  }
  return d;
}

/// Applies pool position `pos` to (wcur, total, used).
inline void ApplyTo(const CompiledProblem& cp, int32_t pos,
                    std::vector<double>* wcur, double* total,
                    uint64_t* used) {
  const double* row = cp.wcost.data() + static_cast<size_t>(pos) * cp.nq;
  for (size_t q = 0; q < cp.nq; ++q) {
    if (row[q] < (*wcur)[q]) {
      *total -= (*wcur)[q] - row[q];
      (*wcur)[q] = row[q];
    }
  }
  *used += cp.pool_sizes[static_cast<size_t>(pos)];
}

}  // namespace

CompiledProblem CompileProblem(const SelectionProblem& p) {
  CompiledProblem cp;
  cp.problem = &p;
  cp.nq = p.NumQueries();
  cp.budget = p.budget_bytes;
  cp.num_groups = p.sos1_groups.size();

  std::vector<int> group_of(p.NumCandidates(), -1);
  for (size_t g = 0; g < p.sos1_groups.size(); ++g) {
    for (int m : p.sos1_groups[g]) {
      group_of[static_cast<size_t>(m)] = static_cast<int>(g);
    }
  }
  std::vector<bool> forced(p.NumCandidates(), false);
  // A forced candidate claims its SOS1 group: siblings are inadmissible
  // everywhere, so they never enter the pool.
  std::vector<bool> group_claimed(p.sos1_groups.size(), false);
  for (int f : p.forced) {
    forced[static_cast<size_t>(f)] = true;
    const int g = group_of[static_cast<size_t>(f)];
    if (g >= 0) group_claimed[static_cast<size_t>(g)] = true;
  }

  // Root state: forced candidates applied.
  cp.root_wcur.assign(cp.nq, kInf);
  cp.root_used = 0;
  std::vector<double> cur(cp.nq, kInfeasibleCost);
  for (int f : p.forced) {
    cp.root_used += p.sizes[static_cast<size_t>(f)];
    for (size_t q = 0; q < cp.nq; ++q) {
      cur[q] = std::min(cur[q], p.costs[q][static_cast<size_t>(f)]);
    }
  }
  cp.root_total = 0.0;
  for (size_t q = 0; q < cp.nq; ++q) {
    // Every query must be answerable by the always-present base design.
    CORADD_CHECK(cur[q] != kInfeasibleCost);
    cp.root_wcur[q] = Weighted(cur[q], p.Weight(q));
    cp.root_total += cp.root_wcur[q];
  }

  // Candidate pool: everything non-forced that fits and helps at the root.
  struct PoolEntry {
    double density;
    int id;
  };
  std::vector<PoolEntry> entries;
  for (size_t m = 0; m < p.NumCandidates(); ++m) {
    if (forced[m]) continue;
    if (group_of[m] >= 0 && group_claimed[static_cast<size_t>(group_of[m])]) {
      continue;
    }
    if (cp.root_used + p.sizes[m] > cp.budget) continue;
    double d = 0.0;
    for (size_t q = 0; q < cp.nq; ++q) {
      const double wc = Weighted(p.costs[q][m], p.Weight(q));
      if (wc < cp.root_wcur[q]) d += cp.root_wcur[q] - wc;
    }
    if (d <= kDeltaEps) continue;  // benefit never grows down the tree
    entries.push_back(
        {d / static_cast<double>(std::max<uint64_t>(1, p.sizes[m])),
         static_cast<int>(m)});
  }
  std::sort(entries.begin(), entries.end(),
            [](const PoolEntry& a, const PoolEntry& b) {
              if (a.density != b.density) return a.density > b.density;
              return a.id < b.id;
            });

  cp.pool.reserve(entries.size());
  cp.pool_sizes.reserve(entries.size());
  cp.pool_group.reserve(entries.size());
  cp.pos_of_candidate.assign(p.NumCandidates(), -1);
  cp.wcost.resize(entries.size() * cp.nq);
  for (size_t pos = 0; pos < entries.size(); ++pos) {
    const int id = entries[pos].id;
    cp.pos_of_candidate[static_cast<size_t>(id)] = static_cast<int>(pos);
    cp.pool.push_back(id);
    cp.pool_sizes.push_back(p.sizes[static_cast<size_t>(id)]);
    cp.pool_group.push_back(group_of[static_cast<size_t>(id)]);
    double* row = cp.wcost.data() + pos * cp.nq;
    for (size_t q = 0; q < cp.nq; ++q) {
      row[q] = Weighted(p.costs[q][static_cast<size_t>(id)], p.Weight(q));
    }
  }
  return cp;
}

CompiledSolution GreedyIncumbent(const CompiledProblem& cp) {
  CompiledSolution out;
  out.valid = true;
  out.cost = cp.root_total;
  std::vector<double> wcur = cp.root_wcur;
  uint64_t used = cp.root_used;
  std::vector<uint8_t> taken(cp.pool.size(), 0);
  std::vector<uint8_t> group_used(cp.num_groups, 0);
  for (;;) {
    int32_t best = -1;
    double best_density = 0.0;
    for (size_t pos = 0; pos < cp.pool.size(); ++pos) {
      if (taken[pos]) continue;
      if (used + cp.pool_sizes[pos] > cp.budget) continue;
      const int g = cp.pool_group[pos];
      if (g >= 0 && group_used[static_cast<size_t>(g)]) continue;
      const double d = DeltaOf(cp, wcur.data(), static_cast<int32_t>(pos));
      if (d <= kDeltaEps) continue;
      const double density =
          d / static_cast<double>(std::max<uint64_t>(1, cp.pool_sizes[pos]));
      if (density > best_density) {  // strict: earliest max in static order
        best_density = density;
        best = static_cast<int32_t>(pos);
      }
    }
    if (best < 0) break;
    taken[static_cast<size_t>(best)] = 1;
    const int g = cp.pool_group[static_cast<size_t>(best)];
    if (g >= 0) group_used[static_cast<size_t>(g)] = 1;
    ApplyTo(cp, best, &wcur, &out.cost, &used);
    out.includes.push_back(best);
  }
  return out;
}

CompiledSolution ApplyWarmHint(const CompiledProblem& cp,
                               const std::vector<int32_t>& positions) {
  CompiledSolution out;
  if (positions.empty()) return out;
  std::vector<int32_t> sorted = positions;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  out.valid = true;
  out.cost = cp.root_total;
  std::vector<double> wcur = cp.root_wcur;
  uint64_t used = cp.root_used;
  std::vector<uint8_t> group_used(cp.num_groups, 0);
  for (int32_t pos : sorted) {
    if (pos < 0 || static_cast<size_t>(pos) >= cp.pool.size()) continue;
    if (used + cp.pool_sizes[static_cast<size_t>(pos)] > cp.budget) continue;
    const int g = cp.pool_group[static_cast<size_t>(pos)];
    if (g >= 0 && group_used[static_cast<size_t>(g)]) continue;
    if (g >= 0) group_used[static_cast<size_t>(g)] = 1;
    ApplyTo(cp, pos, &wcur, &out.cost, &used);
    out.includes.push_back(pos);
  }
  return out;
}

TaskResult RunSearchTask(const CompiledProblem& cp, NodeRef start,
                         double incumbent_cost, uint64_t node_budget) {
  TaskResult out;
  out.best.cost = kInf;
  Scratch s(cp);

  std::vector<NodeRef> stack;
  stack.push_back(std::move(start));

  while (!stack.empty() && out.nodes < node_budget) {
    NodeRef node = std::move(stack.back());
    stack.pop_back();
    ++out.nodes;

    // --- Rebuild the node state from the root.
    ++s.epoch;
    std::copy(cp.root_wcur.begin(), cp.root_wcur.end(), s.wcur.begin());
    std::fill(s.group_used.begin(), s.group_used.end(), 0);
    double total = cp.root_total;
    uint64_t used = cp.root_used;
    for (int32_t pos : node.includes) {
      ApplyTo(cp, pos, &s.wcur, &total, &used);
      s.decided_epoch[static_cast<size_t>(pos)] = s.epoch;
      const int g = cp.pool_group[static_cast<size_t>(pos)];
      if (g >= 0) s.group_used[static_cast<size_t>(g)] = 1;
    }
    for (int32_t pos : node.excludes) {
      s.decided_epoch[static_cast<size_t>(pos)] = s.epoch;
    }

    const double prune_ref = std::min(incumbent_cost, out.best.cost);

    // --- Live scan: admissible candidates with positive marginal benefit.
    // Tracks the branching choice (largest benefit, earliest in static order
    // on ties), the per-query best achievable cost, and SOS1 conflicts.
    std::copy(s.wcur.begin(), s.wcur.end(), s.wbest.begin());
    std::fill(s.group_live.begin(), s.group_live.end(), 0);
    s.live.clear();
    s.live_delta.clear();
    int32_t branch = -1;
    double branch_delta = -1.0;
    uint64_t live_bytes = 0;
    bool group_conflict = false;
    for (size_t pos = 0; pos < cp.pool.size(); ++pos) {
      if (s.decided_epoch[pos] == s.epoch) continue;
      if (used + cp.pool_sizes[pos] > cp.budget) continue;
      const int g = cp.pool_group[pos];
      if (g >= 0 && s.group_used[static_cast<size_t>(g)]) continue;
      const double d = DeltaOf(cp, s.wcur.data(), static_cast<int32_t>(pos));
      if (d <= kDeltaEps) continue;
      const double* row = cp.wcost.data() + pos * cp.nq;
      for (size_t q = 0; q < cp.nq; ++q) {
        if (row[q] < s.wbest[q]) s.wbest[q] = row[q];
      }
      s.live.push_back(static_cast<int32_t>(pos));
      s.live_delta.push_back(d);
      live_bytes += cp.pool_sizes[pos];
      if (g >= 0 && ++s.group_live[static_cast<size_t>(g)] >= 2) {
        group_conflict = true;
      }
      if (d > branch_delta) {
        branch_delta = d;
        branch = static_cast<int32_t>(pos);
      }
    }

    // Resolve SOS1 groups first: while any group has two or more live
    // members, branch on that group's best member. Once every group is
    // down to at most one live candidate, the subtree is conflict-free and
    // the all-fit rule below can close it in one step — which is what
    // collapses the near-exhaustive budget plateaus (everything fits; the
    // only real decision is which re-clustering of each fact to keep).
    if (group_conflict) {
      double best_group_delta = -1.0;
      for (size_t i = 0; i < s.live.size(); ++i) {
        const int g = cp.pool_group[static_cast<size_t>(s.live[i])];
        if (g < 0 || s.group_live[static_cast<size_t>(g)] < 2) continue;
        if (s.live_delta[i] > best_group_delta) {
          best_group_delta = s.live_delta[i];
          branch = s.live[i];
        }
      }
    }

    // The node itself is a feasible solution.
    if (total < out.best.cost) {
      out.best.cost = total;
      out.best.includes = node.includes;
      out.best.valid = true;
      ++out.incumbent_updates;
    }
    if (s.live.empty()) continue;  // leaf

    // Benefit still obtainable in this subtree, two admissible views:
    // per-query potential (cannot go below the best remaining candidate)
    // and — when not all live candidates fit together — a fractional
    // knapsack over marginal benefits (valid by submodularity).
    const double bar_ref = std::min(prune_ref, out.best.cost);
    const double prune_bar =
        bar_ref - std::max(kPruneSlack, kSolverRelativeGap * bar_ref);
    double potential = 0.0;
    for (size_t q = 0; q < cp.nq; ++q) potential += s.wcur[q] - s.wbest[q];

    // If every live candidate fits and no two share an SOS1 group, taking
    // all of them is optimal for the subtree: the resulting per-query cost
    // is exactly wbest, so the subtree closes in O(nq).
    if (!group_conflict && used + live_bytes <= cp.budget) {
      const double t_all = total - potential;
      if (t_all < out.best.cost) {
        out.best.cost = t_all;
        out.best.includes = node.includes;
        out.best.includes.insert(out.best.includes.end(), s.live.begin(),
                                 s.live.end());
        out.best.valid = true;
        ++out.incumbent_updates;
      }
      ++out.leaf_shortcuts;
      continue;
    }

    // The combined bound is min(knapsack, potential), so if the potential
    // alone already prunes, skip the knapsack's sort entirely.
    if (total - potential >= prune_bar) {
      ++out.bound_prunes;
      continue;
    }

    s.density.clear();
    for (size_t i = 0; i < s.live.size(); ++i) {
      const size_t pos = static_cast<size_t>(s.live[i]);
      s.density.push_back(
          {s.live_delta[i] /
               static_cast<double>(std::max<uint64_t>(1, cp.pool_sizes[pos])),
           s.live_delta[i], s.live[i]});
    }
    std::sort(s.density.begin(), s.density.end(),
              [](const DensityEntry& a, const DensityEntry& b) {
                if (a.density != b.density) return a.density > b.density;
                return a.pos < b.pos;
              });
    double knapsack = 0.0;
    uint64_t space = cp.budget - used;
    for (const auto& e : s.density) {
      const uint64_t sz =
          std::max<uint64_t>(1, cp.pool_sizes[static_cast<size_t>(e.pos)]);
      if (sz <= space) {
        knapsack += e.delta;
        space -= sz;
      } else {
        knapsack += e.density * static_cast<double>(space);
        break;
      }
    }
    const double gain = std::min(knapsack, potential);
    if (total - gain >= prune_bar) {
      ++out.bound_prunes;
      continue;
    }

    // Branch on `branch`: explore the include child first (greedy-like
    // descent finds strong incumbents fast), so push the exclude child
    // below it on the stack.
    NodeRef exclude_child;
    exclude_child.includes = node.includes;
    exclude_child.excludes = std::move(node.excludes);
    exclude_child.excludes.push_back(branch);
    NodeRef include_child;
    include_child.includes = std::move(node.includes);
    include_child.includes.push_back(branch);
    include_child.excludes = exclude_child.excludes;
    include_child.excludes.pop_back();  // same path, without `branch`
    stack.push_back(std::move(exclude_child));
    stack.push_back(std::move(include_child));
  }

  out.suspended = std::move(stack);
  return out;
}

}  // namespace solver_internal
}  // namespace coradd
