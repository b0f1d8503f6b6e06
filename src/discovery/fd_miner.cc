#include "discovery/fd_miner.h"

#include <algorithm>

#include "common/status.h"
#include "common/thread_pool.h"
#include "discovery/flat_map.h"
#include "discovery/lattice.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace coradd {

namespace {

/// One validated candidate: RHS column with its g3 error.
struct RhsVerdict {
  int rhs = -1;
  double error = 0.0;
};

/// g3 error of lhs -> rhs from the two dense partitions: the fraction of
/// rows outside the per-LHS-group majority RHS value. `counts` and
/// `group_max` are caller-owned scratch reused across RHS columns.
double G3Error(const std::vector<uint32_t>& lhs_groups, uint32_t lhs_num_groups,
               const std::vector<uint32_t>& rhs_groups, FlatCountMap* counts,
               std::vector<uint32_t>* group_max) {
  const size_t n = lhs_groups.size();
  counts->Reset(n);
  for (size_t i = 0; i < n; ++i) {
    // Both group ids are dense and < 2^32: the composite key is exact.
    counts->Add((static_cast<uint64_t>(lhs_groups[i]) << 32) | rhs_groups[i]);
  }
  group_max->assign(lhs_num_groups, 0);
  counts->ForEach([&](uint64_t key, uint32_t cnt) {
    uint32_t& m = (*group_max)[key >> 32];
    m = std::max(m, cnt);
  });
  uint64_t kept = 0;
  for (uint32_t m : *group_max) kept += m;
  return static_cast<double>(n - kept) / static_cast<double>(n);
}

void InsertSorted(std::vector<int>* v, int value) {
  auto it = std::lower_bound(v->begin(), v->end(), value);
  if (it == v->end() || *it != value) v->insert(it, value);
}

/// Emits soft correlations from the refined pair partitions: strength
/// (a -> b) = |distinct(a)| / |distinct(a,b)|. Strength exactly 1 means the
/// pair FD held (reported as an FD, not a soft pair); (near-)unique pairs
/// are not correlations.
void HarvestSoftCorrelations(const std::vector<LatticeNode>& pairs,
                             const std::vector<LatticeNode>& singles,
                             double near_key_cutoff,
                             const DependencyMinerOptions& options,
                             std::vector<SoftCorrelation>* soft) {
  for (const LatticeNode& node : pairs) {
    if (node.is_key ||
        static_cast<double>(node.num_groups) > near_key_cutoff) {
      continue;
    }
    const int a = node.cols[0];
    const int b = node.cols[1];
    for (const auto& [from, to] :
         {std::pair<int, int>{a, b}, std::pair<int, int>{b, a}}) {
      const uint32_t from_groups =
          singles[static_cast<size_t>(from)].num_groups;
      if (from_groups == node.num_groups) continue;  // exact pair FD
      const double strength = static_cast<double>(from_groups) /
                              static_cast<double>(node.num_groups);
      if (strength >= options.min_soft_strength) {
        soft->push_back(SoftCorrelation{from, to, strength});
      }
    }
  }
}

}  // namespace

DiscoveredDependencies DependencyMiner::Mine(const MinerInput& input) const {
  DiscoveredDependencies report;
  report.column_names_ = input.column_names;
  report.mined_rows_ = input.NumRows();
  report.source_rows_ = input.source_rows;

  const size_t n = input.NumRows();
  const size_t m = input.NumColumns();
  if (n == 0 || m == 0) return report;
  CORADD_CHECK(n < (1ull << 32));  // dense group ids are 32-bit

  TRACE_SPAN("discovery.mine", {{"rows", static_cast<int64_t>(n)},
                                {"cols", static_cast<int64_t>(m)}});
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter& levels_mined =
      *reg.GetCounter("discovery.levels_mined");
  static obs::Counter& nodes_mined = *reg.GetCounter("discovery.lattice_nodes");
  static obs::Counter& fds_found = *reg.GetCounter("discovery.fds_found");

  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : ThreadPool::Shared();

  // --- Level 1: one partition per column. ---
  std::vector<LatticeNode> singles(m);
  pool.ParallelFor(m, [&](size_t c) {
    singles[c].cols = {static_cast<int>(c)};
    BuildSingletonPartition(input.columns[c], &singles[c]);
  });

  // Distinct counts above this are "near-keys": almost-unique LHS sets that
  // trivially almost-determine everything, so validating or expanding them
  // buys nothing but AFD spam (the CORDS soft-key exclusion).
  const double near_key_cutoff =
      options_.near_key_fraction * static_cast<double>(n);

  // Classify columns; only "active" ones take part in the lattice. Constant
  // columns are trivially determined by everything; (near-)unique columns
  // would make every LHS containing them a key — all are reported as facts,
  // not as FD spam.
  std::vector<int> active;
  for (size_t c = 0; c < m; ++c) {
    report.set_stats_[singles[c].cols] =
        SetStats{singles[c].num_groups, singles[c].f1, singles[c].f2};
    if (singles[c].num_groups <= 1) {
      report.constants_.push_back(static_cast<int>(c));
    } else if (singles[c].is_key) {
      report.keys_.push_back(singles[c].cols);
    } else if (static_cast<double>(singles[c].num_groups) > near_key_cutoff) {
      report.near_keys_.push_back(static_cast<int>(c));
    } else {
      active.push_back(static_cast<int>(c));
      singles[c].exact_rhs = singles[c].cols;
    }
  }

  // Current lattice level (starting from the active singletons) and the
  // previous one, kept alive because children refine their parents'
  // partitions. Level-1 nodes carry bookkeeping only — their partitions
  // stay in `singles` (copying them would duplicate n entries per active
  // column); PartitionOf resolves the right groups array either way.
  std::vector<LatticeNode> level;
  std::vector<LatticeNode> parents;
  for (int c : active) {
    LatticeNode node = singles[static_cast<size_t>(c)];
    node.groups.clear();
    level.push_back(std::move(node));
  }
  const auto partition_of = [&singles](const LatticeNode& node)
      -> const LatticeNode& {
    return node.groups.empty() && node.cols.size() == 1
               ? singles[static_cast<size_t>(node.cols[0])]
               : node;
  };

  for (size_t arity = 1; arity <= options_.max_lhs_arity; ++arity) {
    if (level.empty()) break;
    TRACE_SPAN("discovery.level",
               {{"arity", static_cast<int64_t>(arity)},
                {"nodes", static_cast<int64_t>(level.size())}});
    levels_mined.Add(1);
    nodes_mined.Add(level.size());

    // Refine partitions (levels >= 2; singletons arrive pre-built) and
    // validate every eligible RHS, in parallel across nodes. Writes are
    // confined to node i / verdict slot i, and all pruning state was merged
    // at the previous barrier, so every thread count yields the same set.
    std::vector<std::vector<RhsVerdict>> verdicts(level.size());
    pool.ParallelFor(level.size(), [&](size_t i) {
      LatticeNode& node = level[i];
      if (node.parent_index >= 0 && node.groups.empty()) {
        RefinePartition(
            partition_of(parents[static_cast<size_t>(node.parent_index)]),
            singles[static_cast<size_t>(node.extension_col)], &node);
      }
      if (node.is_key) return;  // determines everything; reported as a key
      if (static_cast<double>(node.num_groups) > near_key_cutoff) {
        return;  // near-key: only its distinct statistics are worth keeping
      }
      FlatCountMap counts;
      std::vector<uint32_t> group_max;
      for (int r : active) {
        if (std::binary_search(node.exact_rhs.begin(), node.exact_rhs.end(),
                               r)) {
          continue;  // non-minimal: some subset already determines r exactly
        }
        const double error =
            G3Error(partition_of(node).groups, node.num_groups,
                    singles[static_cast<size_t>(r)].groups, &counts,
                    &group_max);
        if (error <= options_.afd_error_threshold) {
          verdicts[i].push_back(RhsVerdict{r, error});
        }
      }
    });

    // Barrier reached: merge verdicts in deterministic node order.
    for (size_t i = 0; i < level.size(); ++i) {
      LatticeNode& node = level[i];
      report.set_stats_[node.cols] =
          SetStats{node.num_groups, node.f1, node.f2};
      if (node.is_key) {
        report.keys_.push_back(node.cols);
        continue;
      }
      if (static_cast<double>(node.num_groups) > near_key_cutoff) {
        node.is_key = true;  // prune expansion like a key, but not keys()
        continue;
      }
      for (const RhsVerdict& v : verdicts[i]) {
        if (v.error == 0.0) {
          report.fds_.push_back(FunctionalDependency{node.cols, v.rhs, 0.0});
          InsertSorted(&node.exact_rhs, v.rhs);
        } else if (!std::binary_search(node.afd_rhs.begin(),
                                       node.afd_rhs.end(), v.rhs)) {
          // A subset AFD subsumes this one; only new AFDs are reported.
          report.fds_.push_back(
              FunctionalDependency{node.cols, v.rhs, v.error});
          InsertSorted(&node.afd_rhs, v.rhs);
        }
      }
    }

    // Soft correlations fall out of the pair partitions.
    if (arity == 2) {
      HarvestSoftCorrelations(level, singles, near_key_cutoff, options_,
                              &report.soft_);
    }

    if (arity == options_.max_lhs_arity) break;
    std::vector<LatticeNode> next = ExpandLattice(level, active);
    parents = std::move(level);  // keep partitions alive for refinement
    level = std::move(next);
  }

  // An arity cap of 1 never builds the pair level the soft correlations
  // come from; build it here (partitions only — no FD validation) so
  // min_soft_strength is honored at every cap.
  if (options_.max_lhs_arity == 1 && !level.empty()) {
    std::vector<LatticeNode> pairs = ExpandLattice(level, active);
    pool.ParallelFor(pairs.size(), [&](size_t i) {
      RefinePartition(
          partition_of(level[static_cast<size_t>(pairs[i].parent_index)]),
          singles[static_cast<size_t>(pairs[i].extension_col)], &pairs[i]);
    });
    for (const LatticeNode& node : pairs) {
      report.set_stats_[node.cols] =
          SetStats{node.num_groups, node.f1, node.f2};
    }
    HarvestSoftCorrelations(pairs, singles, near_key_cutoff, options_,
                            &report.soft_);
  }

  fds_found.Add(report.fds_.size());
  report.Finish();
  return report;
}

std::vector<int> DependencyMiner::ColumnsToVerify(
    const DiscoveredDependencies& report) {
  std::vector<int> cols;
  for (const FunctionalDependency& fd : report.fds()) {
    if (!fd.exact()) continue;
    cols.push_back(fd.rhs);
    cols.insert(cols.end(), fd.lhs.begin(), fd.lhs.end());
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

size_t DependencyMiner::VerifyExactFds(const MinerInput& full,
                                       DiscoveredDependencies* report) const {
  CORADD_CHECK(report != nullptr);
  CORADD_CHECK(full.column_names == report->column_names());
  if (report->fds_.empty()) return 0;
  TRACE_SPAN("discovery.verify_exact_fds",
             {{"fds", static_cast<int64_t>(report->fds_.size())}});

  // Full-row singleton partitions, but only for columns some exact FD
  // touches. `full` may carry values for just those columns.
  std::vector<size_t> exact_idx;
  std::vector<char> needed(full.NumColumns(), 0);
  for (size_t i = 0; i < report->fds_.size(); ++i) {
    const FunctionalDependency& fd = report->fds_[i];
    if (!fd.exact()) continue;
    exact_idx.push_back(i);
    needed[static_cast<size_t>(fd.rhs)] = 1;
    for (int c : fd.lhs) needed[static_cast<size_t>(c)] = 1;
  }
  if (exact_idx.empty()) return 0;

  size_t n = 0;
  for (size_t c = 0; c < needed.size(); ++c) {
    if (!needed[c]) continue;
    if (n == 0) n = full.columns[c].size();
    CORADD_CHECK(full.columns[c].size() == n);  // sparse inputs must align
  }
  if (n == 0) return 0;
  CORADD_CHECK(n < (1ull << 32));

  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : ThreadPool::Shared();

  std::vector<size_t> needed_cols;
  for (size_t c = 0; c < needed.size(); ++c) {
    if (needed[c]) needed_cols.push_back(c);
  }
  std::vector<LatticeNode> singles(full.NumColumns());
  pool.ParallelFor(needed_cols.size(), [&](size_t i) {
    const size_t c = needed_cols[i];
    singles[c].cols = {static_cast<int>(c)};
    BuildSingletonPartition(full.columns[c], &singles[c]);
  });

  // One pass per FD: refine the LHS partition column by column, then
  // measure its g3 against the RHS partition. Slot-per-FD writes keep any
  // pool size deterministic.
  std::vector<double> errors(exact_idx.size(), 0.0);
  pool.ParallelFor(exact_idx.size(), [&](size_t k) {
    const FunctionalDependency& fd = report->fds_[exact_idx[k]];
    const LatticeNode* lhs = &singles[static_cast<size_t>(fd.lhs[0])];
    LatticeNode refined;
    for (size_t j = 1; j < fd.lhs.size(); ++j) {
      LatticeNode next;
      RefinePartition(*lhs, singles[static_cast<size_t>(fd.lhs[j])], &next);
      refined = std::move(next);
      lhs = &refined;
    }
    FlatCountMap counts;
    std::vector<uint32_t> group_max;
    errors[k] = G3Error(lhs->groups, lhs->num_groups,
                        singles[static_cast<size_t>(fd.rhs)].groups, &counts,
                        &group_max);
  });

  // Demote in deterministic report order; drop above the AFD threshold.
  size_t changed = 0;
  std::vector<FunctionalDependency> kept;
  kept.reserve(report->fds_.size());
  size_t k = 0;
  for (size_t i = 0; i < report->fds_.size(); ++i) {
    FunctionalDependency fd = report->fds_[i];
    if (k < exact_idx.size() && exact_idx[k] == i) {
      const double error = errors[k++];
      if (error != 0.0) {
        ++changed;
        if (error > options_.afd_error_threshold) continue;  // dropped
        fd.error = error;
      }
    }
    kept.push_back(std::move(fd));
  }
  report->fds_ = std::move(kept);
  report->Finish();
  return changed;
}

}  // namespace coradd
