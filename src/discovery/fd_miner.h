// Lattice-based dependency miner (TANE-family, cf. Desbordante; Hermit,
// arXiv:1903.11203, motivates the soft-correlation output): given a
// column-major row set, discovers
//   * exact functional dependencies (no violating rows among the mined set),
//   * approximate FDs whose g3 error — the fraction of rows one would have
//     to delete for the FD to hold — is within a configurable threshold,
//   * CORDS-style soft correlation strengths for attribute pairs,
// with a configurable cap on LHS arity. Candidate validation at each lattice
// level is partitioned across the caller's ThreadPool; levels synchronize at
// barriers, so the discovered dependency set is identical for every pool.
//
// Mining over a uniform row sample (the designer's default, via
// MinerInput::FromSynopsis) makes every verdict a sample statement: an FD
// that holds on the full data shows zero violations in any sample, but a
// sample-exact FD may be approximate on the full data. docs/DISCOVERY.md
// discusses the trade-off.
#pragma once

#include <cstddef>

#include "discovery/dependencies.h"
#include "discovery/row_source.h"

namespace coradd {

class ThreadPool;

/// Mining knobs.
struct DependencyMinerOptions {
  /// Maximum LHS size explored in the lattice.
  size_t max_lhs_arity = 2;
  /// Report lhs -> rhs with 0 < g3 error <= threshold as approximate FDs.
  double afd_error_threshold = 0.05;
  /// Pool candidate validation fans out on; nullptr = ThreadPool::Shared().
  /// Every pool mines the identical dependency set.
  ThreadPool* pool = nullptr;
  /// Only pairs at least this strong are emitted as soft correlations
  /// (distinct-count ratios are still recorded for every validated set).
  double min_soft_strength = 0.25;
  /// LHS sets whose distinct count exceeds this fraction of the mined rows
  /// are "near-keys": within a whisker of unique, so they trivially
  /// almost-determine everything (the CORDS soft-key exclusion). They are
  /// recorded (singletons in near_key_columns(), every set in the distinct
  /// statistics) but neither validated as LHS nor expanded.
  double near_key_fraction = 0.75;
};

/// Mines dependencies from row sets.
class DependencyMiner {
 public:
  explicit DependencyMiner(DependencyMinerOptions options = {})
      : options_(options) {}

  const DependencyMinerOptions& options() const { return options_; }

  /// Runs the lattice search over `input` and returns the report.
  DiscoveredDependencies Mine(const MinerInput& input) const;

  /// Re-checks every exact FD of `report` — typically mined from a sample —
  /// against `full` (all rows of the same relation; column order must match
  /// the report). Each FD costs one pass over its columns: the g3 error is
  /// recomputed from full-row partitions. Sample-exact FDs that are only
  /// approximate on the full data are demoted to AFDs (error updated) or
  /// dropped when the error exceeds afd_error_threshold. Returns the number
  /// demoted or dropped. Supersets pruned as "non-minimal" during sample
  /// mining are not revisited.
  /// `full` may be sparse: only the columns ColumnsToVerify(report) names
  /// need values (MinerInput::FromUniverseColumns builds exactly that),
  /// but all provided columns must have equal row counts.
  size_t VerifyExactFds(const MinerInput& full,
                        DiscoveredDependencies* report) const;

  /// The column indexes VerifyExactFds will read: every LHS/RHS of an
  /// exact FD in `report`, sorted, deduplicated.
  static std::vector<int> ColumnsToVerify(const DiscoveredDependencies& report);

 private:
  DependencyMinerOptions options_;
};

}  // namespace coradd
