// Shared design context: universes and statistics for every fact table a
// workload touches, built once (the paper's one-time startup scan, A-2.2)
// and shared by designers, evaluators, and benches. The context is also the
// hook for the dependency-discovery subsystem: MineDependencies() runs the
// lattice miner over a fact's rows and installs the discovered FDs/AFDs as
// the correlation source every designer reading this context consumes.
// Candidates are not kept here: each designer's DesignMany generates them
// once and shares them across its budget grid.
#pragma once

#include <memory>
#include <vector>

#include "catalog/universe.h"
#include "cost/cost_model.h"
#include "discovery/fd_miner.h"
#include "workload/query.h"

namespace coradd {

/// How MineDependencies() feeds discovered knowledge into the designers.
struct DependencyMiningConfig {
  DependencyMinerOptions miner;
  /// Mine every universe row instead of the synopsis sample. Exact but
  /// costs a full scan per candidate-lattice level.
  bool full_scan = false;
  /// After sample mining, re-check every sample-exact FD against the full
  /// universe rows (one scan per FD) and demote the ones that are only
  /// approximate on the full data. Ignored when full_scan is set (verdicts
  /// are already exact).
  bool verify_exact_fds = true;
  /// Strength policy installed on the correlation catalogs: cross-check
  /// mined knowledge against the synopsis estimates (kMinedFirst) or rely
  /// on mined knowledge alone (kMinedOnly).
  CorrelationSource source = CorrelationSource::kMinedFirst;
};

/// Owns per-fact universes and statistics; exposes a StatsRegistry.
class DesignContext {
 public:
  /// Builds universes + stats for every fact table `workload` references.
  DesignContext(const Catalog* catalog, const Workload& workload,
                StatsOptions stats_options = {});

  const Catalog& catalog() const { return *catalog_; }
  const StatsRegistry& registry() const { return registry_; }
  const StatsOptions& stats_options() const { return stats_options_; }

  const Universe* UniverseForFact(const std::string& fact) const;
  const UniverseStats* StatsForFact(const std::string& fact) const {
    return registry_.ForFact(fact);
  }

  /// Runs the dependency miner over `fact`'s universe (synopsis sample by
  /// default) and installs the result as the strength source of the fact's
  /// correlation catalog. Returns the stored report (owned by the context).
  ///
  /// Call before constructing the designers/cost models that should consume
  /// the mined knowledge: models memoize estimates, so one built earlier
  /// would mix pre-mining cached values with post-mining fresh ones.
  const DiscoveredDependencies* MineDependencies(
      const std::string& fact, const DependencyMiningConfig& config = {});

  /// MineDependencies() for every fact universe of this context.
  void MineAllDependencies(const DependencyMiningConfig& config = {});

  /// The mined report for `fact`, or nullptr if never mined.
  const DiscoveredDependencies* DependenciesForFact(
      const std::string& fact) const;

 private:
  const Catalog* catalog_;
  StatsOptions stats_options_;
  std::vector<std::unique_ptr<Universe>> universes_;
  std::vector<std::unique_ptr<UniverseStats>> stats_;
  /// mined_[i] belongs to universes_[i]; nullptr until mined.
  std::vector<std::unique_ptr<DiscoveredDependencies>> mined_;
  StatsRegistry registry_;
};

}  // namespace coradd
