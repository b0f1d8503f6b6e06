#include "core/context.h"

namespace coradd {

DesignContext::DesignContext(const Catalog* catalog, const Workload& workload,
                             StatsOptions stats_options)
    : catalog_(catalog), stats_options_(stats_options) {
  CORADD_CHECK(catalog != nullptr);
  for (const auto& fact : workload.FactTables()) {
    const FactTableInfo* info = catalog_->GetFactInfo(fact);
    CORADD_CHECK(info != nullptr);
    auto universe = std::make_unique<Universe>(*catalog_, *info);
    auto stats = std::make_unique<UniverseStats>(universe.get(), stats_options_);
    registry_.Register(stats.get());
    universes_.push_back(std::move(universe));
    stats_.push_back(std::move(stats));
    mined_.push_back(nullptr);
  }
}

const DiscoveredDependencies* DesignContext::MineDependencies(
    const std::string& fact, const DependencyMiningConfig& config) {
  for (size_t i = 0; i < universes_.size(); ++i) {
    if (universes_[i]->fact_name() != fact) continue;
    const MinerInput input =
        config.full_scan
            ? MinerInput::FromUniverse(*universes_[i])
            : MinerInput::FromSynopsis(*universes_[i], stats_[i]->synopsis());
    DependencyMiner miner(config.miner);
    mined_[i] = std::make_unique<DiscoveredDependencies>(miner.Mine(input));
    if (!config.full_scan && config.verify_exact_fds) {
      // Gather only the columns the exact FDs touch — not a full universe
      // copy.
      const std::vector<int> cols = DependencyMiner::ColumnsToVerify(*mined_[i]);
      if (!cols.empty()) {
        const MinerInput full =
            MinerInput::FromUniverseColumns(*universes_[i], cols);
        miner.VerifyExactFds(full, mined_[i].get());
      }
    }
    stats_[i]->InstallMinedDependencies(mined_[i].get(), config.source);
    return mined_[i].get();
  }
  return nullptr;
}

void DesignContext::MineAllDependencies(const DependencyMiningConfig& config) {
  for (const auto& u : universes_) MineDependencies(u->fact_name(), config);
}

const DiscoveredDependencies* DesignContext::DependenciesForFact(
    const std::string& fact) const {
  for (size_t i = 0; i < universes_.size(); ++i) {
    if (universes_[i]->fact_name() == fact) return mined_[i].get();
  }
  return nullptr;
}

const Universe* DesignContext::UniverseForFact(const std::string& fact) const {
  for (const auto& u : universes_) {
    if (u->fact_name() == fact) return u.get();
  }
  return nullptr;
}

}  // namespace coradd
