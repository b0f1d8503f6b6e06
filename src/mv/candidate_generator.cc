#include "mv/candidate_generator.h"

#include <chrono>

#include "common/string_util.h"
#include "mv/fk_clustering.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace coradd {

void CandGenStats::Accumulate(const CandGenStats& other) {
  trials_priced += other.trials_priced;
  trials_pruned += other.trials_pruned;
  groups_designed += other.groups_designed;
  wall_seconds += other.wall_seconds;
}

std::string CandGenStats::ToString() const {
  return StrFormat(
      "CandGenStats{priced=%llu, pruned=%llu, groups=%llu, wall=%.3fs}",
      static_cast<unsigned long long>(trials_priced),
      static_cast<unsigned long long>(trials_pruned),
      static_cast<unsigned long long>(groups_designed), wall_seconds);
}

MvCandidateGenerator::MvCandidateGenerator(const Catalog* catalog,
                                           const StatsRegistry* registry,
                                           const CostModel* model,
                                           CandidateGeneratorOptions options)
    : catalog_(catalog),
      registry_(registry),
      model_(model),
      options_(std::move(options)) {
  CORADD_CHECK(catalog != nullptr);
  CORADD_CHECK(registry != nullptr);
  CORADD_CHECK(model != nullptr);
  if (options_.merging.pool == nullptr) options_.merging.pool = options_.pool;
  index_designer_ = std::make_unique<ClusteredIndexDesigner>(
      registry_, model_, options_.merging);
}

CandGenStats MvCandidateGenerator::stats() const {
  CandGenStats out;
  out.trials_priced = index_designer_->trials_priced();
  out.trials_pruned = index_designer_->trials_pruned();
  out.groups_designed = groups_designed_.load(std::memory_order_relaxed);
  out.wall_seconds =
      1e-9 * static_cast<double>(generate_ns_.load(std::memory_order_relaxed));
  return out;
}

std::vector<MvSpec> MvCandidateGenerator::DesignForGroup(
    const Workload& workload, const QueryGroup& group,
    const std::string& fact_table, int t_override) const {
  groups_designed_.fetch_add(1, std::memory_order_relaxed);
  return index_designer_->DesignGroup(workload, group, fact_table,
                                      t_override);
}

CandidateSet MvCandidateGenerator::Generate(const Workload& workload) const {
  const auto t0 = std::chrono::steady_clock::now();
  CandidateSet out;
  TRACE_SPAN_NAMED(
      gen_span, "candgen.generate",
      {{"queries", static_cast<int64_t>(workload.queries.size())}});
  static obs::Counter& groups_total = *obs::MetricsRegistry::Global()
                                           .GetCounter(
                                               "candgen.groups_designed");
  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : ThreadPool::Shared();
  for (const auto& fact : workload.FactTables()) {
    const UniverseStats* stats = registry_->ForFact(fact);
    CORADD_CHECK(stats != nullptr);
    const FactTableInfo* info = catalog_->GetFactInfo(fact);
    CORADD_CHECK(info != nullptr);

    // Queries on this fact table.
    std::vector<int> fact_queries;
    for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
      if (workload.queries[qi].fact_table == fact) {
        fact_queries.push_back(static_cast<int>(qi));
      }
    }
    if (fact_queries.empty()) continue;

    // §4.1: candidate query groups.
    QueryGrouper grouper(stats, options_.grouping);
    std::vector<QueryGroup> groups = grouper.Groups(workload, fact_queries);

    // §4.2: t clusterings per group. Groups are independent, so their
    // designs fan out across the pool; per-group results land in their own
    // slot and merge back in group order — bit-identical to the serial
    // loop at any thread count.
    std::vector<std::vector<MvSpec>> per_group(groups.size());
    pool.ParallelFor(groups.size(), [&](size_t g) {
      per_group[g] =
          index_designer_->DesignGroup(workload, groups[g], fact);
    });
    groups_designed_.fetch_add(groups.size(), std::memory_order_relaxed);
    groups_total.Add(groups.size());
    for (auto& specs : per_group) {
      for (auto& spec : specs) out.mvs.push_back(std::move(spec));
    }
    out.groups.insert(out.groups.end(), groups.begin(), groups.end());

    // §4.3: fact-table re-clustering candidates (and the base design).
    for (auto& spec : FkReclusterCandidates(*info, *stats, workload)) {
      out.mvs.push_back(std::move(spec));
    }
  }
  gen_span.Arg("mvs", static_cast<int64_t>(out.mvs.size()));
  generate_ns_.fetch_add(
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count()),
      std::memory_order_relaxed);
  return out;
}

}  // namespace coradd
