// The MV Candidate Generator (§4, Fig 1): query grouping -> clustered index
// design -> fact-table re-clustering candidates, producing the MvSpec pool
// the ILP selects from.
//
// Group design is embarrassingly parallel: every query group's clustered
// indexes are designed independently on the thread pool and merged back in
// group order, so the generated CandidateSet is bit-identical at any thread
// count (the PR 3/PR 4 determinism contract; tests/candgen_test.cc).
//
// Generate() keeps no cache: every call generates. Designers call it once
// per DesignMany and share the set across their budget grid.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/thread_pool.h"
#include "mv/index_merging.h"
#include "mv/query_grouping.h"

namespace coradd {

/// Knobs for candidate generation.
struct CandidateGeneratorOptions {
  QueryGroupingOptions grouping;
  IndexMergingOptions merging;
  /// Pool group design fans out on; nullptr = ThreadPool::Shared(). Also
  /// seeds merging.pool when that is unset.
  ThreadPool* pool = nullptr;
};

/// The generated candidate pool.
struct CandidateSet {
  std::vector<MvSpec> mvs;
  /// The deduplicated query groups candidates were generated from (per fact
  /// table, flattened) — reused by ILP feedback.
  std::vector<QueryGroup> groups;
};

/// Counters describing candidate-generation work, accumulated across
/// generation passes (bench `candgen` JSON segment).
struct CandGenStats {
  uint64_t trials_priced = 0;    ///< trial clusterings fully priced
  uint64_t trials_pruned = 0;    ///< trials skipped by the pruning bound
  uint64_t groups_designed = 0;  ///< DesignGroup invocations
  double wall_seconds = 0.0;     ///< wall time spent generating

  void Accumulate(const CandGenStats& other);
  std::string ToString() const;
};

/// Produces the initial candidate pool for a workload.
class MvCandidateGenerator {
 public:
  MvCandidateGenerator(const Catalog* catalog, const StatsRegistry* registry,
                       const CostModel* model,
                       CandidateGeneratorOptions options = {});

  /// Full §4 pipeline over every fact table the workload touches.
  CandidateSet Generate(const Workload& workload) const;

  /// Designs candidates for one explicit group (used by ILP feedback to
  /// expand/shrink groups and recluster with a larger t).
  std::vector<MvSpec> DesignForGroup(const Workload& workload,
                                     const QueryGroup& group,
                                     const std::string& fact_table,
                                     int t_override = 0) const;

  const CandidateGeneratorOptions& options() const { return options_; }

  /// Generation-work counters since construction: trials priced/pruned,
  /// groups designed, and the wall time of Generate() calls.
  CandGenStats stats() const;

 private:
  const Catalog* catalog_;
  const StatsRegistry* registry_;
  const CostModel* model_;
  CandidateGeneratorOptions options_;
  std::unique_ptr<ClusteredIndexDesigner> index_designer_;
  mutable std::atomic<uint64_t> groups_designed_{0};
  mutable std::atomic<uint64_t> generate_ns_{0};
};

}  // namespace coradd
