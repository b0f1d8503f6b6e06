// The workloads of bench_coradd. Each one designs a database with CORADD
// and then serves queries on the design CORADD chose, so every end-to-end
// metric exists on every workload; the two differ in the layers they load.
// README.md gives the sizes and the reasons for each setting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "fixture.h"

namespace coradd::bench_coradd {

struct WorkloadSpec {
  const char* name;
  SchemaKind schema;
  double scale;
  /// Run the dependency miner before designing.
  bool mine;
  /// Shared buffer pool capacity as a share of the served working set;
  /// 0 = pool off (cold per-query billing).
  double pool_fraction;
  /// Closed-loop client threads; 0 = one open-loop generator at rate_qps.
  size_t clients;
  double rate_qps;
  /// Zipf exponent of the query mix; 0 = uniform.
  double zipf_s;
  /// Rows per maintenance insert batch; one batch runs every 100 ms.
  uint64_t inserts_per_batch;
};

inline constexpr WorkloadSpec kWorkloads[] = {
    // Candidate generation and the node-capped solver dominate design;
    // nothing is mined. Serving goes through the shared pool (25% of the
    // working set) under a skewed closed loop, where shared scans and
    // lookalike dedup have repeats to exploit. The write batches are small
    // so that writes dirty a fraction of the pool per epoch, not all of it.
    {"ssb_pool_zipf", SchemaKind::kSsb, 0.05, /*mine=*/false,
     /*pool_fraction=*/0.25, /*clients=*/3, /*rate_qps=*/0.0,
     /*zipf_s=*/1.2, /*inserts_per_batch=*/500},
    // Mining is about a third of design and two fact tables give the solver
    // SOS1 groups. Serving bypasses the pool: an open loop at a fixed rate
    // of uniformly mixed queries, timed from each request's due time. The
    // rate keeps the engine about a fifth busy: at a third busy the median
    // moved twice as much from run to run, and at half busy queueing
    // amplified slowdowns of the host into swings of the tail.
    {"apb_mined_open", SchemaKind::kApb, 0.02, /*mine=*/true,
     /*pool_fraction=*/0.0, /*clients=*/0, /*rate_qps=*/250.0,
     /*zipf_s=*/0.0, /*inserts_per_batch=*/5000},
};

inline const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace coradd::bench_coradd
