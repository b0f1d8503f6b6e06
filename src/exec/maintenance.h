// Maintenance-cost simulation (A-3, Figure 14): inserting tuples into a
// database with additional materialized objects dirties more distinct
// pages; once the working set overflows the buffer pool, each insert
// triggers dirty-page evictions and random writes, so maintenance cost
// grows super-linearly with the total size of materialized objects.
//
// The simulator owns a single-shard exact-LRU SharedBufferPool (the same
// pool class the serving engine uses) and bills its own DiskModel from what
// each touch reports: a miss is a random page read (seek + one page), then
// every dirty page the touch wrote back is a random page write; Flush bills
// one page write per page FlushAll wrote.
//
// The stateful InsertionSimulator applies inserts in increments, so the
// serving engine (src/serving/) can interleave maintenance batches with
// reads while the buffer pool and RNG persist across batches. Applying the
// same total insert count in any batch split touches the identical page
// sequence — SimulateInsertions(n) == ApplyInserts(a) + ApplyInserts(n - a)
// + Flush() for every split, which keeps bench_fig14's isolated numbers and
// the serving engine's live numbers mutually calibrated.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/disk_model.h"

namespace coradd {

/// A maintained object, abstracted to what the simulation needs: its page
/// count (insert position is random within it, because MV clustered keys
/// are unrelated to arrival order) plus its secondary-structure pages.
struct MaintainedObject {
  uint64_t heap_pages = 0;
  uint64_t index_pages = 0;
  /// True for the base table: inserts append (sequential tail page) rather
  /// than landing at a random clustered position.
  bool append_only = false;
};

/// Parameters of the insert experiment.
struct MaintenanceOptions {
  uint64_t num_inserts = 500000;   ///< The paper inserts 500k tuples.
  uint64_t buffer_pool_pages = 0;  ///< Required: the 4 GB-RAM equivalent.
  uint64_t seed = 11;
  DiskParams disk;
};

/// Result counters.
struct MaintenanceResult {
  double seconds = 0.0;
  uint64_t dirty_evictions = 0;
  uint64_t pool_misses = 0;
  uint64_t pages_written = 0;
};

/// Incremental insert-maintenance simulation: buffer pool, disk, and RNG
/// live across ApplyInserts calls. Not thread-safe — the serving engine
/// serializes maintenance under its writer epoch.
class InsertionSimulator {
 public:
  /// `options.num_inserts` is ignored here; callers drive the count through
  /// ApplyInserts.
  InsertionSimulator(std::vector<MaintainedObject> objects,
                     const MaintenanceOptions& options);

  /// Applies `count` single-row inserts, each dirtying one heap page and
  /// one index leaf page per maintained object.
  void ApplyInserts(uint64_t count);

  /// Mirrors every dirtied PageKey into `pool` (nullptr to detach) without
  /// touching the simulator's own pool, disk, or RNG, and bills nothing
  /// for the mirror's touches — the isolated-cost contract
  /// (SimulateInsertions == interleaved ApplyInserts + Flush, ratio exactly
  /// 1.000) is preserved bit-for-bit. The serving engine uses this so
  /// writer epochs invalidate/dirty the shared page pool the concurrent
  /// scans read through.
  void SetMirrorPool(SharedBufferPool* pool) { mirror_ = pool; }

  /// Writes back every dirty page still resident (end-of-experiment cost).
  void Flush();

  /// Counters accumulated so far (monotone; call after Flush for the full
  /// Figure 14 cost).
  MaintenanceResult Totals() const;

  uint64_t inserts_applied() const { return inserts_applied_; }

 private:
  /// Dirties `key` in the simulator's pool (billing the miss, then the
  /// write-backs) and in the mirror.
  void DirtyPage(PageKey key);

  std::vector<MaintainedObject> objects_;
  DiskModel disk_;
  SharedBufferPool pool_;
  Rng rng_;
  SharedBufferPool* mirror_ = nullptr;
  uint64_t inserts_applied_ = 0;
  uint64_t dirty_evictions_ = 0;
};

/// Simulates `options.num_inserts` single-row inserts maintained across
/// `objects` in one shot (Figure 14). Equivalent to InsertionSimulator +
/// ApplyInserts(num_inserts) + Flush.
MaintenanceResult SimulateInsertions(const std::vector<MaintainedObject>& objects,
                                     const MaintenanceOptions& options);

}  // namespace coradd
