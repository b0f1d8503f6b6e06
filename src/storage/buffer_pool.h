// Buffer pools for the simulated storage layer.
//
// Two pools live here:
//
//  * BufferPool — the original serial LRU simulator. It remains the
//    maintenance experiment's pool (A-3: inserting into a database with more
//    materialized objects dirties more distinct pages, overflowing the pool
//    and forcing random-write evictions) and doubles as the *reference
//    model* the property tests replay SharedBufferPool against.
//
//  * SharedBufferPool — the concurrent, sharded pool the serving engine
//    owns (docs/SERVING.md): N lock-striped shards keyed by PageKey,
//    pin/unpin reference counts, a scan-resistant two-segment eviction
//    policy (new pages enter a probation FIFO sized to ~1/4 of the shard;
//    only a re-reference promotes to the protected LRU segment, so one
//    giant single-touch scan churns the probation window instead of
//    flushing the hot set), and dirty write-back on evict/flush charged to
//    an attached DiskModel. Misses are NOT charged here — the caller bills
//    its own DiskModel for the read (QueryExecutor::ChargeIo), which keeps
//    per-query simulated seconds per-query even though the page state is
//    shared. An exact-LRU policy is available so a single-shard pool can be
//    replayed bit-for-bit against the serial reference model.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/disk_model.h"

namespace coradd {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

/// Identifies a page globally: (object id, page number within the object).
struct PageKey {
  uint32_t object_id;
  uint64_t page_no;

  bool operator==(const PageKey& o) const {
    return object_id == o.object_id && page_no == o.page_no;
  }
};

/// Object-id bit marking secondary-structure (index) pages of an object, so
/// heap and index pages of the same object occupy disjoint key ranges. The
/// maintenance simulator and the pooled executor share this convention.
inline constexpr uint32_t kIndexPageObjectFlag = 0x80000000u;

struct PageKeyHash {
  size_t operator()(const PageKey& k) const {
    // SplitMix64 finalizer over the combined key. The previous
    // `page_no * 1000003 + object_id` was fine for one unordered_map but
    // clusters badly under shard striping (consecutive pages of one object
    // land `1000003 mod num_shards` apart, and small object ids barely
    // perturb the low bits); a full-avalanche mix spreads both fields into
    // every output bit.
    uint64_t x =
        k.page_no ^ (static_cast<uint64_t>(k.object_id) * 0x9E3779B97F4A7C15ULL);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

/// Fixed-capacity serial LRU pool of simulated pages with dirty tracking.
class BufferPool {
 public:
  /// `capacity_pages` must be > 0. `disk` must outlive the pool.
  BufferPool(uint64_t capacity_pages, DiskModel* disk);

  /// Touches a page for reading. Charges a random page read on a miss.
  /// Returns true on a hit.
  bool Read(PageKey key);

  /// Touches a page for writing (marks dirty). Charges a read on a miss
  /// (read-modify-write); the write itself is deferred to eviction/flush.
  /// Returns true on a hit.
  bool Write(PageKey key);

  /// Writes back all dirty pages (sequential-ish checkpoint: charged as
  /// random writes, matching the evict path's pessimism).
  void FlushAll();

  /// Drops every page without writing (the paper discards caches between
  /// queries; reads after this are cold). Dirty state goes with the frames,
  /// so a FlushAll after a drop writes nothing and reuse starts clean; the
  /// cumulative hit/miss/eviction counters stay monotone.
  void DropAll() {
    lru_.clear();
    map_.clear();
  }

  uint64_t capacity_pages() const { return capacity_; }
  uint64_t resident_pages() const { return map_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t dirty_evictions() const { return dirty_evictions_; }

 private:
  struct Frame {
    PageKey key;
    bool dirty;
  };

  /// Moves the frame to MRU position; returns true if present.
  bool Touch(PageKey key, bool dirty);
  void InsertFrame(PageKey key, bool dirty);
  void EvictIfFull();

  uint64_t capacity_;
  DiskModel* disk_;
  std::list<Frame> lru_;  ///< Front = most recently used.
  std::unordered_map<PageKey, std::list<Frame>::iterator, PageKeyHash> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t dirty_evictions_ = 0;
};

/// Eviction policy of a SharedBufferPool.
enum class EvictionPolicy {
  /// Exact LRU — bit-identical touch/evict sequence to the serial
  /// BufferPool when run with one shard (the property-test reference mode).
  kLru,
  /// Scan-resistant two-segment policy (2Q-style probation, the default):
  /// new pages enter a probation FIFO (~1/4 of the shard); a hit while in
  /// probation promotes to the protected LRU segment. While probation is at
  /// its target size, evictions come from the probation tail, so a giant
  /// one-touch scan recycles its own pages and cannot flush the hot set.
  kTwoQ,
};

/// Construction knobs for SharedBufferPool.
struct BufferPoolOptions {
  /// Total pool capacity in pages, split across shards. Must be > 0.
  uint64_t capacity_pages = 0;
  /// Lock-striped shards; 0 = auto (min(8, capacity_pages) — a fixed,
  /// hardware-independent choice so sizing never perturbs determinism).
  size_t num_shards = 0;
  EvictionPolicy policy = EvictionPolicy::kTwoQ;
  /// Prefix for the per-shard obs counters
  /// (`bufferpool.<name>.s<i>.{hits,misses,evictions}`). Metrics are
  /// process-wide and never deleted, so same-named pools share counters.
  std::string name = "shared";
};

/// Counter snapshot of a SharedBufferPool (aggregate or one shard). All
/// counts are monotone except resident/resident_dirty/pinned.
struct BufferPoolStats {
  uint64_t touches = 0;  ///< Read + Write + Pin calls (hits + misses).
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Dirty pages written back (evictions + FlushAll), each charged exactly
  /// once to the attached write-back disk.
  uint64_t dirty_writebacks = 0;
  uint64_t resident = 0;
  uint64_t resident_dirty = 0;
  uint64_t pinned = 0;         ///< Pages with pin count > 0 right now.
  uint64_t pin_high_water = 0; ///< Max concurrently pinned pages (pool-wide).

  double hit_rate() const {
    return touches > 0 ? static_cast<double>(hits) / static_cast<double>(touches)
                       : 0.0;
  }
};

/// Concurrent, sharded buffer pool. Thread-safe: every operation takes only
/// its shard's mutex (plus a dedicated disk mutex on dirty write-back), so
/// touches to different shards never contend. Deterministic in
/// single-threaded use: the hit/miss/evict sequence depends only on the
/// touch sequence and options.
class SharedBufferPool {
 public:
  /// `writeback_disk` (optional) is charged one WritePage per dirty
  /// write-back, under an internal mutex; it must outlive the pool.
  explicit SharedBufferPool(const BufferPoolOptions& options,
                            DiskModel* writeback_disk = nullptr);

  SharedBufferPool(const SharedBufferPool&) = delete;
  SharedBufferPool& operator=(const SharedBufferPool&) = delete;

  /// Touches a page for reading. Returns true on a hit; on a miss the page
  /// becomes resident (possibly evicting) and the CALLER charges its own
  /// DiskModel for the read.
  bool Read(PageKey key);

  /// Touches a page for writing: marks it dirty; the write itself is
  /// deferred to eviction or FlushAll. Returns true on a hit.
  bool Write(PageKey key);

  /// Read + pin in one atomic touch: the page is resident on return and
  /// cannot be evicted until a matching Unpin. Pins nest (a reference
  /// count). Returns true on a hit.
  bool Pin(PageKey key);

  /// Releases one pin. The page must be resident with pin count > 0 —
  /// unpinning a non-pinned page is a caller bug (aborts), which is what
  /// keeps pin counts from ever going negative.
  void Unpin(PageKey key);

  /// Writes back every dirty resident page (charged to the write-back
  /// disk); pages stay resident and clean.
  void FlushAll();

  /// Drops every page without writing and resets dirty/pin accounting, so
  /// reuse after a drop starts clean (a FlushAll right after writes
  /// nothing, pinned_pages() == 0). Monotone counters are kept. The caller
  /// must guarantee no concurrent users hold pins across the drop.
  void DropAll();

  /// Aggregate counters across all shards (each shard locked briefly).
  BufferPoolStats stats() const;
  /// Counters of shard `s` only (pin_high_water is pool-wide).
  BufferPoolStats shard_stats(size_t s) const;

  size_t num_shards() const { return shards_.size(); }
  uint64_t capacity_pages() const { return capacity_; }
  uint64_t resident_pages() const;
  uint64_t pinned_pages() const {
    return static_cast<uint64_t>(pinned_.load(std::memory_order_relaxed));
  }

  /// Shard a key routes to — exposed so tests can check striping balance.
  size_t ShardOf(PageKey key) const {
    return PageKeyHash()(key) % shards_.size();
  }

 private:
  struct Frame {
    PageKey key;
    uint32_t pins = 0;
    bool dirty = false;
    bool probation = false;  ///< Which segment the frame lives in (kTwoQ).
  };
  using FrameList = std::list<Frame>;

  struct Shard {
    mutable std::mutex mu;
    /// Protected segment, front = MRU. Under kLru this is the only list.
    FrameList main;
    /// Probation FIFO, front = newest (kTwoQ only).
    FrameList probation;
    std::unordered_map<PageKey, FrameList::iterator, PageKeyHash> map;
    uint64_t capacity = 0;
    uint64_t probation_target = 0;
    BufferPoolStats counters;  ///< resident/pinned maintained inline.
    obs::Counter* obs_hits = nullptr;
    obs::Counter* obs_misses = nullptr;
    obs::Counter* obs_evictions = nullptr;
  };

  bool Touch(PageKey key, bool dirty, bool pin);
  /// Evicts until shard residency <= capacity or only pinned pages remain
  /// (the pool then runs transiently over capacity). Called under shard.mu.
  void EvictIfNeeded(Shard* shard);
  /// Removes `it` from its segment; charges a write-back if dirty. Called
  /// under shard.mu.
  void EvictFrame(Shard* shard, FrameList::iterator it);
  /// Last unpinned frame of `list` (reverse scan), or end().
  static FrameList::iterator FindVictim(FrameList* list);
  void ChargeWriteback(Shard* shard);
  void NotePin(Shard* shard);
  void NoteUnpin(Shard* shard);

  uint64_t capacity_;
  EvictionPolicy policy_;
  DiskModel* writeback_disk_;
  std::mutex disk_mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> pinned_{0};
  std::atomic<int64_t> pin_hwm_{0};
  // Process-wide aggregate obs counters (shared by every pool) plus the
  // per-pool pinned gauge; per-shard counters live on the Shard.
  obs::Counter* obs_touches_ = nullptr;
  obs::Counter* obs_hits_ = nullptr;
  obs::Counter* obs_misses_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
  obs::Counter* obs_dirty_writebacks_ = nullptr;
  obs::Gauge* obs_pinned_ = nullptr;
};

}  // namespace coradd
