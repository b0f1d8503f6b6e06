// The buffer pool of the simulated storage layer.
//
// SharedBufferPool is the one page cache: N lock-striped shards keyed by
// PageKey, each running one of two eviction policies, with dirty tracking.
// It models residency only and prices no I/O; callers bill. Every
// Read/Write reports whether it hit and how many dirty pages it wrote back
// to make room, and FlushAll reports how many pages it wrote, so each
// caller prices exactly the I/O its own touches caused on its own disk:
//
//  * Insert maintenance (exec/maintenance.h, A-3 / Figure 14) owns a
//    single-shard exact-LRU pool and bills each miss as a random page read,
//    then the write-backs the touch reported.
//  * The serving engine (docs/SERVING.md) owns a sharded pool with the
//    scan-resistant two-segment policy (new pages enter a probation FIFO
//    sized to ~1/4 of the shard; only a re-reference promotes to the
//    protected LRU segment, so one giant single-touch scan churns the
//    probation window instead of flushing the hot set). Each query bills
//    its own misses (QueryExecutor::ChargeIo), which keeps per-query
//    simulated seconds per-query even though the page state is shared;
//    write-backs are counted in stats() and billed to no query.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace coradd {

namespace obs {
class Counter;
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

/// Eviction policy of a SharedBufferPool.
enum class EvictionPolicy {
  /// Exact LRU — the maintenance pool (one shard), and the policy the
  /// property tests replay against a reference model.
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

/// What one Read/Write did: whether the page was resident, and how many
/// dirty pages were written back to make room for it. The caller bills a
/// miss as a page read and each write-back as a page write, in that order.
struct PageTouch {
  bool hit = false;
  uint64_t writebacks = 0;
};

/// Counter snapshot of a SharedBufferPool (aggregate or one shard). All
/// counts are monotone except resident/resident_dirty.
struct BufferPoolStats {
  uint64_t touches = 0;  ///< Read + Write calls (hits + misses).
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Dirty pages written back (evictions + FlushAll), each reported exactly
  /// once to the touch or flush that wrote it.
  uint64_t dirty_writebacks = 0;
  uint64_t resident = 0;
  uint64_t resident_dirty = 0;

  double hit_rate() const {
    return touches > 0 ? static_cast<double>(hits) / static_cast<double>(touches)
                       : 0.0;
  }
};

/// Concurrent, sharded buffer pool. Thread-safe: every operation takes only
/// its shard's mutex, so touches to different shards never contend.
/// Deterministic in single-threaded use: the hit/miss/evict sequence depends
/// only on the touch sequence and options.
class SharedBufferPool {
 public:
  explicit SharedBufferPool(const BufferPoolOptions& options);

  SharedBufferPool(const SharedBufferPool&) = delete;
  SharedBufferPool& operator=(const SharedBufferPool&) = delete;

  /// Touches a page for reading. On a miss the page becomes resident,
  /// possibly evicting (and writing back) another.
  PageTouch Read(PageKey key);

  /// Touches a page for writing: marks it dirty; the write itself is
  /// deferred to eviction or FlushAll.
  PageTouch Write(PageKey key);

  /// Writes back every dirty resident page and returns how many; pages
  /// stay resident and clean.
  uint64_t FlushAll();

  /// Aggregate counters across all shards (each shard locked briefly).
  BufferPoolStats stats() const;
  /// Counters of shard `s` only.
  BufferPoolStats shard_stats(size_t s) const;

  size_t num_shards() const { return shards_.size(); }
  uint64_t capacity_pages() const { return capacity_; }

  /// Shard a key routes to — exposed so tests can check striping balance.
  size_t ShardOf(PageKey key) const {
    return PageKeyHash()(key) % shards_.size();
  }

 private:
  struct Frame {
    PageKey key;
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
    BufferPoolStats counters;  ///< resident/resident_dirty maintained inline.
    obs::Counter* obs_hits = nullptr;
    obs::Counter* obs_misses = nullptr;
    obs::Counter* obs_evictions = nullptr;
  };

  PageTouch Touch(PageKey key, bool dirty);
  /// Evicts the policy's victim from a shard one page over capacity;
  /// returns 1 if it was dirty (written back), else 0. Called under
  /// shard.mu.
  uint64_t EvictOne(Shard* shard);

  uint64_t capacity_;
  EvictionPolicy policy_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Process-wide aggregate obs counters (shared by every pool); per-shard
  // counters live on the Shard.
  obs::Counter* obs_touches_ = nullptr;
  obs::Counter* obs_hits_ = nullptr;
  obs::Counter* obs_misses_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
  obs::Counter* obs_dirty_writebacks_ = nullptr;
};

}  // namespace coradd
