// Tests for the sharded buffer pool (storage/buffer_pool.h): property tests
// replaying SharedBufferPool against a serial LRU reference model that lives
// in this file, scan resistance of the two-segment policy, accounting
// invariants (every write-back reported exactly once), capacity edges, and
// an 8-thread mixed stress hammer.
//
// Naming convention: cheap deterministic cases are `BufferPoolTest.*` (smoke
// label); the multi-threaded hammer lives in `BufferPoolStressTest.*` so the
// smoke filter can exclude it while the full suite and the TSan CI job run it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <list>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "storage/buffer_pool.h"

namespace coradd {
namespace {

/// Serial exact-LRU pool with dirty tracking, written as plainly as
/// possible: the reference model SharedBufferPool{kLru, 1 shard} must
/// replay touch for touch. Unlike the pool, it evicts before admitting.
class ReferenceLru {
 public:
  explicit ReferenceLru(uint64_t capacity) : capacity_(capacity) {}

  PageTouch Touch(PageKey key, bool dirty) {
    PageTouch out;
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->dirty = it->second->dirty || dirty;
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      out.hit = true;
      return out;
    }
    ++misses_;
    if (map_.size() == capacity_) {
      out.writebacks = lru_.back().dirty ? 1 : 0;
      map_.erase(lru_.back().key);
      lru_.pop_back();
    }
    lru_.push_front(Frame{key, dirty});
    map_[key] = lru_.begin();
    return out;
  }

  uint64_t FlushAll() {
    uint64_t written = 0;
    for (Frame& f : lru_) {
      if (f.dirty) ++written;
      f.dirty = false;
    }
    return written;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t resident() const { return map_.size(); }

 private:
  struct Frame {
    PageKey key;
    bool dirty;
  };
  uint64_t capacity_;
  std::list<Frame> lru_;  ///< Front = most recently used.
  std::unordered_map<PageKey, std::list<Frame>::iterator, PageKeyHash> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// ---------- PageKeyHash / striping ----------

TEST(BufferPoolTest, HashSpreadsConsecutivePagesAcrossShards) {
  BufferPoolOptions opt;
  opt.capacity_pages = 64;
  opt.num_shards = 8;
  SharedBufferPool pool(opt);
  ASSERT_EQ(pool.num_shards(), 8u);

  // Consecutive pages of one object — the dominant access pattern (scans) —
  // must stripe near-uniformly. The old `page_no * 1000003 + object_id` hash
  // sent consecutive pages to shards `1000003 mod 8 = 3` apart (period-8
  // cycling through a fixed residue pattern) and small object ids barely
  // moved the low bits.
  constexpr uint64_t kPages = 8000;
  std::vector<uint64_t> per_shard(8, 0);
  for (uint64_t p = 0; p < kPages; ++p) {
    ++per_shard[pool.ShardOf(PageKey{1, p})];
  }
  for (size_t s = 0; s < 8; ++s) {
    EXPECT_GT(per_shard[s], kPages / 8 - 300) << "shard " << s;
    EXPECT_LT(per_shard[s], kPages / 8 + 300) << "shard " << s;
  }

  // Object id must perturb the hash: same page number, different objects.
  const PageKeyHash h;
  EXPECT_NE(h(PageKey{1, 0}), h(PageKey{2, 0}));
  EXPECT_NE(h(PageKey{1, 7}), h(PageKey{1 | kIndexPageObjectFlag, 7}));
}

// ---------- Property: single-shard kLru replays the serial reference ----------

TEST(BufferPoolTest, SingleShardLruMatchesSerialReferenceModel) {
  // Random mixed read/write sequence over a key space 4x the capacity.
  // Per-touch hit/miss and write-back count must agree with the reference
  // model, and so must the final counters and what FlushAll writes.
  constexpr uint64_t kCapacity = 32;
  constexpr int kOps = 20000;

  ReferenceLru ref(kCapacity);
  BufferPoolOptions opt;
  opt.capacity_pages = kCapacity;
  opt.num_shards = 1;
  opt.policy = EvictionPolicy::kLru;
  opt.name = "lru_ref";
  SharedBufferPool pool(opt);

  Rng rng(42);
  uint64_t reported = 0;
  for (int i = 0; i < kOps; ++i) {
    const PageKey key{static_cast<uint32_t>(1 + rng.Uniform(3)),
                      rng.Uniform(4 * kCapacity)};
    const bool dirty = rng.Bernoulli(0.3);
    const PageTouch want = ref.Touch(key, dirty);
    const PageTouch got = dirty ? pool.Write(key) : pool.Read(key);
    EXPECT_EQ(got.hit, want.hit) << "op " << i;
    EXPECT_EQ(got.writebacks, want.writebacks) << "op " << i;
    reported += got.writebacks;
  }

  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits, ref.hits());
  EXPECT_EQ(s.misses, ref.misses());
  EXPECT_EQ(s.touches, s.hits + s.misses);
  EXPECT_EQ(s.resident, ref.resident());
  EXPECT_EQ(s.resident, kCapacity);
  EXPECT_EQ(s.dirty_writebacks, reported);

  // Same victims in the same order implies the same dirty pages remain.
  const uint64_t flushed = pool.FlushAll();
  EXPECT_EQ(flushed, ref.FlushAll());
  EXPECT_EQ(pool.stats().dirty_writebacks, reported + flushed);
  // Flushed pages stay resident and clean: a second flush writes nothing.
  EXPECT_EQ(pool.FlushAll(), 0u);
  EXPECT_EQ(pool.stats().resident, kCapacity);
}

// ---------- Scan resistance (kTwoQ) ----------

TEST(BufferPoolTest, TwoQHotSetSurvivesGiantScanLruDoesNot) {
  constexpr uint64_t kCapacity = 64;
  constexpr uint64_t kHot = 8;
  const auto run = [](EvictionPolicy policy) {
    BufferPoolOptions opt;
    opt.capacity_pages = kCapacity;
    opt.num_shards = 1;
    opt.policy = policy;
    SharedBufferPool pool(opt);
    // Warm the hot set: first touch admits, second touch promotes it into
    // the protected segment (kTwoQ) / refreshes recency (kLru).
    for (int round = 0; round < 2; ++round) {
      for (uint64_t p = 0; p < kHot; ++p) pool.Read(PageKey{1, p});
    }
    // One giant single-touch scan of a different object.
    for (uint64_t p = 0; p < 10000; ++p) pool.Read(PageKey{2, p});
    // Re-touch the hot set and count hits.
    uint64_t hits = 0;
    for (uint64_t p = 0; p < kHot; ++p) {
      if (pool.Read(PageKey{1, p}).hit) ++hits;
    }
    return hits;
  };
  // The probation FIFO recycles the scan's own pages; the protected segment
  // is untouched. Exact LRU flushes everything.
  EXPECT_EQ(run(EvictionPolicy::kTwoQ), kHot);
  EXPECT_EQ(run(EvictionPolicy::kLru), 0u);
}

// ---------- Capacity edges ----------

TEST(BufferPoolTest, CapacityOneAlternatingKeysAlwaysMisses) {
  BufferPoolOptions opt;
  opt.capacity_pages = 1;
  opt.policy = EvictionPolicy::kTwoQ;
  SharedBufferPool pool(opt);
  ASSERT_EQ(pool.num_shards(), 1u);  // auto = min(8, capacity).

  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(pool.Read(PageKey{1, 0}).hit);
    EXPECT_FALSE(pool.Read(PageKey{1, 1}).hit);
  }
  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 20u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.evictions, 19u);
  EXPECT_EQ(s.resident, 1u);
  // Re-reading the resident page is a hit even at capacity 1.
  EXPECT_TRUE(pool.Read(PageKey{1, 1}).hit);
}

TEST(BufferPoolTest, ShardCountClampedToCapacity) {
  BufferPoolOptions opt;
  opt.capacity_pages = 3;
  opt.num_shards = 16;  // More shards than pages would leave empty shards.
  SharedBufferPool pool(opt);
  EXPECT_EQ(pool.num_shards(), 3u);
  EXPECT_EQ(pool.capacity_pages(), 3u);
}

// ---------- Accounting invariants ----------

TEST(BufferPoolTest, AccountingInvariantsUnderRandomMix) {
  BufferPoolOptions opt;
  opt.capacity_pages = 48;
  opt.num_shards = 4;
  SharedBufferPool pool(opt);

  Rng rng(7);
  uint64_t ops = 0;
  uint64_t reported = 0;
  for (int i = 0; i < 30000; ++i, ++ops) {
    const PageKey key{static_cast<uint32_t>(1 + rng.Uniform(2)),
                      rng.Uniform(256)};
    const PageTouch t =
        rng.UniformDouble() < 0.25 ? pool.Write(key) : pool.Read(key);
    reported += t.writebacks;
  }

  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.touches, ops);
  EXPECT_EQ(s.hits + s.misses, s.touches);
  EXPECT_EQ(s.resident, s.misses - s.evictions);
  EXPECT_LE(s.resident, pool.capacity_pages());
  EXPECT_LE(s.resident_dirty, s.resident);

  // The aggregate is exactly the sum of the shards.
  BufferPoolStats sum;
  for (size_t i = 0; i < pool.num_shards(); ++i) {
    const BufferPoolStats ss = pool.shard_stats(i);
    sum.touches += ss.touches;
    sum.hits += ss.hits;
    sum.misses += ss.misses;
    sum.evictions += ss.evictions;
    sum.dirty_writebacks += ss.dirty_writebacks;
    sum.resident += ss.resident;
  }
  EXPECT_EQ(sum.touches, s.touches);
  EXPECT_EQ(sum.hits, s.hits);
  EXPECT_EQ(sum.misses, s.misses);
  EXPECT_EQ(sum.evictions, s.evictions);
  EXPECT_EQ(sum.dirty_writebacks, s.dirty_writebacks);
  EXPECT_EQ(sum.resident, s.resident);

  // Exactly-once write-back: the touches reported every write-back the
  // pool counted, and FlushAll reports the rest.
  EXPECT_EQ(reported, s.dirty_writebacks);
  const uint64_t flushed = pool.FlushAll();
  EXPECT_EQ(flushed, s.resident_dirty);
  const BufferPoolStats f = pool.stats();
  EXPECT_EQ(f.resident_dirty, 0u);
  EXPECT_EQ(reported + flushed, f.dirty_writebacks);
}

// ---------- 8-thread mixed stress ----------

TEST(BufferPoolStressTest, EightThreadMixedHammerKeepsInvariants) {
  BufferPoolOptions opt;
  opt.capacity_pages = 256;
  opt.num_shards = 8;
  opt.name = "stress";
  SharedBufferPool pool(opt);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  std::atomic<uint64_t> reported{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &reported, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      uint64_t mine = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const PageKey key{static_cast<uint32_t>(1 + rng.Uniform(4)),
                          rng.Uniform(1024)};
        const PageTouch touch =
            rng.UniformDouble() < 0.30 ? pool.Write(key) : pool.Read(key);
        mine += touch.writebacks;
      }
      reported.fetch_add(mine);
    });
  }
  for (std::thread& th : threads) th.join();

  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.touches, static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(s.hits + s.misses, s.touches);
  EXPECT_EQ(s.resident, s.misses - s.evictions);
  EXPECT_LE(s.resident, pool.capacity_pages());

  // Exactly-once dirty write-back under concurrency: no lost and no double
  // reports — the write-backs the touches reported, plus what the final
  // FlushAll reports, add up to the pool's count.
  EXPECT_EQ(reported.load(), s.dirty_writebacks);
  const uint64_t flushed = pool.FlushAll();
  const BufferPoolStats f = pool.stats();
  EXPECT_EQ(f.resident_dirty, 0u);
  EXPECT_EQ(reported.load() + flushed, f.dirty_writebacks);
}

}  // namespace
}  // namespace coradd
