// Tests for src/storage: page-layout arithmetic, B+Tree shape, fragment
// coalescing, the buffer pool in its maintenance configuration, and the
// seek/scan disk model.
#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "storage/clustered_table.h"
#include "storage/disk_model.h"
#include "storage/layout.h"
#include "storage/secondary_index.h"

namespace coradd {
namespace {

ColumnDef Int(const std::string& name, uint32_t bytes = 4) {
  ColumnDef c;
  c.name = name;
  c.byte_size = bytes;
  return c;
}

// ---------- HeapLayout ----------

TEST(HeapLayoutTest, RowsPerPageAndPages) {
  HeapLayout l{1000, 100, 8192};
  EXPECT_EQ(l.RowsPerPage(), 81u);
  EXPECT_EQ(l.NumPages(), 13u);  // ceil(1000/81)
  EXPECT_EQ(l.PageOfRow(0), 0u);
  EXPECT_EQ(l.PageOfRow(80), 0u);
  EXPECT_EQ(l.PageOfRow(81), 1u);
  EXPECT_EQ(l.SizeBytes(), 13u * 8192);
}

TEST(HeapLayoutTest, WideRowStillFitsOnePerPage) {
  HeapLayout l{10, 20000, 8192};
  EXPECT_EQ(l.RowsPerPage(), 1u);
  EXPECT_EQ(l.NumPages(), 10u);
}

TEST(HeapLayoutTest, EmptyTable) {
  HeapLayout l{0, 100, 8192};
  EXPECT_EQ(l.NumPages(), 0u);
}

// ---------- BTreeShape ----------

TEST(BTreeShapeTest, SmallTreeIsOneLevel) {
  const BTreeShape s = ComputeBTreeShape(10, 12, 4);
  EXPECT_EQ(s.leaf_pages, 1u);
  EXPECT_EQ(s.internal_pages, 0u);
  EXPECT_EQ(s.height, 1u);
}

TEST(BTreeShapeTest, HeightGrowsLogarithmically) {
  const BTreeShape small = ComputeBTreeShape(10000, 12, 4);
  const BTreeShape big = ComputeBTreeShape(100000000, 12, 4);
  EXPECT_GT(big.height, small.height);
  EXPECT_LE(big.height, 5u);  // high fanout keeps trees shallow
}

TEST(BTreeShapeTest, InternalPagesMuchSmallerThanLeaves) {
  const BTreeShape s = ComputeBTreeShape(10000000, 12, 4);
  EXPECT_GT(s.leaf_pages, 0u);
  EXPECT_LT(s.internal_pages, s.leaf_pages / 50);
}

TEST(BTreeShapeTest, ZeroEntries) {
  const BTreeShape s = ComputeBTreeShape(0, 12, 4);
  EXPECT_EQ(s.leaf_pages, 1u);
  EXPECT_EQ(s.height, 1u);
}

// ---------- CoalescePages ----------

TEST(CoalescePagesTest, MergesAdjacent) {
  const auto runs = CoalescePages({1, 2, 3, 10, 11, 30}, 0);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].first_page, 1u);
  EXPECT_EQ(runs[0].last_page, 3u);
  EXPECT_EQ(runs[1].NumPages(), 2u);
  EXPECT_EQ(runs[2].first_page, 30u);
}

TEST(CoalescePagesTest, GapToleranceMerges) {
  const auto runs = CoalescePages({1, 4, 7}, 2);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].first_page, 1u);
  EXPECT_EQ(runs[0].last_page, 7u);
}

TEST(CoalescePagesTest, DuplicatesIgnored) {
  const auto runs = CoalescePages({5, 5, 5, 6}, 0);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].NumPages(), 2u);
}

TEST(CoalescePagesTest, Empty) {
  EXPECT_TRUE(CoalescePages({}, 4).empty());
}

// ---------- DiskModel ----------

TEST(DiskModelTest, SeekAndReadAccounting) {
  DiskParams params;
  DiskModel d(params);
  d.Seek();
  d.SequentialRead(100);
  EXPECT_EQ(d.seeks(), 1u);
  EXPECT_EQ(d.pages_read(), 100u);
  EXPECT_NEAR(d.elapsed_seconds(),
              params.seek_seconds + 100 * params.PageReadSeconds(), 1e-12);
}

TEST(DiskModelTest, WriteIncludesSeek) {
  DiskModel d;
  d.WritePage();
  EXPECT_EQ(d.pages_written(), 1u);
  EXPECT_EQ(d.seeks(), 1u);
}

TEST(DiskModelTest, SeeksDominateScatteredAccess) {
  DiskParams params;
  DiskModel scattered(params), sequential(params);
  for (int i = 0; i < 1000; ++i) {
    scattered.Seek();
    scattered.SequentialRead(1);
  }
  sequential.Seek();
  sequential.SequentialRead(1000);
  EXPECT_GT(scattered.elapsed_seconds(), 10 * sequential.elapsed_seconds());
}

TEST(DiskModelTest, Reset) {
  DiskModel d;
  d.Seek();
  d.Reset();
  EXPECT_EQ(d.seeks(), 0u);
  EXPECT_EQ(d.elapsed_seconds(), 0.0);
}

// ---------- SharedBufferPool, maintenance configuration ----------

/// The pool insert maintenance runs on: one shard, exact LRU.
BufferPoolOptions Lru(uint64_t capacity_pages) {
  BufferPoolOptions opt;
  opt.capacity_pages = capacity_pages;
  opt.num_shards = 1;
  opt.policy = EvictionPolicy::kLru;
  return opt;
}

TEST(BufferPoolTest, HitsAndMisses) {
  SharedBufferPool pool(Lru(4));
  EXPECT_FALSE(pool.Read({1, 0}).hit);
  EXPECT_TRUE(pool.Read({1, 0}).hit);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, LruEviction) {
  SharedBufferPool pool(Lru(2));
  pool.Read({1, 0});
  pool.Read({1, 1});
  pool.Read({1, 2});                     // evicts page 0
  EXPECT_FALSE(pool.Read({1, 0}).hit);  // miss again
  EXPECT_TRUE(pool.Read({1, 2}).hit);
}

TEST(BufferPoolTest, TouchRefreshesLruOrder) {
  SharedBufferPool pool(Lru(2));
  pool.Read({1, 0});
  pool.Read({1, 1});
  pool.Read({1, 0});  // page 0 now MRU
  pool.Read({1, 2});  // evicts page 1
  EXPECT_TRUE(pool.Read({1, 0}).hit);
  EXPECT_FALSE(pool.Read({1, 1}).hit);
}

TEST(BufferPoolTest, DirtyEvictionWrites) {
  SharedBufferPool pool(Lru(2));
  EXPECT_EQ(pool.Write({1, 0}).writebacks, 0u);
  EXPECT_EQ(pool.Write({1, 1}).writebacks, 0u);
  EXPECT_EQ(pool.Read({1, 2}).writebacks, 1u);  // evicts dirty page 0
  EXPECT_EQ(pool.stats().dirty_writebacks, 1u);
}

TEST(BufferPoolTest, CleanEvictionDoesNotWrite) {
  SharedBufferPool pool(Lru(2));
  pool.Read({1, 0});
  pool.Read({1, 1});
  EXPECT_EQ(pool.Read({1, 2}).writebacks, 0u);
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_EQ(pool.stats().dirty_writebacks, 0u);
}

TEST(BufferPoolTest, FlushAllWritesDirtyOnce) {
  SharedBufferPool pool(Lru(8));
  pool.Write({1, 0});
  pool.Write({1, 1});
  pool.Read({1, 2});
  EXPECT_EQ(pool.FlushAll(), 2u);
  EXPECT_EQ(pool.FlushAll(), 0u);  // already clean
  EXPECT_EQ(pool.stats().dirty_writebacks, 2u);
}

TEST(BufferPoolTest, ReadAfterWriteIsHitAndStaysDirty) {
  SharedBufferPool pool(Lru(4));
  pool.Write({1, 0});
  EXPECT_TRUE(pool.Read({1, 0}).hit);
  EXPECT_EQ(pool.FlushAll(), 1u);
}

// ---------- ClusteredTable ----------

std::unique_ptr<Table> MakeKeyed(int n) {
  auto t = std::make_unique<Table>(Schema({Int("k1"), Int("k2"), Int("v")}), "t");
  // Insert in reverse so construction must sort.
  for (int i = n - 1; i >= 0; --i) t->AppendRow({i / 10, i % 10, i});
  return t;
}

TEST(ClusteredTableTest, SortsOnConstruction) {
  ClusteredTable ct(MakeKeyed(100), {0, 1});
  for (RowId r = 1; r < 100; ++r) {
    const int64_t prev = ct.table().Value(r - 1, 0) * 100 + ct.table().Value(r - 1, 1);
    const int64_t cur = ct.table().Value(r, 0) * 100 + ct.table().Value(r, 1);
    EXPECT_LE(prev, cur);
  }
}

TEST(ClusteredTableTest, EqualRangeSingleColumn) {
  ClusteredTable ct(MakeKeyed(100), {0, 1});
  const RowRange r = ct.EqualRange({3});
  EXPECT_EQ(r.Size(), 10u);
  for (RowId i = r.begin; i < r.end; ++i) {
    EXPECT_EQ(ct.table().Value(i, 0), 3);
  }
}

TEST(ClusteredTableTest, EqualRangeFullKey) {
  ClusteredTable ct(MakeKeyed(100), {0, 1});
  const RowRange r = ct.EqualRange({4, 7});
  ASSERT_EQ(r.Size(), 1u);
  EXPECT_EQ(ct.table().Value(r.begin, 2), 47);
}

TEST(ClusteredTableTest, EqualRangeMissingKeyEmpty) {
  ClusteredTable ct(MakeKeyed(100), {0, 1});
  EXPECT_TRUE(ct.EqualRange({42}).Empty());
}

TEST(ClusteredTableTest, ColumnSliceIsZeroCopyWindow) {
  ClusteredTable ct(MakeKeyed(100), {0, 1});
  const int64_t* v = ct.ColumnSlice(2, 25);
  const int64_t* k1 = ct.ColumnSlice(0, 25);
  // Pointers alias the heap's column storage directly.
  EXPECT_EQ(v, ct.table().ColumnData(2).data() + 25);
  for (RowId i = 0; i < 50; ++i) {
    EXPECT_EQ(v[i], ct.table().Value(25 + i, 2));
    EXPECT_EQ(k1[i], ct.table().Value(25 + i, 0));
  }
}

TEST(ClusteredTableTest, PrefixThenRange) {
  ClusteredTable ct(MakeKeyed(100), {0, 1});
  const RowRange r = ct.PrefixThenRange({5}, 2, 6);
  EXPECT_EQ(r.Size(), 5u);  // k2 in {2..6} within k1 == 5
  for (RowId i = r.begin; i < r.end; ++i) {
    EXPECT_EQ(ct.table().Value(i, 0), 5);
    EXPECT_GE(ct.table().Value(i, 1), 2);
    EXPECT_LE(ct.table().Value(i, 1), 6);
  }
}

TEST(ClusteredTableTest, RangeOnFirstColumn) {
  ClusteredTable ct(MakeKeyed(100), {0, 1});
  const RowRange r = ct.PrefixThenRange({}, 2, 4);
  EXPECT_EQ(r.Size(), 30u);
}

TEST(ClusteredTableTest, SizeIncludesInternalPages) {
  ClusteredTable ct(MakeKeyed(1000), {0});
  EXPECT_GE(ct.SizeBytes(), ct.layout().SizeBytes());
  EXPECT_GE(ct.BTreeHeight(), 1u);
}

// ---------- SecondaryBTreeIndex ----------

TEST(SecondaryIndexTest, LookupEqual) {
  ClusteredTable ct(MakeKeyed(100), {0, 1});
  SecondaryBTreeIndex idx(&ct, 2);  // index on v (unique)
  const auto rids = idx.LookupEqual(55);
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(ct.table().Value(rids[0], 2), 55);
  EXPECT_TRUE(idx.LookupEqual(1000).empty());
}

TEST(SecondaryIndexTest, LookupRangeSortedRids) {
  ClusteredTable ct(MakeKeyed(100), {0, 1});
  SecondaryBTreeIndex idx(&ct, 2);
  const auto rids = idx.LookupRange(10, 19);
  EXPECT_EQ(rids.size(), 10u);
  for (size_t i = 1; i < rids.size(); ++i) EXPECT_LT(rids[i - 1], rids[i]);
}

TEST(SecondaryIndexTest, LookupInDeduplicates) {
  ClusteredTable ct(MakeKeyed(100), {0, 1});
  SecondaryBTreeIndex idx(&ct, 0);  // k1 has 10 rows per value
  const auto rids = idx.LookupIn({3, 3, 4});
  EXPECT_EQ(rids.size(), 20u);
}

TEST(SecondaryIndexTest, DenseSizing) {
  ClusteredTable ct(MakeKeyed(1000), {0, 1});
  SecondaryBTreeIndex idx(&ct, 2);
  EXPECT_EQ(idx.NumDistinctKeys(), 1000u);
  // Dense: one 12-byte entry per row at 67% fill -> >= 2 pages.
  EXPECT_GE(idx.SizeBytes(), 2u * 8192);
}

TEST(SecondaryIndexTest, MatchesBruteForce) {
  ClusteredTable ct(MakeKeyed(500), {0, 1});
  SecondaryBTreeIndex idx(&ct, 1);  // k2: 50 rows per value
  for (int64_t v = 0; v < 10; ++v) {
    const auto rids = idx.LookupEqual(v);
    size_t expected = 0;
    for (RowId r = 0; r < 500; ++r) {
      if (ct.table().Value(r, 1) == v) ++expected;
    }
    EXPECT_EQ(rids.size(), expected) << "v=" << v;
  }
}

}  // namespace
}  // namespace coradd
