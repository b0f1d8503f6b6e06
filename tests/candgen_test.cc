// Lockdown suite for the candidate-generation engine (§4 + docs/CANDGEN.md):
// golden-candidate snapshots captured from the pre-rank-cache generation
// path (candidate counts, spec signatures, priced benefits), bit-identity of
// the generated CandidateSet at 1/2/8 threads, and equivalence of
// ColumnOrderCache rank composition with the legacy fresh-std::sort ranks on
// randomized synopses. Cheap cases run under the `smoke` ctest label as
// `candgen_smoke` (--gtest_filter=CandgenSmoke*).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/context.h"
#include "cost/column_order_cache.h"
#include "cost/correlation_cost_model.h"
#include "mv/candidate_generator.h"
#include "ssb/ssb.h"

namespace coradd {
namespace {

// ---------------------------------------------------------------------------
// Golden fixture — must stay in lockstep with the snapshot generator that
// captured the constants below from the pre-refactor candidate path
// (candidate counts, FNV-1a hashes over spec signatures and priced costs).
// Any change to these numbers means the refactored engine no longer
// produces the bit-identical candidate pool and prices.
// ---------------------------------------------------------------------------

uint64_t Fnv1a(const std::string& s, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

StatsOptions GoldenStats() {
  StatsOptions sopt;
  sopt.sample_rows = 8192;
  sopt.disk.page_size_bytes = 1024;
  sopt.disk.seek_seconds = 0.0055 * 1024.0 / 8192.0;
  return sopt;
}

Query SynthQuery(const std::string& id, std::vector<Predicate> preds,
                 std::vector<std::string> group_by, double frequency) {
  Query q;
  q.id = id;
  q.fact_table = "lineorder";
  q.predicates = std::move(preds);
  q.group_by = std::move(group_by);
  q.aggregates = {{"lo_revenue", ""}};
  q.frequency = frequency;
  return q;
}

Workload SyntheticWorkload() {
  Workload w;
  w.name = "synthetic6";
  w.queries.push_back(SynthQuery(
      "S1",
      {Predicate::Eq("d_year", 1995), Predicate::Range("lo_discount", 2, 4)},
      {}, 1.0));
  w.queries.push_back(SynthQuery(
      "S2",
      {Predicate::Range("d_year", 1993, 1994),
       Predicate::Eq("s_region", ssb::RegionCode("ASIA"))},
      {"s_nation"}, 2.0));
  w.queries.push_back(SynthQuery(
      "S3",
      {Predicate::In("c_city", {ssb::CityCode("UNITED KI1"),
                                ssb::CityCode("UNITED KI5")}),
       Predicate::Eq("d_year", 1996)},
      {"c_city"}, 0.5));
  w.queries.push_back(SynthQuery(
      "S4",
      {Predicate::Eq("p_category", ssb::CategoryCode("MFGR#12")),
       Predicate::Range("lo_quantity", 10, 20)},
      {"p_brand1"}, 1.0));
  w.queries.push_back(SynthQuery(
      "S5",
      {Predicate::Eq("s_nation", ssb::NationCode("CHINA")),
       Predicate::Range("d_yearmonthnum", ssb::YearMonthNum(1994, 1),
                        ssb::YearMonthNum(1994, 6))},
      {}, 3.0));
  w.queries.push_back(SynthQuery(
      "S6",
      {Predicate::Range("lo_orderdate", 19930101, 19931231),
       Predicate::Eq("lo_shipmode", 2)},
      {}, 1.0));
  return w;
}

struct GoldenSnapshot {
  size_t mvs;
  size_t groups;
  uint64_t sig_hash;
  uint64_t price_hash;
  const char* first_sig;
};

// Captured 2026-07-30 from the pre-refactor generation path (per-trial
// std::sort ranks, serial group loop) at SSB scale 0.002, 1 KB pages,
// 8192-row synopsis, default generator + cost-model options.
constexpr GoldenSnapshot kGoldenSsb13 = {
    103, 51, 0x4d1d32632257c553ull, 0x6b7f3b53e6534c20ull,
    "lineorder|0,|d_year,lo_discount,lo_quantity|"
    "d_year,lo_discount,lo_extendedprice,lo_quantity"};
constexpr GoldenSnapshot kGoldenSynthetic6 = {
    55, 19, 0x1d90a5a2497e08d3ull, 0xba7c2f096e6cff35ull,
    "lineorder|0,|d_year,lo_discount|d_year,lo_discount,lo_revenue"};

struct GoldenFixture {
  std::unique_ptr<Catalog> catalog;
  Workload workload;
  std::unique_ptr<DesignContext> context;
  std::unique_ptr<CorrelationCostModel> model;

  explicit GoldenFixture(Workload w) : workload(std::move(w)) {
    ssb::SsbOptions options;
    options.scale_factor = 0.002;
    catalog = ssb::MakeCatalog(options);
    context = std::make_unique<DesignContext>(catalog.get(), workload,
                                              GoldenStats());
    model = std::make_unique<CorrelationCostModel>(&context->registry());
  }

  CandidateSet Generate(CandidateGeneratorOptions options = {}) const {
    MvCandidateGenerator generator(&context->catalog(), &context->registry(),
                                   model.get(), options);
    return generator.Generate(workload);
  }
};

void ExpectMatchesSnapshot(const GoldenFixture& f, const CandidateSet& set,
                           const GoldenSnapshot& golden) {
  EXPECT_EQ(set.mvs.size(), golden.mvs);
  EXPECT_EQ(set.groups.size(), golden.groups);
  ASSERT_FALSE(set.mvs.empty());
  EXPECT_EQ(MvSpecSignature(set.mvs[0]), golden.first_sig);

  uint64_t sig_hash = 1469598103934665603ull;
  uint64_t price_hash = 1469598103934665603ull;
  for (const auto& spec : set.mvs) {
    const std::string sig = MvSpecSignature(spec);
    sig_hash = Fnv1a(sig, sig_hash);
    price_hash = Fnv1a(sig, price_hash);
    for (const auto& q : f.workload.queries) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g",
                    f.model->Seconds(q, spec) * q.frequency);
      price_hash = Fnv1a(buf, price_hash);
    }
  }
  EXPECT_EQ(sig_hash, golden.sig_hash) << "spec signatures drifted";
  EXPECT_EQ(price_hash, golden.price_hash) << "priced benefits drifted";
}

TEST(CandgenGoldenTest, Ssb13MatchesPreRefactorSnapshot) {
  GoldenFixture f(ssb::MakeWorkload());
  ExpectMatchesSnapshot(f, f.Generate(), kGoldenSsb13);
}

TEST(CandgenGoldenTest, Synthetic6MatchesPreRefactorSnapshot) {
  GoldenFixture f(SyntheticWorkload());
  ExpectMatchesSnapshot(f, f.Generate(), kGoldenSynthetic6);
}

// ---------------------------------------------------------------------------
// Determinism: the generated CandidateSet is bit-identical at any thread
// count (EXPECT_EQ on every field, including priced doubles downstream).
// ---------------------------------------------------------------------------

void ExpectSetsIdentical(const CandidateSet& a, const CandidateSet& b) {
  ASSERT_EQ(a.mvs.size(), b.mvs.size());
  for (size_t i = 0; i < a.mvs.size(); ++i) {
    EXPECT_EQ(a.mvs[i].name, b.mvs[i].name) << i;
    EXPECT_EQ(a.mvs[i].fact_table, b.mvs[i].fact_table) << i;
    EXPECT_EQ(a.mvs[i].columns, b.mvs[i].columns) << i;
    EXPECT_EQ(a.mvs[i].clustered_key, b.mvs[i].clustered_key) << i;
    EXPECT_EQ(a.mvs[i].query_group, b.mvs[i].query_group) << i;
    EXPECT_EQ(a.mvs[i].is_fact_recluster, b.mvs[i].is_fact_recluster) << i;
    EXPECT_EQ(a.mvs[i].is_base, b.mvs[i].is_base) << i;
  }
  EXPECT_EQ(a.groups, b.groups);
}

TEST(CandgenDeterminismTest, BitIdenticalAtThreadCounts128) {
  GoldenFixture f(SyntheticWorkload());
  ThreadPool pool1(1), pool2(2), pool8(8);
  CandidateGeneratorOptions o1, o2, o8;
  o1.pool = &pool1;
  o2.pool = &pool2;
  o8.pool = &pool8;
  const CandidateSet s1 = f.Generate(o1);
  const CandidateSet s2 = f.Generate(o2);
  const CandidateSet s8 = f.Generate(o8);
  ExpectSetsIdentical(s1, s2);
  ExpectSetsIdentical(s1, s8);
  ExpectMatchesSnapshot(f, s8, kGoldenSynthetic6);  // and still golden
}

TEST(CandgenDeterminismTest, PruningOnOffProducesIdenticalSets) {
  GoldenFixture f(SyntheticWorkload());
  CandidateGeneratorOptions pruned;  // default: prune_trials = true
  CandidateGeneratorOptions exhaustive;
  exhaustive.merging.prune_trials = false;
  ExpectSetsIdentical(f.Generate(pruned), f.Generate(exhaustive));
}

// ---------------------------------------------------------------------------
// Smoke cases (registered as the `candgen_smoke` ctest entry): order-cache
// equivalence with the legacy sort on randomized synopses — no SSB
// fixture, sub-second.
// ---------------------------------------------------------------------------

/// Builds a single-table catalog of `rows` rows with `num_cols` randomized
/// int columns (mixed cardinalities so equal-runs of every length appear).
std::unique_ptr<Catalog> RandomCatalog(uint64_t seed, size_t rows,
                                       size_t num_cols) {
  Rng rng(seed);
  Schema s;
  ColumnDef key;
  key.name = "r_key";
  key.byte_size = 8;
  s.AddColumn(key);
  for (size_t c = 0; c < num_cols; ++c) {
    ColumnDef col;
    col.name = "r_c" + std::to_string(c);
    col.byte_size = 4;
    s.AddColumn(col);
  }
  auto table = std::make_unique<Table>(std::move(s), "rand");
  for (size_t i = 0; i < rows; ++i) {
    std::vector<int64_t> row;
    row.push_back(static_cast<int64_t>(i));
    for (size_t c = 0; c < num_cols; ++c) {
      // Cardinality 2^(c+1): column 0 is near-binary, later ones spread.
      row.push_back(static_cast<int64_t>(rng.Uniform(2ull << c)));
    }
    table->AppendRow(row);
  }
  auto catalog = std::make_unique<Catalog>();
  catalog->AddTable(std::move(table));
  FactTableInfo fact;
  fact.name = "rand";
  fact.primary_key = {"r_key"};
  catalog->RegisterFactTable(fact);
  return catalog;
}

/// The legacy rank computation ComposeRanks replaced: a fresh comparison
/// sort by (values..., row index).
std::vector<uint32_t> LegacySortRanks(const Synopsis& syn,
                                      const std::vector<int>& key_cols) {
  const size_t n = syn.sample_rows();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (int c : key_cols) {
      const int64_t va = syn.Values(c)[a];
      const int64_t vb = syn.Values(c)[b];
      if (va != vb) return va < vb;
    }
    return a < b;
  });
  std::vector<uint32_t> rank(n);
  for (size_t pos = 0; pos < n; ++pos) {
    rank[order[pos]] = static_cast<uint32_t>(pos);
  }
  return rank;
}

TEST(CandgenSmokeTest, ComposeRanksMatchesLegacySortOnRandomizedSynopses) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    auto catalog = RandomCatalog(seed, /*rows=*/3000, /*num_cols=*/6);
    Universe universe(*catalog, *catalog->GetFactInfo("rand"));
    StatsOptions sopt;
    sopt.sample_rows = 1024;  // sampled synopsis
    UniverseStats stats(&universe, sopt);
    const Synopsis& syn = stats.synopsis();
    ColumnOrderCache cache(&syn);

    Rng rng(seed * 977);
    const int num_cols = static_cast<int>(syn.num_columns());
    for (int trial = 0; trial < 40; ++trial) {
      // Random non-empty key of 1..4 distinct columns, random order.
      std::vector<int> cols(static_cast<size_t>(num_cols));
      std::iota(cols.begin(), cols.end(), 0);
      for (size_t i = cols.size(); i > 1; --i) {
        std::swap(cols[i - 1], cols[rng.Uniform(i)]);
      }
      cols.resize(1 + rng.Uniform(4));
      EXPECT_EQ(cache.ComposeRanks(cols), LegacySortRanks(syn, cols))
          << "seed " << seed << " trial " << trial;
    }
    // Full-row synopsis (sample >= rows) must work too.
    StatsOptions full_opt;
    full_opt.sample_rows = 100000;
    UniverseStats full_stats(&universe, full_opt);
    ColumnOrderCache full_cache(&full_stats.synopsis());
    const std::vector<int> all_cols = {1, 2, 3};
    EXPECT_EQ(full_cache.ComposeRanks(all_cols),
              LegacySortRanks(full_stats.synopsis(), all_cols));
  }
}

TEST(CandgenSmokeTest, ComposeRanksEmptyKeyIsRowOrder) {
  auto catalog = RandomCatalog(7, 100, 2);
  Universe universe(*catalog, *catalog->GetFactInfo("rand"));
  StatsOptions sopt;
  sopt.sample_rows = 64;
  UniverseStats stats(&universe, sopt);
  ColumnOrderCache cache(&stats.synopsis());
  std::vector<uint32_t> identity(cache.num_rows());
  std::iota(identity.begin(), identity.end(), 0u);
  EXPECT_EQ(cache.ComposeRanks({}), identity);
}

TEST(CandgenSmokeTest, ColumnOrderRunStructureIsConsistent) {
  auto catalog = RandomCatalog(21, 500, 3);
  Universe universe(*catalog, *catalog->GetFactInfo("rand"));
  StatsOptions sopt;
  sopt.sample_rows = 256;
  UniverseStats stats(&universe, sopt);
  const Synopsis& syn = stats.synopsis();
  ColumnOrderCache cache(&syn);
  for (int c = 1; c < static_cast<int>(syn.num_columns()); ++c) {
    const ColumnOrder& order = cache.ForColumn(c);
    ASSERT_EQ(order.sorted_rows.size(), syn.sample_rows());
    ASSERT_EQ(order.run_begin.back(), syn.sample_rows());
    // Runs partition the sorted permutation into equal-value spans.
    for (size_t d = 0; d + 1 < order.run_begin.size(); ++d) {
      const int64_t v = syn.Values(c)[order.sorted_rows[order.run_begin[d]]];
      for (uint32_t p = order.run_begin[d]; p < order.run_begin[d + 1]; ++p) {
        EXPECT_EQ(syn.Values(c)[order.sorted_rows[p]], v);
        EXPECT_EQ(order.dense_rank[order.sorted_rows[p]], d);
      }
      if (d > 0) {
        EXPECT_LT(
            syn.Values(c)[order.sorted_rows[order.run_begin[d - 1]]], v);
      }
    }
  }
}

}  // namespace
}  // namespace coradd
