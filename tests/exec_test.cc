// Tests for src/exec: materialization with row provenance, plan-by-plan
// executor correctness against reference scans, and maintenance simulation.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <limits>

#include "common/rng.h"
#include "common/string_util.h"
#include "cost/correlation_cost_model.h"
#include "exec/executor.h"
#include "exec/maintenance.h"
#include "ssb/ssb.h"

namespace coradd {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ssb::SsbOptions options;
    // Big enough that a selective clustered scan beats a sequential scan
    // even with per-fragment seeks (the paper-scale geometry).
    options.scale_factor = 0.02;
    catalog_ = ssb::MakeCatalog(options).release();
    universe_ = new Universe(*catalog_, *catalog_->GetFactInfo("lineorder"));
    StatsOptions sopt;
    sopt.sample_rows = 4096;
    sopt.disk.page_size_bytes = 1024;
    stats_ = new UniverseStats(universe_, sopt);
    registry_ = new StatsRegistry();
    registry_->Register(stats_);
    model_ = new CorrelationCostModel(registry_);
    workload_ = new Workload(ssb::MakeWorkload());
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete model_;
    delete registry_;
    delete stats_;
    delete universe_;
    delete catalog_;
  }

  static DiskParams Disk() { return stats_->options().disk; }

  /// Reference result: brute-force filter + aggregate over the universe.
  static std::pair<double, uint64_t> Reference(const Query& q) {
    double agg = 0.0;
    uint64_t rows = 0;
    std::vector<std::pair<const Predicate*, int>> preds;
    for (const auto& p : q.predicates) {
      preds.emplace_back(&p, universe_->ColumnIndex(p.column));
    }
    std::vector<std::pair<int, int>> aggs;
    for (const auto& a : q.aggregates) {
      aggs.emplace_back(universe_->ColumnIndex(a.col_a),
                        a.col_b.empty() ? -1 : universe_->ColumnIndex(a.col_b));
    }
    for (RowId r = 0; r < universe_->NumRows(); ++r) {
      bool ok = true;
      for (const auto& [p, c] : preds) {
        if (!p->Matches(universe_->Value(r, c))) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      ++rows;
      for (const auto& [a, b] : aggs) {
        const double va = static_cast<double>(universe_->Value(r, a));
        agg += b >= 0 ? va * static_cast<double>(universe_->Value(r, b)) : va;
      }
    }
    return {agg, rows};
  }

  static MvSpec BaseSpec() {
    MvSpec spec;
    spec.name = "base";
    spec.fact_table = "lineorder";
    for (size_t c = 0; c < universe_->fact_table().schema().NumColumns(); ++c) {
      spec.columns.push_back(universe_->fact_table().schema().Column(c).name);
    }
    spec.clustered_key = {"lo_orderkey", "lo_linenumber"};
    spec.is_fact_recluster = true;
    spec.is_base = true;
    return spec;
  }

  static Catalog* catalog_;
  static Universe* universe_;
  static UniverseStats* stats_;
  static StatsRegistry* registry_;
  static CorrelationCostModel* model_;
  static Workload* workload_;
};

Catalog* ExecTest::catalog_ = nullptr;
Universe* ExecTest::universe_ = nullptr;
UniverseStats* ExecTest::stats_ = nullptr;
StatsRegistry* ExecTest::registry_ = nullptr;
CorrelationCostModel* ExecTest::model_ = nullptr;
Workload* ExecTest::workload_ = nullptr;

// ---------- Materializer ----------

TEST_F(ExecTest, MaterializeSortsByClusteredKey) {
  Materializer mat(universe_, Disk());
  MvSpec spec;
  spec.name = "mv";
  spec.fact_table = "lineorder";
  spec.columns = {"d_year", "lo_discount", "lo_revenue"};
  spec.clustered_key = {"d_year", "lo_discount"};
  auto obj = mat.Materialize(spec);
  const Table& t = obj->table->table();
  for (RowId r = 1; r < t.NumRows(); ++r) {
    const int64_t prev = t.Value(r - 1, 0) * 1000 + t.Value(r - 1, 1);
    const int64_t cur = t.Value(r, 0) * 1000 + t.Value(r, 1);
    EXPECT_LE(prev, cur);
  }
}

TEST_F(ExecTest, MaterializeProvenanceIsCorrect) {
  Materializer mat(universe_, Disk());
  MvSpec spec;
  spec.name = "mv";
  spec.fact_table = "lineorder";
  spec.columns = {"lo_revenue", "d_year"};
  spec.clustered_key = {"d_year"};
  auto obj = mat.Materialize(spec);
  const int rev = universe_->ColumnIndex("lo_revenue");
  for (RowId r = 0; r < 500; ++r) {
    EXPECT_EQ(obj->table->table().Value(r, 0),
              universe_->Value(obj->fact_row_of[r], rev));
  }
}

TEST_F(ExecTest, ProvenanceColumnHasZeroWidth) {
  Materializer mat(universe_, Disk());
  MvSpec spec;
  spec.name = "mv";
  spec.fact_table = "lineorder";
  spec.columns = {"d_year", "lo_revenue"};
  spec.clustered_key = {"d_year"};
  auto obj = mat.Materialize(spec);
  // Row width = 4 + 4; the hidden provenance column adds nothing.
  EXPECT_EQ(obj->table->layout().row_width_bytes, 8u);
}

TEST_F(ExecTest, MaterializedSizeMatchesEstimate) {
  Materializer mat(universe_, Disk());
  MvSpec spec;
  spec.name = "mv";
  spec.fact_table = "lineorder";
  spec.columns = {"d_year", "lo_discount", "lo_quantity", "lo_extendedprice"};
  spec.clustered_key = {"d_year"};
  auto obj = mat.Materialize(spec);
  EXPECT_EQ(obj->size_bytes, EstimateMvSizeBytes(spec, *stats_, Disk()));
}

TEST_F(ExecTest, MaterializeBuildsCmsAndBtrees) {
  Materializer mat(universe_, Disk());
  MvSpec spec = BaseSpec();
  spec.is_base = false;
  spec.clustered_key = {"lo_orderdate"};
  CmSpec cm;
  cm.key_columns = {"d_year"};  // universe column, not stored: provenance
  cm.bucketing = {1, 8};
  auto obj = mat.Materialize(spec, {cm}, {"lo_discount"});
  ASSERT_EQ(obj->cms.size(), 1u);
  ASSERT_EQ(obj->btrees.size(), 1u);
  EXPECT_GT(obj->cm_bytes, 0u);
  EXPECT_GT(obj->btree_bytes, 0u);
  // d_year co-occurs with one year's orderdates: compact CM.
  EXPECT_LT(obj->cms[0]->NumPairs(), 4000u);
}

// ---------- One-pass build against the project-then-sort reference ----------

/// An object built from pieces in src/ the one-pass build does not use:
/// project in fact-row order, sort stably by the clustered key (the
/// permutation is the provenance), then build CMs and B+Trees on the
/// sorted table.
struct ReferenceObject {
  std::unique_ptr<ClusteredTable> table;
  std::vector<RowId> fact_row_of;
  std::vector<std::unique_ptr<CorrelationMap>> cms;
  uint64_t size_bytes = 0;
  uint64_t cm_bytes = 0;
  uint64_t btree_bytes = 0;
};

ReferenceObject BuildReference(const Universe& u, const MvSpec& spec,
                               const std::vector<CmSpec>& cm_specs,
                               const std::vector<std::string>& btree_columns,
                               DiskParams disk) {
  std::vector<int> ucols;
  for (const auto& c : spec.columns) ucols.push_back(u.ColumnIndex(c));
  std::unique_ptr<Table> t = u.MaterializeProjection(ucols, spec.name);
  std::vector<int> key_cols;
  for (const auto& k : spec.clustered_key) {
    key_cols.push_back(t->schema().ColumnIndex(k));
  }
  ReferenceObject ref;
  ref.fact_row_of = t->SortByColumns(key_cols);
  ref.table = std::make_unique<ClusteredTable>(std::move(t), key_cols,
                                               disk.page_size_bytes);
  const Table& sorted = ref.table->table();
  if (spec.is_fact_recluster && !spec.is_base) {
    uint32_t pk_bytes = 0;
    for (const auto& pk : u.fact_info().primary_key) {
      pk_bytes += u.Column(static_cast<size_t>(u.ColumnIndex(pk))).byte_size;
    }
    ref.size_bytes = ComputeBTreeShape(sorted.NumRows(), pk_bytes + 8,
                                       pk_bytes, disk.page_size_bytes)
                         .TotalPages() *
                     disk.page_size_bytes;
  } else if (!spec.is_base) {
    ref.size_bytes = ref.table->SizeBytes();
  }
  for (const CmSpec& cm : cm_specs) {
    std::vector<std::vector<int64_t>> values;
    std::vector<uint32_t> widths;
    for (const auto& key : cm.key_columns) {
      const int ucol = u.ColumnIndex(key);
      widths.push_back(u.Column(static_cast<size_t>(ucol)).byte_size);
      std::vector<int64_t> v(sorted.NumRows());
      for (RowId r = 0; r < sorted.NumRows(); ++r) {
        v[r] = u.Value(ref.fact_row_of[r], ucol);
      }
      values.push_back(std::move(v));
    }
    std::vector<const std::vector<int64_t>*> ptrs;
    for (const auto& v : values) ptrs.push_back(&v);
    ref.cms.push_back(std::make_unique<CorrelationMap>(
        cm.key_columns, ptrs, widths, *ref.table, cm.bucketing));
    ref.cm_bytes += ref.cms.back()->SizeBytes();
  }
  for (const auto& col : btree_columns) {
    ref.btree_bytes +=
        SecondaryBTreeIndex(ref.table.get(), sorted.schema().ColumnIndex(col))
            .SizeBytes();
  }
  return ref;
}

/// Asserts `got` equals the reference object: every stored column row by
/// row, provenance, the three byte counts, and each CM's shape and lookups
/// under an all-pass, a point and a range predicate.
void ExpectMatchesReference(const MaterializedObject& got,
                            const ReferenceObject& want) {
  const Table& g = got.table->table();
  const Table& w = want.table->table();
  ASSERT_EQ(g.NumColumns(), w.NumColumns());
  ASSERT_EQ(g.NumRows(), w.NumRows());
  for (size_t c = 0; c < w.NumColumns(); ++c) {
    EXPECT_EQ(g.schema().Column(c).name, w.schema().Column(c).name);
    EXPECT_TRUE(g.ColumnData(c) == w.ColumnData(c))
        << "column " << w.schema().Column(c).name;
  }
  EXPECT_TRUE(got.fact_row_of == want.fact_row_of);
  EXPECT_EQ(got.size_bytes, want.size_bytes);
  EXPECT_EQ(got.cm_bytes, want.cm_bytes);
  EXPECT_EQ(got.btree_bytes, want.btree_bytes);
  ASSERT_EQ(got.cms.size(), want.cms.size());
  const RowId probe = static_cast<RowId>(w.NumRows() / 3);
  for (size_t i = 0; i < want.cms.size(); ++i) {
    const CorrelationMap& gcm = *got.cms[i];
    const CorrelationMap& wcm = *want.cms[i];
    EXPECT_EQ(gcm.NumPairs(), wcm.NumPairs());
    EXPECT_EQ(gcm.NumKeyEntries(), wcm.NumKeyEntries());
    const size_t nk = wcm.key_columns().size();
    std::vector<std::function<bool(int64_t, int64_t)>> all(
        nk, [](int64_t, int64_t) { return true; });
    std::vector<std::function<bool(int64_t, int64_t)>> point;
    std::vector<std::function<bool(int64_t, int64_t)>> range = all;
    for (size_t k = 0; k < nk; ++k) {
      const int64_t v = got.universe->Value(
          want.fact_row_of[probe],
          got.universe->ColumnIndex(wcm.key_columns()[k]));
      point.push_back(
          [v](int64_t lo, int64_t hi) { return lo <= v && v <= hi; });
      if (k == 0) range[0] = [v](int64_t lo, int64_t) { return lo <= v; };
    }
    for (const auto* m : {&all, &point, &range}) {
      EXPECT_EQ(gcm.LookupBuckets(*m), wcm.LookupBuckets(*m))
          << "cm " << i << " predicate " << (m == &all ? "all"
                                             : m == &point ? "point"
                                                           : "range");
    }
  }
}

TEST_F(ExecTest, MaterializeMatchesProjectThenSortReference) {
  struct Input {
    MvSpec spec;
    std::vector<CmSpec> cms;
    std::vector<std::string> btrees;
  };
  std::vector<Input> inputs;
  // The base re-clustering: the fact table is already in key order.
  inputs.push_back({BaseSpec(), {}, {}});
  // A 3-column key over small domains: ~30 rows share each key.
  {
    MvSpec mv;
    mv.name = "mv_ties";
    mv.fact_table = "lineorder";
    mv.columns = {"lo_revenue", "d_year", "lo_discount", "lo_quantity",
                  "lo_extendedprice"};
    mv.clustered_key = {"d_year", "lo_discount", "lo_quantity"};
    CmSpec cm;
    cm.key_columns = {"lo_extendedprice"};
    cm.bucketing = {1000, 4};
    inputs.push_back({mv, {cm}, {"lo_revenue"}});
  }
  // A re-clustering with CMs on provenance-only columns, plus a B+Tree.
  {
    MvSpec re = BaseSpec();
    re.is_base = false;
    re.name = "re_od";
    re.clustered_key = {"lo_orderdate"};
    CmSpec month;
    month.key_columns = {"d_yearmonthnum"};
    CmSpec regions;
    regions.key_columns = {"c_region", "s_region"};
    regions.bucketing = {1, 2};
    inputs.push_back({re, {month, regions}, {"lo_discount"}});
  }
  // No clustered key: rows stay in fact-row order.
  {
    MvSpec heap;
    heap.name = "heap";
    heap.fact_table = "lineorder";
    heap.columns = {"lo_revenue", "d_year"};
    CmSpec cm;
    cm.key_columns = {"d_year"};
    inputs.push_back({heap, {cm}, {}});
  }

  std::vector<ReferenceObject> want;
  for (const Input& in : inputs) {
    want.push_back(
        BuildReference(*universe_, in.spec, in.cms, in.btrees, Disk()));
  }

  // A synthetic fact whose keys are wider than 64 bits: k_wide spans the
  // whole int64 range (64 bits) and k_neg ~2^41, so each key below packs
  // only a prefix and the rest is sorted run by run.
  Catalog wide_catalog;
  {
    auto fact = std::make_unique<Table>(
        Schema({ColumnDef{"w_id", ValueType::kInt, 4, {}},
                ColumnDef{"k_wide", ValueType::kInt, 8, {}},
                ColumnDef{"k_neg", ValueType::kInt, 8, {}},
                ColumnDef{"k_small", ValueType::kInt, 4, {}},
                ColumnDef{"w_val", ValueType::kInt, 4, {}}}),
        "wide");
    const int64_t wide_values[] = {std::numeric_limits<int64_t>::min(), -1,
                                   0, 5, std::numeric_limits<int64_t>::max()};
    Rng rng(15);
    for (int64_t i = 0; i < 3000; ++i) {
      fact->AppendRow({i, wide_values[rng.Uniform(5)],
                       (static_cast<int64_t>(rng.Uniform(20)) - 10) *
                           100'000'000'007LL,
                       static_cast<int64_t>(rng.Uniform(4)),
                       static_cast<int64_t>(rng.Uniform(1000))});
    }
    wide_catalog.AddTable(std::move(fact));
    FactTableInfo info;
    info.name = "wide";
    info.primary_key = {"w_id"};
    wide_catalog.RegisterFactTable(info);
  }
  const Universe wide(wide_catalog, *wide_catalog.GetFactInfo("wide"));
  for (const std::vector<std::string>& key :
       {std::vector<std::string>{"k_wide", "k_neg", "k_small"},
        std::vector<std::string>{"k_neg", "k_small", "k_wide"}}) {
    MvSpec mv;
    mv.name = "wide_mv";
    mv.fact_table = "wide";
    mv.columns = {"w_val", "k_small", "k_neg", "k_wide"};
    mv.clustered_key = key;
    CmSpec cm;
    cm.key_columns = {"w_val"};
    inputs.push_back({mv, {cm}, {"k_neg"}});
    want.push_back(BuildReference(wide, mv, {cm}, {"k_neg"}, Disk()));
  }

  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (size_t i = 0; i < inputs.size(); ++i) {
      const bool is_wide = inputs[i].spec.fact_table == "wide";
      Materializer mat(is_wide ? &wide : universe_, Disk(), &pool);
      SCOPED_TRACE(inputs[i].spec.name + " at " + std::to_string(threads) +
                   " threads, key " + Join(inputs[i].spec.clustered_key, ","));
      const auto got =
          mat.Materialize(inputs[i].spec, inputs[i].cms, inputs[i].btrees);
      ExpectMatchesReference(*got, want[i]);
    }
  }
}

// ---------- Executor correctness across plans ----------

TEST_F(ExecTest, FullScanMatchesReference) {
  Materializer mat(universe_, Disk());
  auto base = mat.Materialize(BaseSpec());
  QueryExecutor exec(registry_, model_);
  for (const auto& q : workload_->queries) {
    DiskModel disk(Disk());
    const QueryRunResult run = exec.Run(q, *base, &disk);
    const auto [ref_agg, ref_rows] = Reference(q);
    EXPECT_EQ(run.rows_output, ref_rows) << q.id;
    EXPECT_NEAR(run.aggregate, ref_agg, std::abs(ref_agg) * 1e-9 + 1e-6)
        << q.id;
  }
}

TEST_F(ExecTest, ClusteredScanMatchesReferenceAndReadsLess) {
  Materializer mat(universe_, Disk());
  const Query& q11 = workload_->queries[0];
  MvSpec spec;
  spec.name = "mv_q11";
  spec.fact_table = "lineorder";
  spec.columns = q11.AllColumns();
  spec.clustered_key = {"d_year", "lo_discount", "lo_quantity"};
  auto obj = mat.Materialize(spec);
  QueryExecutor exec(registry_, model_);
  DiskModel disk(Disk());
  const QueryRunResult run = exec.Run(q11, *obj, &disk);
  const auto [ref_agg, ref_rows] = Reference(q11);
  EXPECT_EQ(run.rows_output, ref_rows);
  EXPECT_NEAR(run.aggregate, ref_agg, std::abs(ref_agg) * 1e-9 + 1e-6);
  EXPECT_EQ(run.path, AccessPath::kClusteredScan);
  EXPECT_LT(run.pages_read, obj->table->NumPages() / 2);
}

TEST_F(ExecTest, CmPlanMatchesReference) {
  Materializer mat(universe_, Disk());
  MvSpec spec = BaseSpec();
  spec.is_base = false;
  spec.name = "recluster_od";
  spec.clustered_key = {"lo_orderdate"};
  CmSpec cm;
  cm.key_columns = {"d_yearmonthnum"};
  cm.bucketing = {1, 8};
  auto obj = mat.Materialize(spec, {cm});
  QueryExecutor exec(registry_, model_);
  const Query& q12 = workload_->queries[1];  // predicates d_yearmonthnum
  DiskModel disk(Disk());
  const QueryRunResult run = exec.Run(q12, *obj, &disk);
  const auto [ref_agg, ref_rows] = Reference(q12);
  EXPECT_EQ(run.rows_output, ref_rows);
  EXPECT_NEAR(run.aggregate, ref_agg, std::abs(ref_agg) * 1e-9 + 1e-6);
  EXPECT_EQ(run.path, AccessPath::kSecondary);
  // Correlated CM touches a small slice of the heap.
  EXPECT_LT(run.pages_read, obj->table->NumPages() / 4);
}

TEST_F(ExecTest, BTreePlanMatchesReference) {
  Materializer mat(universe_, Disk());
  const Query& q11 = workload_->queries[0];
  MvSpec spec;
  spec.name = "mv_bt";
  spec.fact_table = "lineorder";
  spec.columns = q11.AllColumns();
  spec.clustered_key = {"lo_quantity"};  // weakly useful clustering
  auto obj = mat.Materialize(spec, {}, {"d_year"});
  QueryExecutor exec(registry_, model_);
  DiskModel disk(Disk());
  const QueryRunResult run = exec.Run(q11, *obj, &disk);
  const auto [ref_agg, ref_rows] = Reference(q11);
  EXPECT_EQ(run.rows_output, ref_rows);
  EXPECT_NEAR(run.aggregate, ref_agg, std::abs(ref_agg) * 1e-9 + 1e-6);
}

TEST_F(ExecTest, EveryQuerySameAnswerOnBaseAndRecluster) {
  Materializer mat(universe_, Disk());
  auto base = mat.Materialize(BaseSpec());
  MvSpec re = BaseSpec();
  re.is_base = false;
  re.name = "re_od";
  re.clustered_key = {"lo_orderdate"};
  CmSpec cm_y;
  cm_y.key_columns = {"d_year"};
  auto reclustered = mat.Materialize(re, {cm_y});
  QueryExecutor exec(registry_, model_);
  for (const auto& q : workload_->queries) {
    DiskModel d1(Disk()), d2(Disk());
    const QueryRunResult a = exec.Run(q, *base, &d1);
    const QueryRunResult b = exec.Run(q, *reclustered, &d2);
    EXPECT_EQ(a.rows_output, b.rows_output) << q.id;
    EXPECT_NEAR(a.aggregate, b.aggregate, std::abs(a.aggregate) * 1e-9 + 1e-6)
        << q.id;
  }
}

TEST_F(ExecTest, CorrelatedClusteringRunsFasterThanBase) {
  // The Fig 13 effect, end to end: Q1.2 (yearmonth predicate) on a fact
  // table clustered by orderdate with a CM runs much faster than a full
  // scan of the PK-clustered base.
  Materializer mat(universe_, Disk());
  auto base = mat.Materialize(BaseSpec());
  MvSpec re = BaseSpec();
  re.is_base = false;
  re.name = "re_od";
  re.clustered_key = {"lo_orderdate"};
  CmSpec cm;
  cm.key_columns = {"d_yearmonthnum"};
  auto reclustered = mat.Materialize(re, {cm});
  QueryExecutor exec(registry_, model_);
  const Query& q12 = workload_->queries[1];
  DiskModel d1(Disk()), d2(Disk());
  const double base_s = exec.Run(q12, *base, &d1).seconds;
  const double re_s = exec.Run(q12, *reclustered, &d2).seconds;
  EXPECT_LT(re_s * 3, base_s);
}

// ---------- Determinism across thread counts and batch sizes ----------

// The batched executor's contract (docs/EXECUTION.md): for a fixed
// partition_rows, every thread count and every batch size yields
// bit-identical aggregates, I/O counters, and row counts — partials are
// computed per fixed partition and merged in partition order.
TEST_F(ExecTest, DeterministicAcrossThreadsAndBatchSizes) {
  Materializer mat(universe_, Disk());
  auto base = mat.Materialize(BaseSpec());
  MvSpec re = BaseSpec();
  re.is_base = false;
  re.name = "re_od";
  re.clustered_key = {"lo_orderdate"};
  CmSpec cm;
  cm.key_columns = {"d_yearmonthnum"};
  auto reclustered = mat.Materialize(re, {cm}, {"lo_discount"});
  const std::vector<const MaterializedObject*> objects = {base.get(),
                                                          reclustered.get()};

  // Baseline: 1 thread, default batch, small fixed partitions so the base
  // table spans many partitions (the parallel path is actually exercised).
  constexpr size_t kPartitionRows = 1024;
  std::vector<QueryRunResult> baseline;
  {
    ThreadPool pool(1);
    ExecOptions eo;
    eo.partition_rows = kPartitionRows;
    eo.pool = &pool;
    QueryExecutor exec(registry_, model_, eo);
    for (const auto* obj : objects) {
      for (const auto& q : workload_->queries) {
        DiskModel disk(Disk());
        baseline.push_back(exec.Run(q, *obj, &disk));
      }
    }
  }

  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (size_t batch : {1u, 64u, 4096u}) {
      ExecOptions eo;
      eo.batch_rows = batch;
      eo.partition_rows = kPartitionRows;
      eo.pool = &pool;
      QueryExecutor exec(registry_, model_, eo);
      size_t i = 0;
      for (const auto* obj : objects) {
        for (const auto& q : workload_->queries) {
          DiskModel disk(Disk());
          const QueryRunResult run = exec.Run(q, *obj, &disk);
          const QueryRunResult& want = baseline[i++];
          // Bit-identical: EXPECT_EQ on the doubles, not EXPECT_NEAR.
          EXPECT_EQ(run.aggregate, want.aggregate)
              << q.id << " threads=" << threads << " batch=" << batch;
          EXPECT_EQ(run.seconds, want.seconds) << q.id;
          EXPECT_EQ(run.pages_read, want.pages_read) << q.id;
          EXPECT_EQ(run.seeks, want.seeks) << q.id;
          EXPECT_EQ(run.fragments, want.fragments) << q.id;
          EXPECT_EQ(run.rows_output, want.rows_output) << q.id;
          EXPECT_EQ(run.path, want.path) << q.id;
        }
      }
    }
  }
}

// The shared-pool default configuration must agree with an explicit
// 1-thread pool (the serial fallback and the pooled path share partition
// discipline).
TEST_F(ExecTest, SharedPoolMatchesExplicitSingleThread) {
  Materializer mat(universe_, Disk());
  auto base = mat.Materialize(BaseSpec());
  ThreadPool one(1);
  ExecOptions serial;
  serial.pool = &one;
  QueryExecutor exec_shared(registry_, model_);  // defaults: shared pool
  QueryExecutor exec_serial(registry_, model_, serial);
  for (const auto& q : workload_->queries) {
    DiskModel d1(Disk()), d2(Disk());
    const QueryRunResult a = exec_shared.Run(q, *base, &d1);
    const QueryRunResult b = exec_serial.Run(q, *base, &d2);
    EXPECT_EQ(a.aggregate, b.aggregate) << q.id;
    EXPECT_EQ(a.rows_output, b.rows_output) << q.id;
    EXPECT_EQ(a.pages_read, b.pages_read) << q.id;
    EXPECT_EQ(a.seeks, b.seeks) << q.id;
  }
}

// ---------- The plan-pass kernel, driven directly ----------

// QueryExecutor::AggregatePlan with N members must give every member the
// answer of its own one-member RunPlan over the same plan, bit for bit: the
// members here read different column sets (one needs a provenance gather
// of a column the MV does not store, one has no predicate at all) over a
// many-range CM plan, and a one-member B+Tree rid-list plan rides along.
// Billing mode must not matter either, so every combination runs cold and
// pooled.
TEST_F(ExecTest, PlanPassMembersMatchOneMemberRunPlan) {
  Materializer mat(universe_, Disk());
  MvSpec spec = BaseSpec();
  spec.is_base = false;
  spec.name = "re_od";
  spec.clustered_key = {"lo_orderdate"};
  CmSpec cm;
  cm.key_columns = {"d_yearmonthnum"};  // not stored: built via provenance
  auto obj = mat.Materialize(spec, {cm}, {"lo_orderkey"});
  obj->pool_object_id = 1;

  const auto make_query = [](std::string id, std::vector<Predicate> preds,
                             Aggregate agg) {
    Query q;
    q.id = std::move(id);
    q.fact_table = "lineorder";
    q.predicates = std::move(preds);
    q.aggregates = {std::move(agg)};
    return q;
  };
  // Five scattered months: one CM range per month (a sixth tips the
  // planner to a full scan).
  const Query gathered = make_query(
      "months",
      {Predicate::In("d_yearmonthnum",
                     {ssb::YearMonthNum(1992, 1), ssb::YearMonthNum(1993, 4),
                      ssb::YearMonthNum(1994, 7), ssb::YearMonthNum(1995, 10),
                      ssb::YearMonthNum(1996, 1)})},
      {"lo_revenue", ""});
  const Query stored = make_query(
      "stored",
      {Predicate::Range("lo_discount", 1, 3),
       Predicate::Range("lo_quantity", 10, 30)},
      {"lo_extendedprice", "lo_discount"});
  const Query all_rows = make_query("all_rows", {}, {"lo_quantity", ""});
  const Query point =
      make_query("point", {Predicate::Eq("lo_orderkey", 101)},
                 {"lo_revenue", ""});

  const QueryExecutor planner(registry_, model_);
  const ScanPlan cm_plan = planner.SelectPlan(gathered, *obj, Disk());
  ASSERT_EQ(cm_plan.kind, ScanPlan::Kind::kCm);
  ASSERT_GE(cm_plan.ranges.size(), 5u);
  const ScanPlan bt_plan = planner.SelectPlan(point, *obj, Disk());
  ASSERT_EQ(bt_plan.kind, ScanPlan::Kind::kBTree);
  // On their own plans, the gathered and point queries also match the
  // brute-force reference.
  for (const Query* q : {&gathered, &point}) {
    DiskModel disk(Disk());
    const QueryRunResult run = planner.Run(*q, *obj, &disk);
    const auto [ref_agg, ref_rows] = Reference(*q);
    EXPECT_EQ(run.rows_output, ref_rows) << q->id;
    EXPECT_NEAR(run.aggregate, ref_agg, std::abs(ref_agg) * 1e-9 + 1e-6)
        << q->id;
  }

  struct Pass {
    const ScanPlan* plan;
    std::vector<const Query*> members;
  };
  const std::vector<Pass> passes = {
      {&cm_plan, {&gathered, &stored, &all_rows}}, {&bt_plan, {&point}}};
  std::vector<QueryRunResult> first;  // per (pass, member), first config
  for (const bool pooled : {false, true}) {
    BufferPoolOptions bp;
    bp.capacity_pages = 256;
    SharedBufferPool page_pool(bp);
    for (size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      for (size_t batch : {1u, 64u, 4096u}) {
        ExecOptions eo;
        eo.batch_rows = batch;
        eo.partition_rows = 1024;
        eo.pool = &pool;
        eo.page_pool = pooled ? &page_pool : nullptr;
        const QueryExecutor exec(registry_, model_, eo);
        size_t i = 0;
        for (const Pass& p : passes) {
          std::vector<QueryRunResult> got(p.members.size());
          exec.AggregatePlan(*obj, *p.plan, p.members, got.data());
          for (size_t m = 0; m < p.members.size(); ++m, ++i) {
            const Query& q = *p.members[m];
            DiskModel disk(Disk());
            const QueryRunResult solo = exec.RunPlan(q, *obj, *p.plan, &disk);
            EXPECT_EQ(got[m].aggregate, solo.aggregate)
                << q.id << " pooled=" << pooled << " threads=" << threads
                << " batch=" << batch;
            EXPECT_EQ(got[m].rows_output, solo.rows_output) << q.id;
            if (first.size() == i) first.push_back(solo);
            EXPECT_EQ(solo.aggregate, first[i].aggregate) << q.id;
            EXPECT_EQ(solo.rows_output, first[i].rows_output) << q.id;
          }
        }
      }
    }
  }
  EXPECT_GT(first[2].rows_output, first[0].rows_output);  // all_rows
}

// ---------- Golden snapshot across commits ----------

// The determinism suite above compares runs within one build; this pins the
// executor's output across commits. Every SSB query on the base table and
// on an orderdate re-clustering with a CM and a secondary B+Tree, at 1 and 8
// threads and two partition widths, folds into one FNV-1a hash over the
// bits of `aggregate` and `seconds` plus the I/O counters and the path. Any
// change to the constant means a refactor moved a result, not merely a
// schedule.
class ExecGoldenTest : public ExecTest {
 protected:
  static uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
    return h;
  }
  template <typename T>
  static uint64_t Mix(T v, uint64_t h) {
    return Fnv1a(&v, sizeof v, h);
  }
};

// Captured 2026-10-16 from the per-range partition executor (before the
// single plan-pass kernel), gcc 12 -O2, SSB scale 0.02, 1 KB pages.
constexpr uint64_t kGoldenExecSsb = 0x4c7be1faf444cf7bull;

TEST_F(ExecGoldenTest, SsbMatchesSnapshot) {
  Materializer mat(universe_, Disk());
  auto base = mat.Materialize(BaseSpec());
  MvSpec re = BaseSpec();
  re.is_base = false;
  re.name = "re_od";
  re.clustered_key = {"lo_orderdate"};
  CmSpec cm;
  cm.key_columns = {"d_yearmonthnum"};
  auto reclustered =
      mat.Materialize(re, {cm}, {"lo_discount", "lo_orderkey"});
  // SSB never picks the rid-list path, so a point query on the indexed
  // orderkey (plus a provenance predicate, gathered per rid) pins it too.
  std::vector<Query> queries = workload_->queries;
  Query point;
  point.id = "P1";
  point.fact_table = "lineorder";
  point.predicates = {Predicate::Eq("lo_orderkey", 101),
                      Predicate::Range("d_year", 1993, 1996)};
  point.aggregates = {{"lo_extendedprice", "lo_discount"}};
  queries.push_back(point);

  uint64_t h = 1469598103934665603ull;
  for (size_t threads : {1u, 8u}) {
    ThreadPool pool(threads);
    for (size_t partition_rows : {size_t{1024}, ExecOptions{}.partition_rows}) {
      ExecOptions eo;
      eo.partition_rows = partition_rows;
      eo.pool = &pool;
      QueryExecutor exec(registry_, model_, eo);
      for (const MaterializedObject* obj : {base.get(), reclustered.get()}) {
        for (const auto& q : queries) {
          DiskModel disk(Disk());
          const QueryRunResult r = exec.Run(q, *obj, &disk);
          h = Mix(std::bit_cast<uint64_t>(r.aggregate), h);
          h = Mix(std::bit_cast<uint64_t>(r.seconds), h);
          h = Mix(r.rows_output, h);
          h = Mix(r.pages_read, h);
          h = Mix(r.seeks, h);
          h = Mix(r.fragments, h);
          h = Mix(static_cast<int32_t>(r.path), h);
        }
      }
    }
  }
  EXPECT_EQ(h, kGoldenExecSsb) << std::hex << "0x" << h;
}

// ---------- Maintenance (Fig 14 property) ----------

TEST(MaintenanceTest, CostGrowsWithAdditionalObjects) {
  MaintenanceOptions options;
  options.num_inserts = 20000;
  options.buffer_pool_pages = 2000;
  const MaintainedObject base{1000, 200, true};
  double prev = -1.0;
  for (uint64_t mv_pages : {0ull, 1000ull, 4000ull, 16000ull}) {
    std::vector<MaintainedObject> objects = {base};
    if (mv_pages > 0) objects.push_back({mv_pages, mv_pages / 10, false});
    const MaintenanceResult r = SimulateInsertions(objects, options);
    if (prev >= 0.0) {
      EXPECT_GE(r.seconds, prev);
    }
    prev = r.seconds;
  }
}

TEST(MaintenanceTest, OverflowIsSuperlinear) {
  // Paper: 3 GB of MVs is 67x slower than 1 GB. Check the blow-up shape:
  // objects far beyond pool capacity cost disproportionally more.
  MaintenanceOptions options;
  options.num_inserts = 20000;
  options.buffer_pool_pages = 3000;
  const MaintainedObject base{1000, 100, true};
  const MaintenanceResult small = SimulateInsertions(
      {base, MaintainedObject{1500, 100, false}}, options);
  const MaintenanceResult big = SimulateInsertions(
      {base, MaintainedObject{30000, 3000, false}}, options);
  EXPECT_GT(big.seconds, small.seconds * 5);
  EXPECT_GT(big.dirty_evictions, small.dirty_evictions * 5);
}

TEST(MaintenanceTest, AppendOnlyBaseIsCheapWithinPool) {
  MaintenanceOptions options;
  options.num_inserts = 10000;
  options.buffer_pool_pages = 2000;
  const MaintenanceResult r =
      SimulateInsertions({MaintainedObject{1000, 0, true}}, options);
  // Appends hit the same tail page: almost everything is a pool hit.
  EXPECT_LT(r.pool_misses, 10u);
}

// Pins the Figure 14 numbers across commits: every pool size against every
// MV size (index = MV / 10 pages), 20,000 inserts beside an append-only
// base, plus one incremental run split 7,000 + 13,000 + Flush. Folds the
// bits of `seconds` and the three counters into one FNV-1a hash, so a
// change to the maintenance pool that moves any counter or the last bit of
// the simulated time changes the constant.
// Captured 2026-10-17 from the serial maintenance pool, gcc 12 -O2.
constexpr uint64_t kGoldenMaintenance = 0x0626578769a2ee89ull;

TEST(MaintenanceGoldenTest, Fig14MatchesSnapshot) {
  const MaintainedObject base{1000, 200, true};
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const MaintenanceResult& r) {
    for (const uint64_t v : {std::bit_cast<uint64_t>(r.seconds),
                             r.dirty_evictions, r.pool_misses,
                             r.pages_written}) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
  };
  MaintenanceResult one_shot_2000_16000;
  for (const uint64_t pool_pages : {500ull, 2000ull, 3000ull}) {
    for (const uint64_t mv_pages :
         {0ull, 1000ull, 4000ull, 16000ull, 30000ull}) {
      MaintenanceOptions options;
      options.num_inserts = 20000;
      options.buffer_pool_pages = pool_pages;
      std::vector<MaintainedObject> objects = {base};
      if (mv_pages > 0) objects.push_back({mv_pages, mv_pages / 10, false});
      const MaintenanceResult r = SimulateInsertions(objects, options);
      if (pool_pages == 2000 && mv_pages == 16000) one_shot_2000_16000 = r;
      mix(r);
    }
  }
  MaintenanceOptions options;
  options.buffer_pool_pages = 2000;
  InsertionSimulator sim({base, MaintainedObject{16000, 1600, false}},
                         options);
  sim.ApplyInserts(7000);
  sim.ApplyInserts(13000);
  sim.Flush();
  const MaintenanceResult split = sim.Totals();
  EXPECT_EQ(split.seconds, one_shot_2000_16000.seconds);
  EXPECT_EQ(split.pages_written, one_shot_2000_16000.pages_written);
  mix(split);
  EXPECT_EQ(h, kGoldenMaintenance) << std::hex << "0x" << h;
}

}  // namespace
}  // namespace coradd
