// Tests for src/core: DesignContext construction, CORADD designer invariants
// (budget respected, cost monotone in budget, at most one re-clustering per
// fact), baseline designers, evaluator routing, DDL export, and a golden
// hash of every designer's output across a budget grid.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>
#include <string_view>

#include "core/baseline_designers.h"
#include "core/coradd_designer.h"
#include "core/evaluator.h"
#include "obs/metrics.h"
#include "ssb/ssb.h"

namespace coradd {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ssb::SsbOptions options;
    options.scale_factor = 0.003;
    catalog_ = ssb::MakeCatalog(options).release();
    workload_ = new Workload(ssb::MakeWorkload());
    StatsOptions sopt;
    sopt.sample_rows = 2048;
    sopt.disk.page_size_bytes = 1024;
    context_ = new DesignContext(catalog_, *workload_, sopt);
  }
  static void TearDownTestSuite() {
    delete context_;
    delete workload_;
    delete catalog_;
  }

  static CoraddOptions FastOptions() {
    CoraddOptions options;
    options.candidates.grouping.alphas = {0.0, 0.5};
    options.candidates.grouping.restarts = 1;
    options.feedback.max_iterations = 1;
    return options;
  }

  static Catalog* catalog_;
  static Workload* workload_;
  static DesignContext* context_;
};

Catalog* CoreTest::catalog_ = nullptr;
Workload* CoreTest::workload_ = nullptr;
DesignContext* CoreTest::context_ = nullptr;

TEST_F(CoreTest, ContextBuildsUniversePerFact) {
  EXPECT_NE(context_->UniverseForFact("lineorder"), nullptr);
  EXPECT_EQ(context_->UniverseForFact("nope"), nullptr);
  EXPECT_NE(context_->StatsForFact("lineorder"), nullptr);
}

TEST_F(CoreTest, DesignRespectsBudget) {
  CoraddDesigner designer(context_, FastOptions());
  for (uint64_t budget : {0ull, 1ull << 20, 8ull << 20, 64ull << 20}) {
    const DatabaseDesign d = designer.Design(*workload_, budget);
    EXPECT_LE(d.object_bytes, budget) << budget;
    // Every query routed somewhere.
    for (int oi : d.object_for_query) {
      ASSERT_GE(oi, 0);
      ASSERT_LT(static_cast<size_t>(oi), d.objects.size());
    }
  }
}

TEST_F(CoreTest, ExpectedCostMonotoneInBudget) {
  CoraddDesigner designer(context_, FastOptions());
  double prev = -1.0;
  for (uint64_t budget : {0ull, 2ull << 20, 8ull << 20, 32ull << 20}) {
    const DatabaseDesign d = designer.Design(*workload_, budget);
    if (prev >= 0.0) {
      EXPECT_LE(d.expected_seconds, prev + 1e-9) << budget;
    }
    prev = d.expected_seconds;
  }
}

TEST_F(CoreTest, ZeroBudgetIsBaseOnlyDesign) {
  CoraddDesigner designer(context_, FastOptions());
  const DatabaseDesign d = designer.Design(*workload_, 0);
  ASSERT_EQ(d.objects.size(), 1u);
  EXPECT_TRUE(d.objects[0].spec.is_base);
  EXPECT_EQ(d.object_bytes, 0u);
}

TEST_F(CoreTest, AtMostOneFactClustering) {
  CoraddDesigner designer(context_, FastOptions());
  for (uint64_t budget : {4ull << 20, 64ull << 20}) {
    const DatabaseDesign d = designer.Design(*workload_, budget);
    int reclusters = 0;
    for (const auto& obj : d.objects) {
      if (obj.spec.is_fact_recluster && !obj.spec.is_base) ++reclusters;
    }
    EXPECT_LE(reclusters, 1) << budget;
  }
}

TEST_F(CoreTest, RunInfoIsPopulated) {
  CoraddDesigner designer(context_, FastOptions());
  designer.Design(*workload_, 8ull << 20);
  const CoraddRunInfo& info = designer.last_run();
  EXPECT_GT(info.candidates_enumerated, 0u);
  EXPECT_GT(info.candidates_after_domination, 0u);
  EXPECT_LE(info.candidates_after_domination, info.candidates_enumerated);
  EXPECT_GT(info.candgen_seconds, 0.0);
}

TEST_F(CoreTest, ChosenMvsGetCmsWhenSecondaryAccessWins) {
  CoraddDesigner designer(context_, FastOptions());
  const DatabaseDesign d = designer.Design(*workload_, 16ull << 20);
  size_t total_cms = 0;
  for (const auto& obj : d.objects) total_cms += obj.cms.size();
  // With a fact re-clustering in the design, date/geography predicates need
  // CMs; expect at least one somewhere.
  bool has_recluster = false;
  for (const auto& obj : d.objects) {
    has_recluster |= obj.spec.is_fact_recluster && !obj.spec.is_base;
  }
  if (has_recluster) {
    EXPECT_GT(total_cms, 0u);
  }
}

TEST_F(CoreTest, NaiveProducesOnlyDedicatedAndReclusters) {
  NaiveDesigner naive(context_);
  const DatabaseDesign d = naive.Design(*workload_, 32ull << 20);
  for (const auto& obj : d.objects) {
    if (obj.spec.is_fact_recluster) continue;
    EXPECT_EQ(obj.spec.query_group.size(), 1u) << obj.spec.name;
  }
}

TEST_F(CoreTest, CommercialUsesBTreesNotCms) {
  CommercialDesigner commercial(context_);
  const DatabaseDesign d = commercial.Design(*workload_, 32ull << 20);
  for (const auto& obj : d.objects) {
    EXPECT_TRUE(obj.cms.empty()) << obj.spec.name;
  }
  EXPECT_LE(d.object_bytes, 32ull << 20);
}

TEST_F(CoreTest, RunManyMatchesSerialRunsAtAnyThreadCount) {
  // The parallel evaluator contract: RunMany over a sweep of jobs returns
  // exactly what per-job Run calls return, bit for bit, at any pool size.
  CoraddDesigner designer(context_, FastOptions());
  const DatabaseDesign d1 = designer.Design(*workload_, 4ull << 20);
  const DatabaseDesign d2 = designer.Design(*workload_, 16ull << 20);

  ThreadPool serial_pool(1);
  ExecOptions serial;
  serial.pool = &serial_pool;
  DesignEvaluator serial_eval(context_, /*max_resident=*/24, serial);
  const WorkloadRunResult want1 =
      serial_eval.Run(d1, *workload_, designer.model());
  const WorkloadRunResult want2 =
      serial_eval.Run(d2, *workload_, designer.model());

  // max_resident 1 (and 0, read as 1) builds, runs and drops one object
  // at a time; 24 holds every object of this sweep at once.
  for (size_t max_resident : {size_t{24}, size_t{1}, size_t{0}}) {
    for (size_t threads : {2u, 8u}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, max_resident "
                                      << max_resident);
      ThreadPool pool(threads);
      ExecOptions eo;
      eo.pool = &pool;
      DesignEvaluator evaluator(context_, max_resident, eo);
      const std::vector<WorkloadRunResult> got = evaluator.RunMany(
          {EvalJob{&d1, workload_, &designer.model()},
           EvalJob{&d2, workload_, &designer.model()}});
      ASSERT_EQ(got.size(), 2u);
      for (size_t j = 0; j < 2; ++j) {
        const WorkloadRunResult& want = j == 0 ? want1 : want2;
        EXPECT_EQ(got[j].total_seconds, want.total_seconds);
        EXPECT_EQ(got[j].expected_seconds, want.expected_seconds);
        ASSERT_EQ(got[j].per_query.size(), want.per_query.size());
        for (size_t qi = 0; qi < want.per_query.size(); ++qi) {
          EXPECT_EQ(got[j].per_query[qi].aggregate,
                    want.per_query[qi].aggregate);
          EXPECT_EQ(got[j].per_query[qi].real_seconds,
                    want.per_query[qi].real_seconds);
          EXPECT_EQ(got[j].per_query[qi].rows_output,
                    want.per_query[qi].rows_output);
          EXPECT_EQ(got[j].per_query[qi].object_name,
                    want.per_query[qi].object_name);
        }
      }
      // A one-design Run is a one-job RunMany.
      const WorkloadRunResult one = evaluator.Run(d1, *workload_,
                                                  designer.model());
      EXPECT_EQ(one.total_seconds, want1.total_seconds);
    }
  }
}

TEST_F(CoreTest, RunManyBuildsEachDistinctObjectOnce) {
  // Object-major evaluation builds each distinct routed object (by
  // ObjectSignature) exactly once per RunMany call, at any residency bound:
  // a design repeated in the sweep, or an object shared by two designs,
  // costs no second build.
  CoraddDesigner designer(context_, FastOptions());
  const DatabaseDesign d1 = designer.Design(*workload_, 4ull << 20);
  const DatabaseDesign d2 = designer.Design(*workload_, 16ull << 20);
  const std::vector<EvalJob> jobs = {
      EvalJob{&d1, workload_, &designer.model()},
      EvalJob{&d2, workload_, &designer.model()},
      EvalJob{&d1, workload_, &designer.model()}};
  std::set<std::string> distinct;
  for (const EvalJob& job : jobs) {
    for (size_t qi = 0; qi < workload_->queries.size(); ++qi) {
      const int oi = job.design->object_for_query[qi];
      distinct.insert(
          ObjectSignature(job.design->objects[static_cast<size_t>(oi)]));
    }
  }
  const obs::Counter& builds =
      *obs::MetricsRegistry::Global().GetCounter("core.materializations");
  for (size_t max_resident : {size_t{1}, size_t{2}, size_t{24}}) {
    SCOPED_TRACE(testing::Message() << "max_resident " << max_resident);
    DesignEvaluator evaluator(context_, max_resident);
    const uint64_t before = builds.Value();
    ASSERT_EQ(evaluator.RunMany(jobs).size(), jobs.size());
    EXPECT_EQ(builds.Value() - before, distinct.size());
  }
}

#if GTEST_HAS_DEATH_TEST
TEST_F(CoreTest, RunManyRejectsShortRoutingVector) {
  // A routing vector shorter than the workload is a caller bug: routing
  // aborts with a diagnostic rather than reading past the vector's end.
  NaiveDesigner naive(context_);
  DatabaseDesign d = naive.Design(*workload_, 4ull << 20);
  ASSERT_EQ(d.object_for_query.size(), workload_->queries.size());
  d.object_for_query.pop_back();
  DesignEvaluator evaluator(context_);
  EXPECT_DEATH(evaluator.Run(d, *workload_, naive.model()),
               "object_for_query");
}
#endif

TEST_F(CoreTest, RealAndExpectedAgreeOnOrderOfMagnitude) {
  // CORADD-Model tracked reality well in Fig 9; at minimum the two must
  // agree within an order of magnitude on the total.
  CoraddDesigner designer(context_, FastOptions());
  DesignEvaluator evaluator(context_);
  const DatabaseDesign d = designer.Design(*workload_, 16ull << 20);
  const WorkloadRunResult run =
      evaluator.Run(d, *workload_, designer.model());
  EXPECT_GT(run.total_seconds, 0.0);
  EXPECT_GT(run.expected_seconds, 0.0);
  EXPECT_LT(run.total_seconds, run.expected_seconds * 10);
  EXPECT_GT(run.total_seconds, run.expected_seconds / 10);
}

TEST_F(CoreTest, DesignsDisableFeedbackStillValid) {
  CoraddOptions options = FastOptions();
  options.use_feedback = false;
  CoraddDesigner designer(context_, options);
  const DatabaseDesign d = designer.Design(*workload_, 8ull << 20);
  EXPECT_FALSE(d.objects.empty());
  EXPECT_LE(d.object_bytes, 8ull << 20);
}

namespace {
void ExpectDesignsIdentical(const DatabaseDesign& a, const DatabaseDesign& b) {
  EXPECT_EQ(a.designer, b.designer);
  EXPECT_EQ(a.expected_seconds, b.expected_seconds);  // bitwise
  EXPECT_EQ(a.object_bytes, b.object_bytes);
  EXPECT_EQ(a.object_for_query, b.object_for_query);
  ASSERT_EQ(a.objects.size(), b.objects.size());
  for (size_t o = 0; o < a.objects.size(); ++o) {
    EXPECT_EQ(a.objects[o].spec.name, b.objects[o].spec.name) << o;
    EXPECT_EQ(a.objects[o].spec.columns, b.objects[o].spec.columns) << o;
    EXPECT_EQ(a.objects[o].spec.clustered_key, b.objects[o].spec.clustered_key)
        << o;
    EXPECT_EQ(a.objects[o].btree_columns, b.objects[o].btree_columns) << o;
  }
}
}  // namespace

TEST_F(CoreTest, BaselineDesignsUnchangedByCandidateGenCache) {
  // Naive and Commercial route candidate generation through the context's
  // CandidateGenCache (fixing the duplicate-work bug where each budget cell
  // regenerated model-independent specs). A cache-hitting repeat call and a
  // designer on a fresh cold-cache context must select identical designs.
  const uint64_t budget = 8ull << 20;
  NaiveDesigner naive(context_);
  CommercialDesigner commercial(context_);
  const DatabaseDesign n1 = naive.Design(*workload_, budget);
  const DatabaseDesign c1 = commercial.Design(*workload_, budget);
  const uint64_t hits_before = context_->candgen_cache().stats().cache_hits;
  const DatabaseDesign n2 = naive.Design(*workload_, budget);
  const DatabaseDesign c2 = commercial.Design(*workload_, budget);
  EXPECT_GE(context_->candgen_cache().stats().cache_hits, hits_before + 2);
  ExpectDesignsIdentical(n1, n2);
  ExpectDesignsIdentical(c1, c2);

  StatsOptions sopt;
  sopt.sample_rows = 2048;
  sopt.disk.page_size_bytes = 1024;
  DesignContext cold(catalog_, *workload_, sopt);
  NaiveDesigner cold_naive(&cold);
  CommercialDesigner cold_commercial(&cold);
  EXPECT_EQ(cold.candgen_cache().stats().cache_hits, 0u);
  ExpectDesignsIdentical(n1, cold_naive.Design(*workload_, budget));
  ExpectDesignsIdentical(c1, cold_commercial.Design(*workload_, budget));
}

TEST_F(CoreTest, FeedbackNeverHurtsExpectedCost) {
  CoraddOptions with = FastOptions();
  CoraddOptions without = FastOptions();
  without.use_feedback = false;
  CoraddDesigner d_with(context_, with);
  CoraddDesigner d_without(context_, without);
  for (uint64_t budget : {2ull << 20, 16ull << 20}) {
    const double c_with = d_with.Design(*workload_, budget).expected_seconds;
    const double c_without =
        d_without.Design(*workload_, budget).expected_seconds;
    EXPECT_LE(c_with, c_without + 1e-9) << budget;
  }
}

// The tests above compare designs within one build; this pins every
// designer's output across commits. Naive, Commercial and CORADD
// (DesignMany) each design at eight budgets, and every design folds its
// designer, budget, objects (by ObjectSignature), routing, bytes and the
// bits of expected_seconds into one FNV-1a hash. Any change to the constant
// means a refactor moved a design.
class DesignerGoldenTest : public CoreTest {
 protected:
  static uint64_t Mix(std::string_view bytes, uint64_t h) {
    for (const unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ull;
    }
    return h;
  }
  template <typename T>
  static uint64_t Mix(T v, uint64_t h) {
    return Mix(std::string_view(reinterpret_cast<const char*>(&v), sizeof v),
               h);
  }

  /// Budget held, at most one non-base re-clustering per fact, every query
  /// routed to a chosen object.
  static void ExpectInvariants(const DatabaseDesign& d) {
    EXPECT_LE(d.object_bytes, d.budget_bytes) << d.designer;
    std::map<std::string, int> reclusters;
    for (const auto& obj : d.objects) {
      if (obj.spec.is_fact_recluster && !obj.spec.is_base) {
        EXPECT_LE(++reclusters[obj.spec.fact_table], 1)
            << d.designer << " " << d.budget_bytes;
      }
    }
    ASSERT_EQ(d.object_for_query.size(), workload_->queries.size());
    for (const int oi : d.object_for_query) {
      EXPECT_GE(oi, 0) << d.designer << " " << d.budget_bytes;
      EXPECT_LT(oi, static_cast<int>(d.objects.size())) << d.designer;
    }
  }

  static uint64_t MixDesign(const DatabaseDesign& d, uint64_t h) {
    h = Mix(std::string_view(d.designer), h);
    h = Mix(d.budget_bytes, h);
    h = Mix(d.objects.size(), h);
    for (const auto& obj : d.objects) {
      const std::string sig = ObjectSignature(obj);
      h = Mix(sig.size(), h);
      h = Mix(std::string_view(sig), h);
    }
    for (const int oi : d.object_for_query) h = Mix(oi, h);
    h = Mix(d.object_bytes, h);
    return Mix(std::bit_cast<uint64_t>(d.expected_seconds), h);
  }
};

// Captured 2026-10-17 with the serial branch-and-bound engine still in the
// tree (Naive's density greedy ran on it), gcc 12 -O2.
constexpr uint64_t kGoldenDesignsSsb = 0xbe20b63bb03461c6ull;

TEST_F(DesignerGoldenTest, SsbMatchesSnapshot) {
  std::vector<uint64_t> budgets;
  for (const uint64_t mb : {0, 1, 2, 4, 8, 16, 32, 64}) {
    budgets.push_back(mb << 20);
  }
  const NaiveDesigner naive(context_);
  const CommercialDesigner commercial(context_);
  std::vector<DatabaseDesign> designs;
  for (const uint64_t budget : budgets) {
    designs.push_back(naive.Design(*workload_, budget));
  }
  for (const uint64_t budget : budgets) {
    designs.push_back(commercial.Design(*workload_, budget));
  }
  for (auto& d :
       CoraddDesigner(context_, FastOptions()).DesignMany(*workload_, budgets)) {
    designs.push_back(std::move(d));
  }

  uint64_t h = 1469598103934665603ull;
  for (const DatabaseDesign& d : designs) {
    ExpectInvariants(d);
    h = MixDesign(d, h);
  }
  EXPECT_EQ(h, kGoldenDesignsSsb) << std::hex << "0x" << h;
}

}  // namespace
}  // namespace coradd
