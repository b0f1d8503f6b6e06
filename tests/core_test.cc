// Tests for src/core: DesignContext construction, CORADD designer invariants
// (budget respected, cost monotone in budget, at most one re-clustering per
// fact), baseline designers, evaluator routing, DDL export, and a golden
// hash of every designer's output across a budget grid.
#include <gtest/gtest.h>

#include <algorithm>
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
    delete coradd_designs_;
    delete coradd_;
    coradd_designs_ = nullptr;
    coradd_ = nullptr;
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

  /// 0, 1, 2, 4, ... 64 MB.
  static std::vector<uint64_t> Budgets() {
    std::vector<uint64_t> budgets;
    for (const uint64_t mb : {0, 1, 2, 4, 8, 16, 32, 64}) {
      budgets.push_back(mb << 20);
    }
    return budgets;
  }

  /// The suite's FastOptions CORADD designer and its designs of Budgets(),
  /// made by one DesignMany call on first use. Designing is deterministic,
  /// so tests that only read a design share these.
  static const CoraddDesigner& Coradd() {
    if (coradd_ == nullptr) {
      coradd_ = new CoraddDesigner(context_, FastOptions());
      coradd_designs_ = new std::vector<DatabaseDesign>(
          coradd_->DesignMany(*workload_, Budgets()));
    }
    return *coradd_;
  }
  static const std::vector<DatabaseDesign>& CoraddDesigns() {
    Coradd();
    return *coradd_designs_;
  }
  static const DatabaseDesign& CoraddDesignFor(uint64_t budget) {
    const std::vector<DatabaseDesign>& designs = CoraddDesigns();
    const auto it = std::find_if(
        designs.begin(), designs.end(),
        [&](const DatabaseDesign& d) { return d.budget_bytes == budget; });
    CORADD_CHECK(it != designs.end());  // `budget` is one of Budgets()
    return *it;
  }

  static Catalog* catalog_;
  static Workload* workload_;
  static DesignContext* context_;
  static CoraddDesigner* coradd_;
  static std::vector<DatabaseDesign>* coradd_designs_;
};

Catalog* CoreTest::catalog_ = nullptr;
Workload* CoreTest::workload_ = nullptr;
DesignContext* CoreTest::context_ = nullptr;
CoraddDesigner* CoreTest::coradd_ = nullptr;
std::vector<DatabaseDesign>* CoreTest::coradd_designs_ = nullptr;

TEST_F(CoreTest, ContextBuildsUniversePerFact) {
  EXPECT_NE(context_->UniverseForFact("lineorder"), nullptr);
  EXPECT_EQ(context_->UniverseForFact("nope"), nullptr);
  EXPECT_NE(context_->StatsForFact("lineorder"), nullptr);
}

TEST_F(CoreTest, DesignRespectsBudget) {
  for (const DatabaseDesign& d : CoraddDesigns()) {
    EXPECT_LE(d.object_bytes, d.budget_bytes) << d.budget_bytes;
    // Every query routed somewhere.
    for (int oi : d.object_for_query) {
      ASSERT_GE(oi, 0);
      ASSERT_LT(static_cast<size_t>(oi), d.objects.size());
    }
  }
}

TEST_F(CoreTest, ExpectedCostMonotoneInBudget) {
  double prev = -1.0;
  for (const DatabaseDesign& d : CoraddDesigns()) {
    if (prev >= 0.0) {
      EXPECT_LE(d.expected_seconds, prev + 1e-9) << d.budget_bytes;
    }
    prev = d.expected_seconds;
  }
}

TEST_F(CoreTest, ZeroBudgetIsBaseOnlyDesign) {
  const DatabaseDesign& d = CoraddDesignFor(0);
  ASSERT_EQ(d.objects.size(), 1u);
  EXPECT_TRUE(d.objects[0].spec.is_base);
  EXPECT_EQ(d.object_bytes, 0u);
}

TEST_F(CoreTest, AtMostOneFactClustering) {
  for (const DatabaseDesign& d : CoraddDesigns()) {
    int reclusters = 0;
    for (const auto& obj : d.objects) {
      if (obj.spec.is_fact_recluster && !obj.spec.is_base) ++reclusters;
    }
    EXPECT_LE(reclusters, 1) << d.budget_bytes;
  }
}

TEST_F(CoreTest, RunInfoIsPopulated) {
  const CoraddRunInfo info = Coradd().last_run();
  EXPECT_GT(info.candidates_enumerated, 0u);
  EXPECT_GT(info.candidates_after_domination, 0u);
  EXPECT_LE(info.candidates_after_domination, info.candidates_enumerated);
  EXPECT_GT(info.candgen_seconds, 0.0);
}

TEST_F(CoreTest, ChosenMvsGetCmsWhenSecondaryAccessWins) {
  const DatabaseDesign& d = CoraddDesignFor(16ull << 20);
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
  const CoraddDesigner& designer = Coradd();
  const DatabaseDesign& d1 = CoraddDesignFor(4ull << 20);
  const DatabaseDesign& d2 = CoraddDesignFor(16ull << 20);

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
  const CoraddDesigner& designer = Coradd();
  const DatabaseDesign& d1 = CoraddDesignFor(4ull << 20);
  const DatabaseDesign& d2 = CoraddDesignFor(16ull << 20);
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
  DesignEvaluator evaluator(context_);
  const WorkloadRunResult run = evaluator.Run(
      CoraddDesignFor(16ull << 20), *workload_, Coradd().model());
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

TEST_F(CoreTest, FeedbackNeverHurtsExpectedCost) {
  CoraddOptions without = FastOptions();
  without.use_feedback = false;
  const std::vector<uint64_t> budgets = {2ull << 20, 16ull << 20};
  const std::vector<DatabaseDesign> d_without =
      CoraddDesigner(context_, without).DesignMany(*workload_, budgets);
  for (size_t b = 0; b < budgets.size(); ++b) {
    EXPECT_LE(CoraddDesignFor(budgets[b]).expected_seconds,
              d_without[b].expected_seconds + 1e-9)
        << budgets[b];
  }
}

// The tests above compare designs within one build; this pins every
// designer's output across commits. Naive, Commercial and CORADD each
// design eight budgets in one DesignMany call, and every design folds its
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
  const std::vector<uint64_t> budgets = Budgets();
  const NaiveDesigner naive(context_);
  const CommercialDesigner commercial(context_);
  std::vector<DatabaseDesign> designs = naive.DesignMany(*workload_, budgets);
  for (auto& d : commercial.DesignMany(*workload_, budgets)) {
    designs.push_back(std::move(d));
  }
  for (const DatabaseDesign& d : CoraddDesigns()) designs.push_back(d);
  // A one-budget Design is the matching element of the grid (budgets[4]
  // is 8 MB).
  ExpectDesignsIdentical(naive.Design(*workload_, 8ull << 20), designs[4]);
  ExpectDesignsIdentical(commercial.Design(*workload_, 8ull << 20),
                         designs[budgets.size() + 4]);

  uint64_t h = 1469598103934665603ull;
  for (const DatabaseDesign& d : designs) {
    ExpectInvariants(d);
    h = MixDesign(d, h);
  }
  EXPECT_EQ(h, kGoldenDesignsSsb) << std::hex << "0x" << h;
}

}  // namespace
}  // namespace coradd
