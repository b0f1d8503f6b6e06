// Tests for src/stats: histogram estimates, the one-scan synopsis,
// pairwise correlation strengths, and the AE estimator.
#include <gtest/gtest.h>

#include <cmath>

#include "catalog/universe.h"
#include "common/rng.h"
#include "stats/ae_estimator.h"
#include "stats/correlation.h"
#include "stats/histogram.h"
#include "stats/stats_collector.h"

namespace coradd {
namespace {

// ---------- Histogram ----------

TEST(HistogramTest, ExactOnNarrowDomain) {
  std::vector<int64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i % 10);
  const Histogram h = Histogram::Build(values, 256);
  EXPECT_EQ(h.distinct_estimate(), 10u);
  EXPECT_NEAR(h.SelectivityEqual(3), 0.1, 1e-9);
  EXPECT_NEAR(h.SelectivityRange(0, 4), 0.5, 1e-9);
  EXPECT_NEAR(h.SelectivityIn({1, 2}), 0.2, 1e-9);
}

TEST(HistogramTest, OutOfDomainIsZero) {
  const Histogram h = Histogram::Build({1, 2, 3}, 16);
  EXPECT_EQ(h.SelectivityEqual(99), 0.0);
  EXPECT_EQ(h.SelectivityRange(10, 20), 0.0);
  EXPECT_EQ(h.SelectivityRange(3, 1), 0.0);
}

TEST(HistogramTest, RangeClampsToDomain) {
  const Histogram h = Histogram::Build({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 16);
  EXPECT_NEAR(h.SelectivityRange(-100, 100), 1.0, 1e-9);
  EXPECT_NEAR(h.SelectivityRange(8, 100), 0.2, 1e-9);
}

TEST(HistogramTest, WideDomainApproximates) {
  Rng rng(3);
  std::vector<int64_t> values;
  for (int i = 0; i < 50000; ++i) {
    values.push_back(static_cast<int64_t>(rng.Uniform(1000000)));
  }
  const Histogram h = Histogram::Build(values, 128);
  EXPECT_EQ(h.num_buckets(), 128u);
  // Uniform data: a 10% range selects ~10%.
  EXPECT_NEAR(h.SelectivityRange(0, 99999), 0.1, 0.02);
}

TEST(HistogramTest, EmptyInput) {
  const Histogram h = Histogram::Build({}, 16);
  EXPECT_EQ(h.num_rows(), 0u);
  EXPECT_EQ(h.SelectivityEqual(1), 0.0);
}

TEST(HistogramTest, SkewedEqualityUsesBucketDistinct) {
  // 990 copies of value 5 plus ten other values: eq on 5 within its bucket.
  std::vector<int64_t> values(990, 5);
  for (int64_t i = 0; i < 10; ++i) values.push_back(100 + i);
  const Histogram h = Histogram::Build(values, 256);
  EXPECT_NEAR(h.SelectivityEqual(5), 0.99, 1e-9);
}

// ---------- AE / GEE ----------

struct AeCase {
  uint64_t distinct;
  uint64_t total;
  double tolerance_factor;  // allowed multiplicative error
};

class AeEstimatorTest : public ::testing::TestWithParam<AeCase> {};

TEST_P(AeEstimatorTest, EstimatesUniformWithinFactor) {
  const AeCase c = GetParam();
  Rng rng(c.distinct * 7 + 1);
  std::vector<int64_t> sample;
  const size_t n = 4096;
  for (size_t i = 0; i < n; ++i) {
    sample.push_back(static_cast<int64_t>(rng.Uniform(c.distinct)));
  }
  const auto profile = SampleFrequencyProfile::FromValues(sample, c.total);
  const double ae = EstimateDistinctAe(profile);
  EXPECT_GE(ae, static_cast<double>(c.distinct) / c.tolerance_factor);
  EXPECT_LE(ae, static_cast<double>(c.distinct) * c.tolerance_factor);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AeEstimatorTest,
    ::testing::Values(AeCase{100, 100000, 1.5}, AeCase{1000, 100000, 2.0},
                      AeCase{5000, 1000000, 6.0}, AeCase{50, 50000, 1.5}));

TEST(AeEstimatorTest, FullSampleIsExact) {
  std::vector<int64_t> sample;
  for (int64_t v = 0; v < 500; ++v) sample.push_back(v % 50);
  const auto profile = SampleFrequencyProfile::FromValues(sample, 500);
  EXPECT_NEAR(EstimateDistinctAe(profile), 50.0, 1e-9);
  EXPECT_NEAR(EstimateDistinctGee(profile), 50.0, 1e-9);
}

TEST(AeEstimatorTest, ClampedToAtLeastSampleDistinct) {
  std::vector<int64_t> sample = {1, 2, 3, 4, 5};
  const auto profile = SampleFrequencyProfile::FromValues(sample, 1000000);
  EXPECT_GE(EstimateDistinctAe(profile), 5.0);
  EXPECT_LE(EstimateDistinctAe(profile), 1000000.0);
}

TEST(AeEstimatorTest, GeeMatchesFormula) {
  // 4 singletons, 1 doubleton: d=5, f1=4. GEE = sqrt(N/n)*4 + 1.
  std::vector<int64_t> sample = {1, 2, 3, 4, 5, 5};
  const auto p = SampleFrequencyProfile::FromValues(sample, 600);
  EXPECT_EQ(p.f1, 4u);
  EXPECT_EQ(p.f2, 1u);
  EXPECT_EQ(p.distinct_in_sample, 5u);
  EXPECT_NEAR(EstimateDistinctGee(p), std::sqrt(100.0) * 4 + 1, 1e-9);
}

TEST(AeEstimatorTest, SortedProfileMatchesHashedProfile) {
  Rng rng(5);
  std::vector<int64_t> sample;
  for (int i = 0; i < 2000; ++i) {
    sample.push_back(static_cast<int64_t>(rng.Uniform(300)));
  }
  const auto a = SampleFrequencyProfile::FromValues(sample, 100000);
  std::sort(sample.begin(), sample.end());
  const auto b = SampleFrequencyProfile::FromSortedValues(sample, 100000);
  EXPECT_EQ(a.f1, b.f1);
  EXPECT_EQ(a.f2, b.f2);
  EXPECT_EQ(a.distinct_in_sample, b.distinct_in_sample);
}

// ---------- Synopsis + CorrelationCatalog ----------

class CorrelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // city -> state (10 cities per state), val independent.
    auto dim = std::make_unique<Table>(
        Schema({{"d_key", ValueType::kInt, 4, {}},
                {"d_city", ValueType::kInt, 4, {}},
                {"d_state", ValueType::kInt, 4, {}}}),
        "dim");
    for (int64_t k = 0; k < 200; ++k) dim->AppendRow({k, k, k / 10});
    catalog_.AddTable(std::move(dim));

    auto fact = std::make_unique<Table>(
        Schema({{"f_id", ValueType::kInt, 4, {}},
                {"f_dim", ValueType::kInt, 4, {}},
                {"f_val", ValueType::kInt, 4, {}}}),
        "fact");
    Rng rng(77);
    for (int64_t i = 0; i < 20000; ++i) {
      fact->AppendRow({i, static_cast<int64_t>(rng.Uniform(200)),
                       static_cast<int64_t>(rng.Uniform(1000))});
    }
    catalog_.AddTable(std::move(fact));
    info_ = {"fact", {"f_id"}, {{"f_dim", "dim", "d_key"}}};
    catalog_.RegisterFactTable(info_);
    universe_ = std::make_unique<Universe>(catalog_, info_);
  }

  Catalog catalog_;
  FactTableInfo info_;
  std::unique_ptr<Universe> universe_;
};

TEST_F(CorrelationTest, SynopsisDrawsRequestedRows) {
  const Synopsis s = Synopsis::Build(*universe_, 1000, 42);
  EXPECT_EQ(s.sample_rows(), 1000u);
  EXPECT_EQ(s.total_rows(), 20000u);
  EXPECT_EQ(s.num_columns(), universe_->NumColumns());
}

TEST_F(CorrelationTest, SynopsisCapsAtTableSize) {
  const Synopsis s = Synopsis::Build(*universe_, 100000, 42);
  EXPECT_EQ(s.sample_rows(), 20000u);
}

TEST_F(CorrelationTest, SynopsisDeterministic) {
  const Synopsis a = Synopsis::Build(*universe_, 500, 42);
  const Synopsis b = Synopsis::Build(*universe_, 500, 42);
  EXPECT_EQ(a.Values(0), b.Values(0));
}

TEST_F(CorrelationTest, FunctionalDependencyHasStrengthOne) {
  const Synopsis syn = Synopsis::Build(*universe_, 4096, 42);
  CorrelationCatalog corr(universe_.get(), &syn, /*exact=*/true);
  const int city = universe_->ColumnIndex("d_city");
  const int state = universe_->ColumnIndex("d_state");
  EXPECT_NEAR(corr.Strength(city, state), 1.0, 1e-9);
  // Reverse direction: each state has 10 cities -> strength 0.1.
  EXPECT_NEAR(corr.Strength(state, city), 0.1, 1e-9);
}

TEST_F(CorrelationTest, IndependentAttributesAreWeak) {
  const Synopsis syn = Synopsis::Build(*universe_, 4096, 42);
  CorrelationCatalog corr(universe_.get(), &syn, /*exact=*/true);
  const int state = universe_->ColumnIndex("d_state");
  const int val = universe_->ColumnIndex("f_val");
  // 20 states x 1000 vals: joint ~ 20000 capped by rows -> strength ~ 1/1000.
  EXPECT_LT(corr.Strength(state, val), 0.01);
}

TEST_F(CorrelationTest, EstimatedStrengthTracksExact) {
  const Synopsis syn = Synopsis::Build(*universe_, 4096, 42);
  CorrelationCatalog exact(universe_.get(), &syn, /*exact=*/true);
  CorrelationCatalog estimated(universe_.get(), &syn, /*exact=*/false);
  const int city = universe_->ColumnIndex("d_city");
  const int state = universe_->ColumnIndex("d_state");
  EXPECT_NEAR(estimated.Strength(city, state), exact.Strength(city, state),
              0.2);
}

TEST_F(CorrelationTest, StatsCollectorBuildsEverything) {
  StatsOptions options;
  options.sample_rows = 2048;
  UniverseStats stats(universe_.get(), options);
  EXPECT_EQ(stats.num_rows(), 20000u);
  EXPECT_NEAR(stats.ColumnDistinct(universe_->ColumnIndex("d_state")), 20.0,
              1e-9);
  EXPECT_GT(stats.CompositeDistinct({universe_->ColumnIndex("d_city"),
                                     universe_->ColumnIndex("d_state")}),
            100.0);
  EXPECT_EQ(stats.synopsis().sample_rows(), 2048u);
}

}  // namespace
}  // namespace coradd
