// Log histograms: binning, quantiles, overflow handling.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "stats/histogram.hpp"
#include "stats/percentile.hpp"

namespace psd {
namespace {

TEST(LogHistogram, RejectsBadBounds) {
  EXPECT_THROW(LogHistogram(0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(LogHistogram(10.0, 1.0), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 10.0, 0), std::invalid_argument);
}

TEST(LogHistogram, CountsAndEmptyQuantile) {
  LogHistogram h(0.1, 1000.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  h.add(1.0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(LogHistogram, UnderflowAndOverflowRetainExtremes) {
  LogHistogram h(1.0, 100.0);
  h.add(0.01);   // underflow
  h.add(5000.0); // overflow
  h.add(10.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.01);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5000.0);
}

TEST(LogHistogram, QuantileAccuracyOnLogUniform) {
  Rng rng(3);
  LogHistogram h(0.1, 1000.0, 50);
  std::vector<double> all;
  for (int i = 0; i < 100000; ++i) {
    const double x = std::pow(10.0, rng.uniform(-1.0, 3.0));
    h.add(x);
    all.push_back(x);
  }
  for (double q : {0.1, 0.5, 0.9}) {
    const double exact = percentile_of(all, q);
    EXPECT_NEAR(h.quantile(q) / exact, 1.0, 0.05) << "q=" << q;
  }
}

TEST(LogHistogram, BinLowerIsMonotone) {
  LogHistogram h(1.0, 1000.0, 10);
  for (std::size_t i = 1; i < h.bin_count(); ++i) {
    EXPECT_GT(h.bin_lower(i), h.bin_lower(i - 1));
  }
  EXPECT_NEAR(h.bin_lower(0), 1.0, 1e-12);
}

TEST(LogHistogram, MergeMatchesSingleCollectorExactly) {
  // Shards collect disjoint streams; the fold must be bit-identical to one
  // histogram that saw every sample (this is what the rt report relies on).
  Rng rng(11);
  LogHistogram ground(0.1, 1000.0, 20);
  LogHistogram shard_a(0.1, 1000.0, 20);
  LogHistogram shard_b(0.1, 1000.0, 20);
  LogHistogram shard_c(0.1, 1000.0, 20);  // stays empty
  for (int i = 0; i < 20000; ++i) {
    const double x = std::pow(10.0, rng.uniform(-2.0, 4.0));  // spills both ends
    ground.add(x);
    (i % 2 == 0 ? shard_a : shard_b).add(x);
  }
  LogHistogram merged = shard_a;
  merged.merge(shard_b);
  merged.merge(shard_c);
  ASSERT_EQ(merged.count(), ground.count());
  ASSERT_EQ(merged.bin_count(), ground.bin_count());
  for (std::size_t i = 0; i < ground.bin_count(); ++i) {
    EXPECT_EQ(merged.bin(i), ground.bin(i)) << "bin " << i;
  }
  for (double q : {0.0, 0.05, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), ground.quantile(q)) << "q=" << q;
  }
}

TEST(LogHistogram, MergeRejectsLayoutMismatch) {
  LogHistogram a(0.1, 1000.0, 20);
  LogHistogram b(0.1, 1000.0, 10);   // different bin count
  LogHistogram c(1.0, 1000.0, 20);   // different lower bound
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

}  // namespace
}  // namespace psd
