// Non-Pareto service-time samplers: closed-form moments vs sampling and
// quadrature; Lemma-2-style rate scaling holds for every family; the
// exponential correctly refuses E[1/X] (paper §5's divergence argument).
#include <gtest/gtest.h>

#include <cmath>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "dist/factory.hpp"
#include "dist/sampler.hpp"
#include "stats/online.hpp"

namespace psd {
namespace {

void expect_sample_moments(const SamplerVariant& d, double tol_mean = 0.02,
                           double tol_inv = 0.02, int n = 300000) {
  Rng rng(4242);
  OnlineMoments m, inv;
  for (int i = 0; i < n; ++i) {
    const double x = d.sample(rng);
    ASSERT_GT(x, 0.0);
    m.add(x);
    inv.add(1.0 / x);
  }
  EXPECT_NEAR(m.mean() / d.mean(), 1.0, tol_mean) << d.name();
  EXPECT_NEAR(inv.mean() / d.mean_inverse(), 1.0, tol_inv) << d.name();
}

// ---------------------------------------------------------------- exponential
TEST(Exponential, MomentsAndSampling) {
  ExponentialSampler e(2.0);
  EXPECT_DOUBLE_EQ(e.mean(), 2.0);
  EXPECT_DOUBLE_EQ(e.second_moment(), 8.0);
  Rng rng(1);
  OnlineMoments m;
  for (int i = 0; i < 200000; ++i) m.add(e.sample(rng));
  EXPECT_NEAR(m.mean(), 2.0, 0.05);
}

TEST(Exponential, MeanInverseDiverges) {
  // The paper's related-work point: slowdown has no finite expectation under
  // unbounded exponential service times.
  ExponentialSampler e(1.0);
  EXPECT_THROW(e.mean_inverse(), std::domain_error);
}

TEST(Exponential, RateScaling) {
  // Lemma-2 scaling now lives on the sealed sampler as a value transform.
  ExponentialSampler e(3.0);
  const ExponentialSampler s = e.scaled_by_rate(1.5);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

// --------------------------------------------------------- bounded exponential
TEST(BoundedExponential, MomentsMatchQuadrature) {
  BoundedExponentialSampler be(1.0, 0.05, 8.0);
  const auto num_mean = integrate(
      [&](double x) { return x * be.pdf(x); }, 0.05, 8.0, 1e-12);
  const auto num_m2 = integrate(
      [&](double x) { return x * x * be.pdf(x); }, 0.05, 8.0, 1e-12);
  EXPECT_NEAR(be.mean(), num_mean, 1e-8);
  EXPECT_NEAR(be.second_moment(), num_m2, 1e-8);
  // pdf integrates to 1
  const auto total = integrate([&](double x) { return be.pdf(x); }, 0.05, 8.0);
  EXPECT_NEAR(total, 1.0, 1e-8);
}

TEST(BoundedExponential, FiniteMeanInverseUnlikeUnbounded) {
  BoundedExponentialSampler be(1.0, 0.05, 8.0);
  EXPECT_GT(be.mean_inverse(), 0.0);
  EXPECT_LT(be.mean_inverse(), 1.0 / 0.05);
  expect_sample_moments(be);
}

TEST(BoundedExponential, SamplesStayInBounds) {
  BoundedExponentialSampler be(2.0, 0.5, 4.0);
  Rng rng(2);
  for (int i = 0; i < 50000; ++i) {
    const double x = be.sample(rng);
    EXPECT_GE(x, 0.5);
    EXPECT_LE(x, 4.0);
  }
}

TEST(BoundedExponential, RateScalingScalesAllMoments) {
  BoundedExponentialSampler be(1.0, 0.1, 10.0);
  const BoundedExponentialSampler s = be.scaled_by_rate(2.0);
  EXPECT_NEAR(s.mean(), be.mean() / 2.0, 1e-9);
  EXPECT_NEAR(s.second_moment(), be.second_moment() / 4.0, 1e-9);
  EXPECT_NEAR(s.mean_inverse(), 2.0 * be.mean_inverse(), 1e-6);
}

TEST(BoundedExponential, RejectsZeroLowerBound) {
  EXPECT_THROW(BoundedExponentialSampler(1.0, 0.0, 5.0),
               std::invalid_argument);
}

// -------------------------------------------------------------- deterministic
TEST(Deterministic, AllMomentsExact) {
  const SamplerVariant d = DeterministicSampler(2.5);
  EXPECT_DOUBLE_EQ(d.mean(), 2.5);
  EXPECT_DOUBLE_EQ(d.second_moment(), 6.25);
  EXPECT_DOUBLE_EQ(d.mean_inverse(), 0.4);
  EXPECT_DOUBLE_EQ(d.scv(), 0.0);
  Rng rng(3);
  EXPECT_DOUBLE_EQ(d.sample(rng), 2.5);
}

TEST(Deterministic, RateScaling) {
  DeterministicSampler d(3.0);
  const DeterministicSampler s = d.scaled_by_rate(6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.5);
  EXPECT_DOUBLE_EQ(s.mean_inverse(), 2.0);
}

// ------------------------------------------------------------------ lognormal
TEST(Lognormal, ClosedFormMoments) {
  LognormalSampler ln(0.5, 0.75);
  const double s2 = 0.75 * 0.75;
  EXPECT_NEAR(ln.mean(), std::exp(0.5 + s2 / 2), 1e-12);
  EXPECT_NEAR(ln.second_moment(), std::exp(1.0 + 2 * s2), 1e-12);
  EXPECT_NEAR(ln.mean_inverse(), std::exp(-0.5 + s2 / 2), 1e-12);
  expect_sample_moments(ln, 0.03, 0.03);
}

TEST(Lognormal, FromMeanScvRoundTrip) {
  const SamplerVariant ln = LognormalSampler::from_mean_scv(2.0, 4.0);
  EXPECT_NEAR(ln.mean(), 2.0, 1e-9);
  EXPECT_NEAR(ln.scv(), 4.0, 1e-9);
}

TEST(Lognormal, RateScalingShiftsMu) {
  LognormalSampler ln(1.0, 0.5);
  const LognormalSampler s = ln.scaled_by_rate(std::exp(1.0));
  EXPECT_NEAR(s.mean(), ln.mean() / std::exp(1.0), 1e-9);
}

// -------------------------------------------------------------------- uniform
TEST(Uniform, ClosedFormMoments) {
  UniformSampler u(1.0, 3.0);
  EXPECT_DOUBLE_EQ(u.mean(), 2.0);
  EXPECT_NEAR(u.second_moment(), 13.0 / 3.0, 1e-12);
  EXPECT_NEAR(u.mean_inverse(), std::log(3.0) / 2.0, 1e-12);
  expect_sample_moments(u, 0.01, 0.01);
}

TEST(Uniform, RequiresPositiveLowerBound) {
  EXPECT_THROW(UniformSampler(0.0, 1.0), std::invalid_argument);
}

// --------------------------------------------------------------------- pareto
TEST(Pareto, MomentExistenceThresholds) {
  ParetoSampler p12(1.2, 1.0);
  EXPECT_TRUE(std::isfinite(p12.mean()));
  EXPECT_TRUE(std::isinf(p12.second_moment()));  // alpha <= 2
  ParetoSampler p08(0.8, 1.0);
  EXPECT_TRUE(std::isinf(p08.mean()));  // alpha <= 1
  ParetoSampler p30(3.0, 1.0);
  EXPECT_TRUE(std::isfinite(p30.second_moment()));
}

TEST(Pareto, MeanInverseAlwaysFinite) {
  ParetoSampler p(1.5, 2.0);
  EXPECT_NEAR(p.mean_inverse(), 1.5 / (2.5 * 2.0), 1e-12);
}

TEST(Pareto, SamplesAboveLowerBound) {
  ParetoSampler p(1.5, 0.5);
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(p.sample(rng), 0.5);
}

// ------------------------------------------------------------------ empirical
TEST(Empirical, MomentsAreSampleMoments) {
  EmpiricalSampler e({1.0, 2.0, 4.0});
  EXPECT_NEAR(e.mean(), 7.0 / 3.0, 1e-12);
  EXPECT_NEAR(e.second_moment(), 21.0 / 3.0, 1e-12);
  EXPECT_NEAR(e.mean_inverse(), (1.0 + 0.5 + 0.25) / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(e.min_value(), 1.0);
  EXPECT_DOUBLE_EQ(e.max_value(), 4.0);
}

TEST(Empirical, ResamplesOnlyGivenValues) {
  EmpiricalSampler e({1.0, 2.0, 4.0});
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = e.sample(rng);
    EXPECT_TRUE(x == 1.0 || x == 2.0 || x == 4.0);
  }
}

TEST(Empirical, RejectsEmptyAndNonPositive) {
  EXPECT_THROW(EmpiricalSampler(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(EmpiricalSampler({1.0, -2.0}), std::invalid_argument);
}

TEST(Empirical, RateScalingDividesSamples) {
  EmpiricalSampler e({2.0, 4.0});
  const EmpiricalSampler s = e.scaled_by_rate(2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 1.5);
  EXPECT_DOUBLE_EQ(s.min_value(), 1.0);
}

// -------------------------------------------------------------------- factory
TEST(Factory, BuildsEveryKind) {
  EXPECT_EQ(make_sampler(DistSpec::bounded_pareto(1.5, 0.1, 100)).mean(),
            BoundedParetoSampler(1.5, 0.1, 100).mean());
  EXPECT_DOUBLE_EQ(make_sampler(DistSpec::deterministic(2.0)).mean(), 2.0);
  EXPECT_DOUBLE_EQ(make_sampler(DistSpec::exponential(3.0)).mean(), 3.0);
  EXPECT_NEAR(make_sampler(DistSpec::lognormal(2.0, 1.0)).mean(), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(make_sampler(DistSpec::uniform(1.0, 3.0)).mean(), 2.0);
  EXPECT_GT(make_sampler(DistSpec::bounded_exponential(1.0, 0.1, 5.0)).mean(),
            0.0);
}

TEST(Factory, ScaledSamplerKeepsKind) {
  const SamplerVariant d = make_sampler(DistSpec::bounded_pareto(1.5, 0.1, 100));
  const SamplerVariant s = d.scaled_by_rate(0.5);
  EXPECT_NEAR(s.mean(), d.mean() * 2.0, 1e-9);
  EXPECT_NE(s.get_if<BoundedParetoSampler>(), nullptr);
}

}  // namespace
}  // namespace psd
