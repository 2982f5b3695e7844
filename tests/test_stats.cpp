#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "checkers/chi_square.hpp"

namespace mh {
namespace {

TEST(RunningStats, MeanAndCount) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(RunningStats, MergeMatchesSerialAccumulation) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats serial;
  for (double x : xs) serial.add(x);
  // Split the stream at every cut point; the merged shards must reproduce the
  // serial accumulator (no double-counting, Chan-stable means).
  for (std::size_t cut = 0; cut <= xs.size(); ++cut) {
    RunningStats left, right;
    for (std::size_t i = 0; i < cut; ++i) left.add(xs[i]);
    for (std::size_t i = cut; i < xs.size(); ++i) right.add(xs[i]);
    left.merge(right);
    EXPECT_EQ(left.count(), serial.count());
    EXPECT_NEAR(left.mean(), serial.mean(), 1e-12);
  }
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats s;
  s.add(1.0);
  s.add(3.0);
  RunningStats empty;
  s.merge(empty);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  empty.merge(s);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Wilson, CenteredForHalf) {
  const Proportion p = wilson_interval(500, 1000);
  EXPECT_NEAR(p.estimate, 0.5, 1e-12);
  EXPECT_LT(p.lo, 0.5);
  EXPECT_GT(p.hi, 0.5);
  EXPECT_NEAR(p.hi - p.lo, 2 * 2.5758 * std::sqrt(0.25 / 1000), 0.005);
}

TEST(Wilson, ZeroSuccessesStillPositiveUpper) {
  const Proportion p = wilson_interval(0, 1000);
  EXPECT_EQ(p.estimate, 0.0);
  EXPECT_EQ(p.lo, 0.0);
  EXPECT_GT(p.hi, 0.0);
  EXPECT_LT(p.hi, 0.02);
}

TEST(Wilson, AllSuccesses) {
  const Proportion p = wilson_interval(100, 100);
  EXPECT_EQ(p.estimate, 1.0);
  EXPECT_LT(p.lo, 1.0);
  EXPECT_EQ(p.hi, 1.0);
}

TEST(Wilson, RejectsBadInput) {
  EXPECT_THROW(wilson_interval(5, 0), std::invalid_argument);
  EXPECT_THROW(wilson_interval(11, 10), std::invalid_argument);
}

TEST(ChiSquare, PerfectFitIsSmall) {
  const std::vector<std::size_t> observed{250, 250, 250, 250};
  const std::vector<double> expected{0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(chi_square_statistic(observed, expected), 0.0, 1e-12);
}

TEST(ChiSquare, DetectsGrossMisfit) {
  const std::vector<std::size_t> observed{900, 50, 25, 25};
  const std::vector<double> expected{0.25, 0.25, 0.25, 0.25};
  EXPECT_GT(chi_square_statistic(observed, expected), chi_square_critical(3));
}

TEST(ChiSquare, CriticalValuesRoughlyStandard) {
  // chi2_{0.99, 3} ~ 11.34, chi2_{0.99, 10} ~ 23.21.
  EXPECT_NEAR(chi_square_critical(3, 0.01), 11.34, 0.8);
  EXPECT_NEAR(chi_square_critical(10, 0.01), 23.21, 0.8);
}

TEST(LeastSquares, RecoversExactLine) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{3, 5, 7, 9, 11};  // y = 1 + 2x
  const LinearFit fit = least_squares(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(ClopperPearson, IncompleteBetaMatchesClosedForms) {
  // I_x(1, b) = 1 - (1-x)^b and I_x(a, 1) = x^a.
  EXPECT_NEAR(regularized_incomplete_beta(1.0, 3.0, 0.2), 1.0 - std::pow(0.8, 3), 1e-12);
  EXPECT_NEAR(regularized_incomplete_beta(4.0, 1.0, 0.7), std::pow(0.7, 4), 1e-12);
  // Symmetry: I_x(a, b) = 1 - I_{1-x}(b, a).
  EXPECT_NEAR(regularized_incomplete_beta(3.5, 2.25, 0.4),
              1.0 - regularized_incomplete_beta(2.25, 3.5, 0.6), 1e-12);
  EXPECT_EQ(regularized_incomplete_beta(2.0, 2.0, 0.0), 0.0);
  EXPECT_EQ(regularized_incomplete_beta(2.0, 2.0, 1.0), 1.0);
}

TEST(ClopperPearson, EndpointsInvertTheBinomialTails) {
  // The defining property: at the lower endpoint, Pr[X >= x | p = lo] = a/2;
  // at the upper, Pr[X <= x | p = hi] = a/2. Both tails are incomplete betas:
  // Pr[X >= x] = I_p(x, n - x + 1) and Pr[X <= x] = 1 - I_p(x + 1, n - x).
  const std::size_t n = 50, x = 7;
  const double confidence = 0.95;
  const Proportion band = clopper_pearson_interval(x, n, confidence);
  EXPECT_NEAR(regularized_incomplete_beta(x, n - x + 1.0, band.lo), 0.025, 1e-9);
  EXPECT_NEAR(1.0 - regularized_incomplete_beta(x + 1.0, n - x, band.hi), 0.025, 1e-9);
  EXPECT_LT(band.lo, band.estimate);
  EXPECT_GT(band.hi, band.estimate);
}

TEST(ClopperPearson, ExtremesAndWidthOrdering) {
  const Proportion none = clopper_pearson_interval(0, 100);
  EXPECT_EQ(none.lo, 0.0);
  EXPECT_GT(none.hi, 0.0);
  const Proportion all = clopper_pearson_interval(100, 100);
  EXPECT_EQ(all.hi, 1.0);
  EXPECT_LT(all.lo, 1.0);
  // Higher confidence widens the band.
  const Proportion loose = clopper_pearson_interval(20, 200, 0.9);
  const Proportion tight = clopper_pearson_interval(20, 200, 0.999999);
  EXPECT_LT(tight.lo, loose.lo);
  EXPECT_GT(tight.hi, loose.hi);
  EXPECT_THROW(clopper_pearson_interval(5, 4), std::exception);
}

TEST(ClopperPearson, CoversAgreesWithTheInterval) {
  // The duality check must decide coverage exactly as the bisected interval
  // does: on a 1/64 grid of p, and just inside and outside every finite
  // endpoint (scaled by 1 -+ 1e-9), for every x (a stride at n = 10^4).
  std::size_t checks = 0;
  for (const double confidence : {0.9, 0.99, 0.999999})
    for (const std::size_t n : {1u, 2u, 7u, 32u, 160u, 200u, 10000u}) {
      const std::size_t stride = n == 10000 ? 97 : 1;
      for (std::size_t x = 0; x <= n; x += stride) {
        const Proportion band = clopper_pearson_interval(x, n, confidence);
        std::vector<double> probes;
        for (int j = 0; j <= 64; ++j) probes.push_back(j / 64.0);
        for (const double scale : {1.0 - 1e-9, 1.0 + 1e-9}) {
          if (x > 0) probes.push_back(band.lo * scale);
          if (x < n) probes.push_back(band.hi * scale);
        }
        for (const double p : probes) {
          if (p > 1.0) continue;
          const bool inside = band.lo <= p && p <= band.hi;
          EXPECT_EQ(clopper_pearson_covers(x, n, p, confidence), inside)
              << "x = " << x << ", n = " << n << ", p = " << p
              << ", confidence = " << confidence;
          ++checks;
        }
      }
    }
  EXPECT_GT(checks, 100000u);
  EXPECT_THROW((void)clopper_pearson_covers(5, 4, 0.5), std::exception);
  EXPECT_THROW((void)clopper_pearson_covers(2, 4, 1.5), std::exception);
}

TEST(DecayRate, RecoversExponentialRate) {
  std::vector<double> k, p;
  for (int i = 1; i <= 20; ++i) {
    k.push_back(10.0 * i);
    p.push_back(std::exp(-0.05 * 10.0 * i));
  }
  EXPECT_NEAR(fitted_decay_rate(k, p), 0.05, 1e-10);
}

TEST(DecayRate, IgnoresZeroProbabilities) {
  const std::vector<double> k{10, 20, 30, 40};
  const std::vector<double> p{std::exp(-1.0), 0.0, std::exp(-3.0), std::exp(-4.0)};
  EXPECT_NEAR(fitted_decay_rate(k, p), 0.1, 1e-10);
}

}  // namespace
}  // namespace mh
