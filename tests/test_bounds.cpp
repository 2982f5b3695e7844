#include "core/bounds.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "genfunc/consecutive_gf.hpp"

namespace mh {
namespace {

TEST(Bounds, Theorem1Exponent) {
  // min(eps^3, eps^2 ph).
  const SymbolLaw big_ph = bernoulli_condition(0.2, 0.5);
  EXPECT_NEAR(theorem1_exponent(big_ph), 0.2 * 0.2 * 0.2, 1e-15);
  const SymbolLaw small_ph = bernoulli_condition(0.2, 0.01);
  EXPECT_NEAR(theorem1_exponent(small_ph), 0.2 * 0.2 * 0.01, 1e-15);
}

TEST(Bounds, Theorem2Exponent) {
  const SymbolLaw law = bernoulli_condition(0.3, 0.0);
  EXPECT_NEAR(theorem2_exponent(law), 0.027, 1e-12);
}

TEST(Bounds, Bound1TailDecreasesInK) {
  const SymbolLaw law = bernoulli_condition(0.3, 0.4);
  const long double t50 = bound1_tail(law, 50);
  const long double t100 = bound1_tail(law, 100);
  const long double t200 = bound1_tail(law, 200);
  EXPECT_LT(t100, t50);
  EXPECT_LT(t200, t100);
  // Exponential shape: log-ratio roughly doubles.
  const double r1 = std::log(static_cast<double>(t100 / t50));
  const double r2 = std::log(static_cast<double>(t200 / t100));
  EXPECT_NEAR(r2 / r1, 2.0, 0.5);
}

TEST(Bounds, Bound1RateMatchesTailSlope) {
  // The tail slope approaches ln R from above (polynomial prefactors decay
  // like 1/k); compare deep into the asymptotic regime with slack.
  const SymbolLaw law = bernoulli_condition(0.4, 0.3);
  const double rate = static_cast<double>(bound1_decay_rate(law));
  const double slope =
      -std::log(static_cast<double>(bound1_tail(law, 700) / bound1_tail(law, 500))) / 200.0;
  EXPECT_GE(slope, rate * 0.98);
  EXPECT_NEAR(slope, rate, rate * 0.30);
}

TEST(Bounds, Bound2RateMatchesTailSlope) {
  const SymbolLaw law = bernoulli_condition(0.5, 0.0);
  const double rate = static_cast<double>(bound2_decay_rate(law));
  const ConsecutiveCatalanGF gf(law, 4 * 400 + 256);
  const double slope =
      -std::log(static_cast<double>(gf.smoothed_tail(400) / gf.smoothed_tail(300))) / 100.0;
  EXPECT_NEAR(slope, rate, rate * 0.2);
}

TEST(Bounds, Bound3ShrinksWithKGrowsWithDelta) {
  const double eps = 0.3;
  EXPECT_LT(bound3_probability(eps, 2, 400), bound3_probability(eps, 2, 200));
  EXPECT_GT(bound3_probability(eps, 8, 400), bound3_probability(eps, 2, 400));
  EXPECT_LE(bound3_probability(eps, 0, 1), 1.0L);
}

TEST(Bounds, Bound3MatchesFormula) {
  const double eps = 0.2;
  const std::size_t delta = 3, k = 500;
  const long double expected =
      (1.0L + delta) / sqrtl(static_cast<long double>(k)) *
      expl(-static_cast<long double>(k) * 0.04L / 2.0L + 4.0L * 0.2L / 0.8L);
  EXPECT_NEAR(static_cast<double>(bound3_probability(eps, delta, k)),
              static_cast<double>(expected), 1e-12);
}

TEST(Bounds, InputValidation) {
  EXPECT_THROW(bound3_probability(0.0, 1, 10), std::invalid_argument);
  EXPECT_THROW(bound3_probability(1.0, 1, 10), std::invalid_argument);
  EXPECT_THROW(bound3_probability(0.5, 1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace mh
