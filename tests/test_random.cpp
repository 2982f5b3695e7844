#include "support/random.hpp"

#include <gtest/gtest.h>

namespace mh {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differ = 0;
  for (int i = 0; i < 16; ++i)
    if (a() != b()) ++differ;
  EXPECT_GT(differ, 12);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Geometric, MassAtZeroIsOneMinusBeta) {
  Rng rng(19);
  const double beta = 0.4;
  int zeros = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) zeros += sample_geometric(rng, beta) == 0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(zeros) / n, 1.0 - beta, 0.01);
}

TEST(Geometric, MeanMatchesBetaOverOneMinusBeta) {
  Rng rng(23);
  const double beta = 0.6;
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(sample_geometric(rng, beta));
  EXPECT_NEAR(sum / n, beta / (1.0 - beta), 0.05);
}

TEST(Geometric, BetaZeroIsAlwaysZero) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sample_geometric(rng, 0.0), 0u);
}

TEST(Geometric, RejectsInvalidBeta) {
  Rng rng(31);
  EXPECT_THROW(sample_geometric(rng, 1.0), std::invalid_argument);
  EXPECT_THROW(sample_geometric(rng, -0.1), std::invalid_argument);
}

}  // namespace
}  // namespace mh
