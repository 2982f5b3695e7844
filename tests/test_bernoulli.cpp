#include "chars/bernoulli.hpp"

#include <gtest/gtest.h>

#include <array>

#include "checkers/chi_square.hpp"

namespace mh {
namespace {

TEST(SymbolLaw, BernoulliConditionDefinition7) {
  const SymbolLaw law = bernoulli_condition(0.2, 0.3);
  EXPECT_NEAR(law.pA, 0.4, 1e-12);   // (1 - eps) / 2
  EXPECT_NEAR(law.ph, 0.3, 1e-12);
  EXPECT_NEAR(law.pH, 0.3, 1e-12);   // 1 - pA - ph
  EXPECT_NEAR(law.epsilon(), 0.2, 1e-12);
  EXPECT_TRUE(law.honest_majority());
}

TEST(SymbolLaw, Table1Parameterization) {
  const SymbolLaw law = table1_law(0.3, 0.5);
  EXPECT_NEAR(law.pA, 0.3, 1e-12);
  EXPECT_NEAR(law.ph, 0.35, 1e-12);  // ratio * (1 - alpha)
  EXPECT_NEAR(law.pH, 0.35, 1e-12);
}

TEST(SymbolLaw, RejectsInvalidParameters) {
  EXPECT_THROW(static_cast<void>(bernoulli_condition(0.0, 0.1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(bernoulli_condition(1.0, 0.1)), std::invalid_argument);
  // ph > (1+eps)/2:
  EXPECT_THROW(static_cast<void>(bernoulli_condition(0.2, 0.9)), std::invalid_argument);
  // alpha must be < 1/2:
  EXPECT_THROW(static_cast<void>(table1_law(0.5, 0.5)), std::invalid_argument);
  SymbolLaw bad{0.5, 0.5, 0.5};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(SymbolLaw, PhBelowPaStillAllowed) {
  // The regime beyond prior analyses: ph < pA but ph + pH > pA.
  const SymbolLaw law = table1_law(0.3, 0.01);
  EXPECT_LT(law.ph, law.pA);
  EXPECT_TRUE(law.honest_majority());
}

struct LawCase {
  double eps, ph;
};

class SymbolLawSampling : public ::testing::TestWithParam<LawCase> {};

TEST_P(SymbolLawSampling, EmpiricalFrequenciesMatch) {
  const SymbolLaw law = bernoulli_condition(GetParam().eps, GetParam().ph);
  Rng rng(1234);
  std::array<std::size_t, 3> counts{};
  const std::size_t n = 300'000;
  for (std::size_t i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(law.sample(rng))];
  const std::array<double, 3> expected{law.ph, law.pH, law.pA};
  const double stat = chi_square_statistic(counts, expected);
  EXPECT_LT(stat, chi_square_critical(2, 0.001));
}

INSTANTIATE_TEST_SUITE_P(Grid, SymbolLawSampling,
                         ::testing::Values(LawCase{0.1, 0.2}, LawCase{0.5, 0.1},
                                           LawCase{0.9, 0.5}, LawCase{0.02, 0.01},
                                           LawCase{0.3, 0.0}));

TEST(SymbolLaw, SampleStringLengthAndAlphabet) {
  const SymbolLaw law = bernoulli_condition(0.5, 0.25);
  Rng rng(5);
  const CharString w = law.sample_string(1000, rng);
  EXPECT_EQ(w.size(), 1000u);
  EXPECT_EQ(w.count_honest(1, 1000) + w.count_adversarial(1, 1000), 1000u);
}

}  // namespace
}  // namespace mh
