#include "delta/semi_sync.hpp"

#include <gtest/gtest.h>

#include "checkers/chi_square.hpp"

namespace mh {
namespace {

TEST(TetraString, ParseRoundTrip) {
  const TetraString w = TetraString::parse("h..A.H_h");
  EXPECT_EQ(w.size(), 8u);
  EXPECT_EQ(w.to_string(), "h..A.H.h");  // '_' normalizes to '.'
  EXPECT_EQ(w.at(1), TetraSymbol::h);
  EXPECT_EQ(w.at(2), TetraSymbol::Bot);
  EXPECT_EQ(w.at(4), TetraSymbol::A);
  EXPECT_EQ(w.at(6), TetraSymbol::H);
}

TEST(TetraString, ParseRejectsGarbage) {
  EXPECT_THROW(TetraString::parse("hxA"), std::invalid_argument);
}

TEST(TetraString, Indexing) {
  const TetraString w = TetraString::parse("hA");
  EXPECT_THROW(static_cast<void>(w.at(0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(w.at(3)), std::invalid_argument);
}

TEST(TetraLaw, Theorem7Parameterization) {
  const TetraLaw law = theorem7_law(0.2, 0.05, 0.1);
  EXPECT_NEAR(law.pBot, 0.8, 1e-12);
  EXPECT_NEAR(law.pA, 0.05, 1e-12);
  EXPECT_NEAR(law.ph, 0.1, 1e-12);
  EXPECT_NEAR(law.pH, 0.05, 1e-12);
  EXPECT_NEAR(law.f(), 0.2, 1e-12);
}

TEST(TetraLaw, RejectsInvalid) {
  EXPECT_THROW(theorem7_law(0.0, 0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(theorem7_law(0.2, 0.25, 0.1), std::invalid_argument);  // pA >= f
  EXPECT_THROW(theorem7_law(0.2, 0.05, 0.2), std::invalid_argument);  // ph > f - pA
}

TEST(TetraLaw, SamplingFrequencies) {
  const TetraLaw law = theorem7_law(0.3, 0.1, 0.15);
  Rng rng(4096);
  std::array<std::size_t, 4> counts{};
  const std::size_t n = 400'000;
  for (std::size_t i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(law.sample(rng))];
  const std::array<double, 4> expected{law.pBot, law.ph, law.pH, law.pA};
  EXPECT_LT(chi_square_statistic(counts, expected), chi_square_critical(3, 0.001));
}

TEST(TetraLaw, SampleString) {
  const TetraLaw law = theorem7_law(0.5, 0.2, 0.2);
  Rng rng(1);
  const TetraString w = law.sample_string(256, rng);
  EXPECT_EQ(w.size(), 256u);
}

}  // namespace
}  // namespace mh
