#include "delta/reduction.hpp"

#include <gtest/gtest.h>

#include "chars/dominance.hpp"
#include "checkers/chi_square.hpp"

namespace mh {
namespace {

TEST(Reduction, DeltaZeroDropsEmptySlots) {
  const TetraString w = TetraString::parse("h..A.Hh");
  const ReductionResult r = reduce(w, 0);
  EXPECT_EQ(r.reduced.to_string(), "hAHh");
  const std::vector<std::size_t> pi{1, 4, 6, 7};
  EXPECT_EQ(r.pi, pi);
  EXPECT_EQ(r.inverse[0], 1u);
  EXPECT_EQ(r.inverse[1], 0u);  // empty slot maps nowhere
  EXPECT_EQ(r.inverse[3], 2u);
}

TEST(Reduction, HonestSurvivesIffNoHonestWithinDelta) {
  // Definition 22: h followed within Delta slots by another honest slot turns
  // adversarial; A's and empties inside the window do not matter. Trailing
  // honest slots with truncated windows translate to A (the paper's
  // "distorted" region).
  const TetraString w = TetraString::parse("h.h");
  EXPECT_EQ(reduce(w, 1).reduced.to_string(), "hA");   // gap 2 > Delta 1
  EXPECT_EQ(reduce(w, 2).reduced.to_string(), "AA");   // within window
  const TetraString v = TetraString::parse("hAh.");
  EXPECT_EQ(reduce(v, 1).reduced.to_string(), "hAh");  // A in window is fine
  EXPECT_EQ(reduce(v, 2).reduced.to_string(), "AAA");
  const TetraString u = TetraString::parse("hH.");
  EXPECT_EQ(reduce(u, 1).reduced.to_string(), "AH");
}

TEST(Reduction, ConservativeRequiresEmptyRun) {
  // Proposition 4's segment rule: survival needs Delta *empty* slots
  // immediately afterwards.
  const TetraString w = TetraString::parse("hA.h.");
  EXPECT_EQ(reduce(w, 1).reduced.to_string(), "hAh");
  EXPECT_EQ(reduce_conservative(w, 1).reduced.to_string(), "AAh");  // A breaks the run
  const TetraString v = TetraString::parse("h..h");
  EXPECT_EQ(reduce_conservative(v, 2).reduced.to_string(), "hA");
  // The trailing h has no Delta-window left: conservatively adversarial.
}

TEST(Reduction, ConservativeDominatesExact) {
  const TetraLaw law = theorem7_law(0.4, 0.1, 0.15);
  Rng rng(246);
  for (int trial = 0; trial < 50; ++trial) {
    const TetraString w = law.sample_string(128, rng);
    for (std::size_t delta : {0u, 1u, 3u}) {
      const CharString exact = reduce(w, delta).reduced;
      const CharString conservative = reduce_conservative(w, delta).reduced;
      ASSERT_EQ(exact.size(), conservative.size());
      ASSERT_TRUE(leq(exact, conservative))
          << "delta " << delta << " w " << w.to_string();
    }
  }
}

TEST(Reduction, ReducedLawFormula) {
  // Eq. (22) with f = 0.2, Delta = 2: alpha = 0.8^2 = 0.64.
  const TetraLaw law = theorem7_law(0.2, 0.05, 0.1);
  const SymbolLaw reduced = reduced_law(law, 2);
  EXPECT_NEAR(reduced.ph, 0.1 * 0.64 / 0.2, 1e-12);
  EXPECT_NEAR(reduced.pH, 0.05 * 0.64 / 0.2, 1e-12);
  EXPECT_NEAR(reduced.pA, 1.0 - 0.64 + 0.05 * 0.64 / 0.2, 1e-12);
}

TEST(Reduction, DeltaZeroLawIsConditionalLaw) {
  const TetraLaw law = theorem7_law(0.25, 0.05, 0.1);
  const SymbolLaw reduced = reduced_law(law, 0);
  EXPECT_NEAR(reduced.ph, 0.1 / 0.25, 1e-12);
  EXPECT_NEAR(reduced.pA, 0.05 / 0.25, 1e-12);
}

// Proposition 4: the conservative reduction's symbols are i.i.d. with the
// Eq. (22) law (away from the truncated last Delta positions).
TEST(Reduction, ConservativeEmpiricalLawMatchesEq22) {
  const TetraLaw law = theorem7_law(0.3, 0.08, 0.12);
  const std::size_t delta = 2;
  const SymbolLaw predicted = reduced_law(law, delta);
  Rng rng(1357);
  std::array<std::size_t, 3> counts{};
  for (int trial = 0; trial < 3000; ++trial) {
    const TetraString w = law.sample_string(96, rng);
    const ReductionResult r = reduce_conservative(w, delta);
    // Skip positions whose lookahead window was truncated by the string end
    // (the paper's "distorted" region).
    for (std::size_t j = 0; j < r.pi.size(); ++j)
      if (r.pi[j] + delta <= w.size())
        ++counts[static_cast<std::size_t>(r.reduced.at(j + 1))];
  }
  const std::array<double, 3> expected{predicted.ph, predicted.pH, predicted.pA};
  EXPECT_LT(chi_square_statistic(counts, expected), chi_square_critical(2, 0.001));
}

TEST(Reduction, PiIsBijectionOntoReducedPositions) {
  const TetraLaw law = theorem7_law(0.5, 0.2, 0.1);
  Rng rng(8642);
  const TetraString w = law.sample_string(64, rng);
  const ReductionResult r = reduce(w, 2);
  ASSERT_EQ(r.pi.size(), r.reduced.size());
  for (std::size_t j = 0; j < r.pi.size(); ++j) {
    EXPECT_EQ(r.inverse[r.pi[j] - 1], j + 1);
    EXPECT_FALSE(is_empty(w.at(r.pi[j])));
  }
}

}  // namespace
}  // namespace mh
