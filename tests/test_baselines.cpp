#include "analysis/baselines.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/exact_dp.hpp"

namespace mh {
namespace {

TEST(Baselines, PraosCollapseMovesHMassToA) {
  const SymbolLaw law{0.5, 0.2, 0.3};
  const SymbolLaw collapsed = praos_collapsed_law(law);
  EXPECT_NEAR(collapsed.ph, 0.5, 1e-12);
  EXPECT_NEAR(collapsed.pH, 0.0, 1e-12);
  EXPECT_NEAR(collapsed.pA, 0.5, 1e-12);
}

TEST(Baselines, PraosInapplicableReturnsOne) {
  const SymbolLaw law{0.35, 0.35, 0.3};  // ph - pH <= pA
  EXPECT_EQ(praos_settlement_error(law, 100), 1.0L);
}

TEST(Baselines, PraosApplicableDecays) {
  const SymbolLaw law{0.6, 0.05, 0.35};
  const long double e100 = praos_settlement_error(law, 100);
  const long double e200 = praos_settlement_error(law, 200);
  EXPECT_LT(e100, 1.0L);
  EXPECT_LT(e200, e100);
}

TEST(Baselines, PraosWeakerThanExactWhenHMassExists) {
  // Conceding H slots to the adversary can only raise the certified error.
  const SymbolLaw law{0.55, 0.15, 0.3};
  const long double praos = praos_settlement_error(law, 150);
  const long double exact = settlement_violation_probability(law, 150);
  EXPECT_GE(praos, exact);
}

TEST(Baselines, PraosMatchesExactWhenNoHMass) {
  const SymbolLaw law{0.7, 0.0, 0.3};
  EXPECT_NEAR(static_cast<double>(praos_settlement_error(law, 120)),
              static_cast<double>(settlement_violation_probability(law, 120)), 1e-18);
}

TEST(Baselines, SnowWhiteInapplicableReturnsOne) {
  const SymbolLaw law{0.25, 0.45, 0.3};  // ph <= pA
  EXPECT_EQ(snow_white_settlement_error(law, 100), 1.0L);
}

TEST(Baselines, SnowWhiteDecaysAsSqrtK) {
  const SymbolLaw law{0.5, 0.2, 0.3};
  const long double e100 = snow_white_settlement_error(law, 100);
  const long double e400 = snow_white_settlement_error(law, 400);
  // log e(k) ~ -c sqrt(k): quadrupling k doubles the log.
  const double ratio = std::log(static_cast<double>(e400)) /
                       std::log(static_cast<double>(e100));
  EXPECT_NEAR(ratio, 2.0, 0.01);
}

TEST(Baselines, SnowWhiteSlowerThanExactAtLargeK) {
  // e^{-Theta(sqrt k)} eventually loses to the exact e^{-Theta(k)}.
  const SymbolLaw law{0.5, 0.2, 0.3};
  const std::size_t k = 600;
  EXPECT_GT(snow_white_settlement_error(law, k),
            settlement_violation_probability(law, k));
}

}  // namespace
}  // namespace mh
