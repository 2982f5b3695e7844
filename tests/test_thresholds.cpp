#include "analysis/thresholds.hpp"

#include <gtest/gtest.h>

namespace mh {
namespace {

TEST(Thresholds, AllThreeApplyWithStrongUniqueHonesty) {
  // ph = 0.6, pH = 0.1, pA = 0.3.
  const SymbolLaw law{0.6, 0.1, 0.3};
  const RegimeReport report = classify_regime(law);
  EXPECT_TRUE(report.this_work_applies);
  EXPECT_TRUE(report.praos_applies);
  EXPECT_TRUE(report.snow_white_applies);
  EXPECT_NEAR(report.this_work_advantage, 0.4, 1e-12);
  EXPECT_NEAR(report.praos_advantage, 0.2, 1e-12);
  EXPECT_NEAR(report.snow_white_advantage, 0.3, 1e-12);
}

TEST(Thresholds, ConcurrentLeadersBreakPraosFirst) {
  // ph = 0.35, pH = 0.35, pA = 0.3: Praos' ph - pH > pA fails.
  const SymbolLaw law{0.35, 0.35, 0.3};
  const RegimeReport report = classify_regime(law);
  EXPECT_TRUE(report.this_work_applies);
  EXPECT_FALSE(report.praos_applies);
  EXPECT_TRUE(report.snow_white_applies);
}

TEST(Thresholds, PhBelowPaOnlyThisWorkSurvives) {
  // The paper's headline regime: ph < pA but ph + pH > pA.
  const SymbolLaw law{0.1, 0.6, 0.3};
  const RegimeReport report = classify_regime(law);
  EXPECT_TRUE(report.this_work_applies);
  EXPECT_FALSE(report.praos_applies);
  EXPECT_FALSE(report.snow_white_applies);
}

TEST(Thresholds, DishonestMajorityNothingApplies) {
  const SymbolLaw law{0.2, 0.2, 0.6};
  const RegimeReport report = classify_regime(law);
  EXPECT_FALSE(report.this_work_applies);
  EXPECT_FALSE(report.praos_applies);
  EXPECT_FALSE(report.snow_white_applies);
}

}  // namespace
}  // namespace mh
