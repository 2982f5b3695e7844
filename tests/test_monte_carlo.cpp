#include "sim/monte_carlo.hpp"

#include <gtest/gtest.h>

#include "core/exact_dp.hpp"

namespace mh {
namespace {

TEST(MonteCarlo, SettlementMatchesExactDp) {
  const SymbolLaw law = table1_law(0.40, 1.0);
  McOptions opt;
  opt.samples = 50'000;
  opt.seed = 71;
  const Proportion mc = mc_settlement_violation(law, 100, opt);
  const double exact = static_cast<double>(settlement_violation_probability(law, 100));
  EXPECT_LE(mc.lo, exact);
  EXPECT_GE(mc.hi, exact);
}

TEST(MonteCarlo, CatalanScarcityDecreasesWithWindow) {
  const SymbolLaw law = bernoulli_condition(0.3, 0.4);
  McOptions opt;
  opt.samples = 10'000;
  opt.seed = 73;
  const Proportion k20 = mc_no_unique_catalan(law, 20, opt);
  const Proportion k60 = mc_no_unique_catalan(law, 60, opt);
  EXPECT_LT(k60.estimate, k20.estimate);
}

TEST(MonteCarlo, ConsecutiveCatalanRarerThanSingle) {
  const SymbolLaw law = bernoulli_condition(0.3, 0.3);
  McOptions opt;
  opt.samples = 10'000;
  opt.seed = 74;
  const Proportion single = mc_no_unique_catalan(law, 30, opt);
  const Proportion pair = mc_no_consecutive_catalan(law, 30, opt);
  // Failing to find a consecutive pair is at least as likely as failing to
  // find... not exactly comparable events (h-only vs any honest), but for
  // ph-dominant laws the pair event is rarer to satisfy.
  EXPECT_GE(pair.hi + 0.02, single.estimate);
}

TEST(MonteCarlo, CpWindowFailureGrowsWithHorizon) {
  const SymbolLaw law = bernoulli_condition(0.2, 0.3);
  McOptions opt;
  opt.samples = 4'000;
  opt.seed = 75;
  const Proportion short_run = mc_cp_window_failure(law, 100, 25, opt);
  const Proportion long_run = mc_cp_window_failure(law, 400, 25, opt);
  EXPECT_GE(long_run.estimate + 0.01, short_run.estimate);
}

TEST(MonteCarlo, HistogramHeadMatchesTheory) {
  // Pr[first uniquely honest Catalan slot = 1] = Pr[slot 1 is h and Catalan].
  // For eps-biased walks this is ph * Pr[walk from -1 never returns to 0]
  // = ph * (1 - p/q) = ph * eps/q.
  const double eps = 0.5, ph = 0.3;
  const SymbolLaw law = bernoulli_condition(eps, ph);
  McOptions opt;
  opt.samples = 200'000;
  opt.seed = 77;
  opt.horizon_slack = 2048;
  const Proportion none_at_1 = mc_no_unique_catalan(law, 1, opt);
  const double q = (1.0 + eps) / 2.0;
  const double expected = 1.0 - ph * eps / q;
  EXPECT_NEAR(none_at_1.estimate, expected, 0.005);
}

}  // namespace
}  // namespace mh
