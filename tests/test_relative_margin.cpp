#include "core/relative_margin.hpp"

#include <gtest/gtest.h>

#include "chars/bernoulli.hpp"
#include "support/random.hpp"

namespace mh {
namespace {

TEST(RelativeMargin, RhoRecurrenceHandChecks) {
  EXPECT_EQ(rho_of(CharString::parse("")), 0);
  EXPECT_EQ(rho_of(CharString::parse("A")), 1);
  EXPECT_EQ(rho_of(CharString::parse("AA")), 2);
  EXPECT_EQ(rho_of(CharString::parse("Ah")), 0);   // 1 -> 0
  EXPECT_EQ(rho_of(CharString::parse("h")), 0);    // floor at 0
  EXPECT_EQ(rho_of(CharString::parse("hH")), 0);
  EXPECT_EQ(rho_of(CharString::parse("AAhh")), 0);
  EXPECT_EQ(rho_of(CharString::parse("AAh")), 1);
}

TEST(RelativeMargin, RhoOfEveryPrefix) {
  const CharString w = CharString::parse("AAhhA");
  const std::vector<std::int64_t> expected{0, 1, 2, 1, 0, 1};
  for (std::size_t t = 0; t <= w.size(); ++t) EXPECT_EQ(rho_of(w.prefix(t)), expected[t]) << t;
}

TEST(RelativeMargin, MuEmptySuffixEqualsRho) {
  const CharString w = CharString::parse("AAh");
  EXPECT_EQ(relative_margin_recurrence(w, 3), rho_of(w));
}

TEST(RelativeMargin, TheoremFiveCaseSplits) {
  // mu_eps("H") = 0 (rho = mu = 0 and b = H holds the margin at zero), while
  // mu_eps("h") = -1 (a uniquely honest leader settles the slot).
  EXPECT_EQ(relative_margin_recurrence(CharString::parse("H"), 0), 0);
  EXPECT_EQ(relative_margin_recurrence(CharString::parse("h"), 0), -1);
  // rho > mu = 0: both h and H hold at zero.
  // w = AhH with x = A: mu_x(eps)=rho(A)=1; after 'h': rho=1>0,mu=1 -> 0;
  // after 'H': rho(Ah)=0=mu -> H keeps 0.
  EXPECT_EQ(relative_margin_recurrence(CharString::parse("AhH"), 1), 0);
  // Same but ending 'h': rho(Ah)=0=mu and b=h -> falls to -1.
  EXPECT_EQ(relative_margin_recurrence(CharString::parse("Ahh"), 1), -1);
  // Adversarial symbols raise the margin unconditionally.
  EXPECT_EQ(relative_margin_recurrence(CharString::parse("AhhA"), 1), 0);
}

TEST(RelativeMargin, MarginCanRecoverAfterGoingNegative) {
  // mu dips below zero and climbs back with a run of A's.
  const CharString w = CharString::parse("hhAAA");
  const std::vector<std::int64_t> trajectory = margin_trajectory(w, 0);
  const std::vector<std::int64_t> expected{0, -1, -2, -1, 0, 1};
  EXPECT_EQ(trajectory, expected);
}

TEST(RelativeMargin, TrajectoryLengthAndStart) {
  const CharString w = CharString::parse("AhAhA");
  for (std::size_t x = 0; x <= w.size(); ++x) {
    const auto trajectory = margin_trajectory(w, x);
    EXPECT_EQ(trajectory.size(), w.size() - x + 1);
    EXPECT_EQ(trajectory.front(), rho_of(w.prefix(x)));
  }
}

TEST(RelativeMargin, MuNeverExceedsRho) {
  const SymbolLaw law = bernoulli_condition(0.2, 0.3);
  Rng rng(55);
  for (int trial = 0; trial < 50; ++trial) {
    const CharString w = law.sample_string(64, rng);
    for (std::size_t x = 0; x <= w.size(); x += 7) {
      MarginProcess p(rho_of(w.prefix(x)));
      for (std::size_t t = x + 1; t <= w.size(); ++t) {
        p.step(w.at(t));
        ASSERT_LE(p.mu(), p.rho());
      }
    }
  }
}

TEST(RelativeMargin, MonotoneInStringOrder) {
  // If x <= y coordinatewise (h < H < A) then margins compare as well: a more
  // adversarial string can only improve the adversary's position.
  const CharString lo = CharString::parse("hhhAh");
  const CharString hi = CharString::parse("hHAAh");
  for (std::size_t x = 0; x <= lo.size(); ++x)
    EXPECT_LE(relative_margin_recurrence(lo, x), relative_margin_recurrence(hi, x));
}

TEST(RelativeMargin, RejectsNegativeInitialReach) {
  EXPECT_THROW(MarginProcess(-1), std::invalid_argument);
}

TEST(RelativeMargin, BivalentStringStaysAtZeroForever) {
  // With ph = 0 and no adversarial slots, mu is pinned at 0: the recurrence's
  // H-case. This is why Theorem 1 requires ph > 0.
  CharString w;
  for (int i = 0; i < 100; ++i) w.push_back(Symbol::H);
  EXPECT_EQ(relative_margin_recurrence(w, 0), 0);
}

}  // namespace
}  // namespace mh
