#include "delta/delta_settlement.hpp"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "core/reach_distribution.hpp"
#include "core/relative_margin.hpp"
#include "fork_fixtures.hpp"
#include "sim/monte_carlo.hpp"

namespace mh {
namespace {

/// Exhaustive witness for the settlement DP: Pr[mu >= 0 after k symbols] by
/// enumerating every string in {h,H,A}^k against an explicit initial-reach
/// law. Exponential and obviously correct - the independent oracle the
/// reduced-law DP path otherwise lacks.
long double brute_force_violation(const SymbolLaw& law, std::size_t k,
                                  const ReachPmf& initial) {
  const long double p[3] = {law.ph, law.pH, law.pA};
  long double total = 0.0L;
  for (std::size_t r = 0; r < initial.mass.size(); ++r) {
    if (r > k) break;  // mu_0 = r > k can never reach zero within the horizon
    long double hit = 0.0L;
    fixtures::for_each_char_string(k, [&](const std::vector<Symbol>& symbols) {
      MarginProcess process(static_cast<std::int64_t>(r));
      long double weight = 1.0L;
      for (const Symbol b : symbols) {
        process.step(b);
        weight *= p[static_cast<std::size_t>(b)];
      }
      if (process.mu() >= 0) hit += weight;
    });
    total += initial.mass[r] * hit;
  }
  // Everything above the enumerated reaches (tail included: total() covers
  // it) is always-violating at depth k.
  long double covered = 0.0L;
  for (std::size_t r = 0; r < initial.mass.size() && r <= k; ++r) covered += initial.mass[r];
  return total + (initial.total() - covered);
}

TEST(DeltaSettlement, EpsilonDecreasesWithDelta) {
  const TetraLaw law = theorem7_law(0.1, 0.02, 0.05);
  double prev = theorem7_epsilon(law, 0);
  for (std::size_t delta = 1; delta <= 8; ++delta) {
    const double eps = theorem7_epsilon(law, delta);
    EXPECT_LT(eps, prev);
    prev = eps;
  }
}

TEST(DeltaSettlement, Condition20Equivalence) {
  // eps' > 0 iff condition (20) holds with some eps > 0: reduced pA < 1/2.
  const TetraLaw sparse = theorem7_law(0.05, 0.01, 0.03);   // sparse slots: robust
  EXPECT_GT(theorem7_epsilon(sparse, 4), 0.0);
  const TetraLaw dense = theorem7_law(0.9, 0.2, 0.4);       // dense slots: Delta kills it
  EXPECT_LT(theorem7_epsilon(dense, 4), 0.0);
}

TEST(DeltaSettlement, BoundDecaysInK) {
  const TetraLaw law = theorem7_law(0.1, 0.02, 0.06);
  const long double b100 = theorem7_bound(law, 2, 100);
  const long double b300 = theorem7_bound(law, 2, 300);
  const long double b600 = theorem7_bound(law, 2, 600);
  EXPECT_LE(b300, b100);
  EXPECT_LT(b600, b300);
}

TEST(DeltaSettlement, BoundGrowsWithDelta) {
  const TetraLaw law = theorem7_law(0.1, 0.02, 0.06);
  const long double d0 = theorem7_bound(law, 0, 400);
  const long double d4 = theorem7_bound(law, 4, 400);
  EXPECT_LE(d0, d4);
}

TEST(DeltaSettlement, InapplicableRegimeSaturates) {
  const TetraLaw dense = theorem7_law(0.9, 0.2, 0.4);
  EXPECT_EQ(theorem7_bound(dense, 6, 100), 1.0L);
}

TEST(DeltaSettlement, Lemma2EventHandChecks) {
  // reduced = hhhh...: slot 1 is Catalan; with delta = 0 the walk condition
  // requires S_{1+k+i} <= S_1 for all observed i, which a monotone descent
  // satisfies.
  const CharString reduced = CharString::parse("hhhhhh");
  EXPECT_TRUE(lemma2_event_holds(reduced, 1, 2, 0));
  EXPECT_TRUE(lemma2_event_holds(reduced, 1, 2, 1));
  // All-H windows contain no uniquely honest slot.
  EXPECT_FALSE(lemma2_event_holds(CharString::parse("HHHHHH"), 1, 2, 0));
  // Too-short strings cannot host the window.
  EXPECT_FALSE(lemma2_event_holds(CharString::parse("hh"), 1, 3, 0));
}

TEST(DeltaSettlement, Lemma2WalkConditionBinds) {
  // reduced = h A A A: slot 1 is uniquely honest but not Catalan ([1,2] is
  // A-heavy), so no window works.
  EXPECT_FALSE(lemma2_event_holds(CharString::parse("hAAA"), 1, 1, 0));
  // reduced = h h A A: slot 1 Catalan? [1, r]: r=4: 2 honest vs 2 adversarial
  // -> not hH-heavy: not right-Catalan. Slot... k=2 window {1,2}: slot 2?
  // [2,4]: 1 vs 2: A-heavy: no. So event fails.
  EXPECT_FALSE(lemma2_event_holds(CharString::parse("hhAA"), 1, 2, 0));
  // reduced = h h h h A, walk S = -1,-2,-3,-4,-3. Slot c = 1 is Catalan and
  // uniquely honest; the walk condition needs S_{3..5} <= S_1 - delta = -1-d:
  // max(S_3, S_4, S_5) = -3, so delta <= 2 holds and delta = 3 fails.
  EXPECT_TRUE(lemma2_event_holds(CharString::parse("hhhhA"), 1, 2, 1));
  EXPECT_TRUE(lemma2_event_holds(CharString::parse("hhhhA"), 1, 2, 2));
  EXPECT_FALSE(lemma2_event_holds(CharString::parse("hhhhA"), 1, 2, 3));
}

TEST(DeltaSettlement, SeriesMatchesBruteForceEnumerationAtSmallK) {
  // Independent witness for the reduced-law DP path: for every Delta the
  // series must equal the exhaustive enumeration over {h,H,A}^k seeded with
  // the (truncated-exactly) stationary reach law of the reduced symbols.
  const TetraLaw law = theorem7_law(0.2, 0.02, 0.1);
  constexpr std::size_t kMaxDepth = 6;
  for (std::size_t delta : {0u, 1u, 2u}) {
    const SymbolLaw reduced = reduced_law(law, delta);
    ASSERT_GT(reduced.epsilon(), 0.0);
    const SettlementSeries series = delta_settlement_series(law, delta, kMaxDepth);
    const ReachPmf initial = stationary_reach_distribution(reduced, kMaxDepth);
    for (std::size_t k = 1; k <= kMaxDepth; ++k) {
      const long double brute = brute_force_violation(reduced, k, initial);
      EXPECT_NEAR(static_cast<double>(series.violation[k]), static_cast<double>(brute),
                  1e-12)
          << "delta " << delta << ", k " << k;
    }
  }
}

TEST(DeltaSettlement, FiniteDecompositionMatchesFullStringEnumeration) {
  // Strings of length <= 12, decomposed as w = x y with |y| = k: the weighted
  // count of mu_x(y) >= 0 over ALL strings w must equal the DP seeded with
  // the exact finite reach law X_{|x|}. This exercises the ReachPmf entry
  // point of the DP end to end against the Theorem-5 recurrence itself.
  const SymbolLaw law = bernoulli_condition(0.35, 0.3);
  for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{9, 4}, {12, 6}}) {
    const std::size_t x_len = n - k;
    const long double p[3] = {law.ph, law.pH, law.pA};
    long double brute = 0.0L;
    fixtures::for_each_char_string(n, [&](const std::vector<Symbol>& symbols) {
      long double weight = 1.0L;
      for (const Symbol b : symbols) weight *= p[static_cast<std::size_t>(b)];
      // mu_x(y) via the streaming recurrence: rho over x, then the margin
      // process over y (equivalent to relative_margin_recurrence(w, x_len),
      // without re-building a CharString half a million times).
      std::int64_t rho = 0;
      for (std::size_t t = 0; t < x_len; ++t)
        rho = symbols[t] == Symbol::A ? rho + 1 : (rho > 0 ? rho - 1 : 0);
      MarginProcess process(rho);
      for (std::size_t t = x_len; t < n; ++t) process.step(symbols[t]);
      if (process.mu() >= 0) brute += weight;
    });
    const ReachPmf initial = finite_reach_distribution(law, x_len, std::max(x_len, k));
    const SettlementSeries series = exact_settlement_series(law, k, initial);
    EXPECT_NEAR(static_cast<double>(series.violation[k]), static_cast<double>(brute), 1e-12)
        << "n " << n << ", k " << k;
  }
}

TEST(DeltaSettlement, MonteCarloFailureBelowBound) {
  const TetraLaw law = theorem7_law(0.1, 0.03, 0.05);
  const std::size_t delta = 1, k = 60;
  McOptions opt;
  opt.samples = 4'000;
  opt.seed = 11;
  const Proportion failure = mc_delta_settlement_failure(law, delta, k, opt);
  const long double bound = theorem7_bound(law, delta, k);
  EXPECT_LE(failure.lo, static_cast<double>(bound));
}

}  // namespace
}  // namespace mh
