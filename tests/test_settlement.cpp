#include "checkers/settlement.hpp"

#include <gtest/gtest.h>

#include "chars/bernoulli.hpp"
#include "core/astar.hpp"
#include "fork/balanced.hpp"
#include "fork_fixtures.hpp"
#include "support/random.hpp"

namespace mh {
namespace {

TEST(Settlement, DivergePriorTo) {
  fixtures::Fig1 fig;
  // The two max tines v9a / v9b: one passes slot 5 (v5), the other skips it.
  EXPECT_TRUE(diverge_prior_to(fig.fork, fig.v9a, fig.v9b, 5));
  // Both carry (different) vertices labeled 9.
  EXPECT_TRUE(diverge_prior_to(fig.fork, fig.v9a, fig.v9b, 9));
  // Neither carries a vertex labeled 8... v9b passes a8. One-sided: diverge.
  EXPECT_TRUE(diverge_prior_to(fig.fork, fig.v9a, fig.v9b, 8));
  // Same tine never diverges from itself.
  EXPECT_FALSE(diverge_prior_to(fig.fork, fig.v9a, fig.v9a, 5));
}

TEST(Settlement, BothChainsSkippingSlotAgree) {
  // Two chains that both lack a vertex at slot s agree about s by Def. 3.
  Fork f;
  const CharString w = CharString::parse("AHH");
  const VertexId b2 = f.add_vertex(kRoot, 2);
  const VertexId b3 = f.add_vertex(kRoot, 3);
  EXPECT_FALSE(diverge_prior_to(f, b2, b3, 1));
  EXPECT_TRUE(diverge_prior_to(f, b2, b3, 2));
  (void)w;
}

TEST(Settlement, ViolationInForkMatchesBalance) {
  fixtures::Fig2 fig;
  // Balanced fork for hAhAhA: the two max-length tines diverge prior to 1.
  EXPECT_TRUE(settlement_violation_in_fork(fig.fork, 1));
  fixtures::Fig3 fig3;
  // Fig 3 tines share slots 1-2 and diverge after: no violation for s <= 2...
  EXPECT_FALSE(settlement_violation_in_fork(fig3.fork, 1));
  EXPECT_FALSE(settlement_violation_in_fork(fig3.fork, 2));
  EXPECT_TRUE(settlement_violation_in_fork(fig3.fork, 3));
}

TEST(Settlement, MarginViolationPredicates) {
  // w = HAA...: mu_eps stays >= 0 (H at 0 then A's raise it).
  const CharString w = CharString::parse("HAAA");
  EXPECT_TRUE(margin_violation_at(w, 1, 3));
  EXPECT_TRUE(margin_violation_within(w, 1, 3));
  // w = hhhh from slot 1: margins plunge, no violation.
  const CharString v = CharString::parse("hhhh");
  EXPECT_FALSE(margin_violation_at(v, 1, 4));
  EXPECT_FALSE(margin_violation_within(v, 1, 4));
}

TEST(Settlement, WithinIsWeakerThanAt) {
  const SymbolLaw law = bernoulli_condition(0.2, 0.3);
  Rng rng(606);
  for (int trial = 0; trial < 50; ++trial) {
    const CharString w = law.sample_string(40, rng);
    for (std::size_t s = 1; s + 10 <= w.size(); s += 5) {
      if (margin_violation_at(w, s, 10)) {
        EXPECT_TRUE(margin_violation_within(w, s, 10));
      }
    }
  }
}

TEST(Settlement, InputValidation) {
  const CharString w = CharString::parse("hAhA");
  EXPECT_THROW(margin_violation_at(w, 1, 5), std::invalid_argument);
  EXPECT_THROW(margin_violation_at(w, 0, 1), std::invalid_argument);
}

// Theorem 3 + Eq. (1): a uniquely honest Catalan slot inside [s, s+k-1]
// settles slot s; no margin violation may occur at or beyond the window.
struct SettleCase {
  double eps, ph;
};

class CatalanSettles : public ::testing::TestWithParam<SettleCase> {};

TEST_P(CatalanSettles, CatalanWindowForbidsViolation) {
  const auto [eps, ph] = GetParam();
  const SymbolLaw law = bernoulli_condition(eps, ph);
  Rng rng(112233);
  const std::size_t n = 60, k = 12;
  for (int trial = 0; trial < 60; ++trial) {
    const CharString w = law.sample_string(n, rng);
    for (std::size_t s = 1; s + k <= n; s += 4) {
      if (settled_via_catalan(w, s, k)) {
        ASSERT_FALSE(margin_violation_within(w, s, k))
            << "w = " << w.to_string() << " s = " << s;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, CatalanSettles,
                         ::testing::Values(SettleCase{0.3, 0.4}, SettleCase{0.1, 0.1},
                                           SettleCase{0.5, 0.5}, SettleCase{0.7, 0.2}));

// The A* fork realizes every margin violation structurally: when
// mu_x(y) >= 0 at |y| = k, the canonical fork extended to an x-balanced fork
// exhibits two maximum-length tines diverging prior to s = |x| + 1.
TEST(Settlement, MarginViolationYieldsStructuralViolation) {
  const SymbolLaw law = bernoulli_condition(0.2, 0.2);
  Rng rng(99);
  int violations_seen = 0;
  for (int trial = 0; trial < 100 && violations_seen < 10; ++trial) {
    const CharString w = law.sample_string(24, rng);
    for (std::size_t s = 1; s + 4 <= w.size(); ++s) {
      if (!margin_violation_at(w, s, 4)) continue;
      ++violations_seen;
      const CharString prefix = w.prefix(s - 1 + 4);
      const Fork canonical = build_canonical_fork(prefix);
      const auto balanced = extend_to_x_balanced(canonical, prefix, s - 1);
      ASSERT_TRUE(balanced.has_value());
      const bool skip_only = !settlement_violation_in_fork(*balanced, s);
      // Divergence prior to s requires disagreement ABOUT s; x-balance allows
      // both tines to skip the slot, so allow that rare benign case.
      if (skip_only) {
        const auto heads = balanced->longest_tines();
        bool some_has_s = false;
        for (VertexId h : heads)
          for (VertexId v = h; v != kRoot; v = balanced->parent(v))
            if (balanced->label(v) == s) some_has_s = true;
        EXPECT_FALSE(some_has_s);
      }
    }
  }
  EXPECT_GT(violations_seen, 0);
}

}  // namespace
}  // namespace mh
