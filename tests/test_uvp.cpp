#include "checkers/uvp.hpp"

#include <gtest/gtest.h>

#include "chars/bernoulli.hpp"
#include "checkers/enumerate.hpp"
#include "core/catalan.hpp"
#include "support/random.hpp"

namespace mh {
namespace {

TEST(Uvp, HandExamples) {
  // w = hh: slot 1 is Catalan and uniquely honest -> UVP.
  EXPECT_TRUE(has_uvp_catalan(CharString::parse("hh"), 1));
  EXPECT_TRUE(has_uvp_margin(CharString::parse("hh"), 1));
  // w = hA: [1,2] is A-heavy... #h=1 vs #A=1: not hH-heavy, slot 1 not
  // right-Catalan -> no UVP.
  EXPECT_FALSE(has_uvp_catalan(CharString::parse("hA"), 1));
  EXPECT_FALSE(has_uvp_margin(CharString::parse("hA"), 1));
  // Multiply honest slots are outside Theorem 3's scope.
  EXPECT_FALSE(has_uvp_catalan(CharString::parse("Hh"), 1));
}

// Theorem 3 equivalence cross-check: the Catalan characterization and the
// Lemma-1 margin characterization are two independent code paths; they must
// agree on every uniquely honest slot of random strings.
struct UvpCase {
  double eps, ph;
  std::size_t length;
};

class UvpEquivalence : public ::testing::TestWithParam<UvpCase> {};

TEST_P(UvpEquivalence, CatalanIffNegativeMargins) {
  const auto [eps, ph, length] = GetParam();
  const SymbolLaw law = bernoulli_condition(eps, ph);
  Rng rng(20200728);
  for (int trial = 0; trial < 40; ++trial) {
    const CharString w = law.sample_string(length, rng);
    for (std::size_t s = 1; s <= w.size(); ++s) {
      if (!w.uniquely_honest(s)) continue;
      ASSERT_EQ(has_uvp_catalan(w, s), has_uvp_margin(w, s))
          << "w = " << w.to_string() << ", s = " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, UvpEquivalence,
                         ::testing::Values(UvpCase{0.3, 0.4, 24}, UvpCase{0.1, 0.2, 40},
                                           UvpCase{0.5, 0.3, 32}, UvpCase{0.05, 0.05, 48}));

// Fork-level soundness on tiny strings: if the slot has the UVP per Theorem 3,
// then EVERY enumerated fork exhibits the unique-vertex property structurally;
// if not, some enumerated fork must break it.
TEST(Uvp, StructuralAgreementOnTinyStrings) {
  // UVP quantifies over ALL forks, not only closed ones (the adversary may
  // leave adversarial tines dangling as future ammunition).
  EnumerationOptions options;
  options.closed_only = false;
  for (const char* text : {"hh", "hA", "hhA", "hAh", "hHh", "hAA", "hhH", "hHA"}) {
    const CharString w = CharString::parse(text);
    for (std::size_t s = 1; s <= w.size(); ++s) {
      if (!w.uniquely_honest(s)) continue;
      const bool predicted = has_uvp_catalan(w, s);
      bool all_forks = true;
      bool some_fork_breaks = false;
      enumerate_forks(w, options, [&](const Fork& f) {
        const bool holds = uvp_holds_in_fork(f, w, s);
        all_forks = all_forks && holds;
        some_fork_breaks = some_fork_breaks || !holds;
      });
      if (predicted) {
        EXPECT_TRUE(all_forks) << "w = " << text << ", s = " << s;
      } else {
        EXPECT_TRUE(some_fork_breaks) << "w = " << text << ", s = " << s;
      }
    }
  }
}

// Fact 3 + Fact 2: the bottleneck property likewise characterizes Catalan
// slots (any honest multiplicity).
TEST(Uvp, BottleneckMatchesCatalanOnTinyStrings) {
  EnumerationOptions options;
  options.closed_only = false;
  for (const char* text : {"hh", "Hh", "HH", "hA", "HAh", "hHA", "AhH", "HhA"}) {
    const CharString w = CharString::parse(text);
    for (std::size_t s = 1; s <= w.size(); ++s) {
      if (!w.honest(s)) continue;
      const bool catalan = is_catalan(w, s);
      bool all_forks = true;
      bool some_fork_breaks = false;
      enumerate_forks(w, options, [&](const Fork& f) {
        const bool holds = bottleneck_holds_in_fork(f, w, s);
        all_forks = all_forks && holds;
        some_fork_breaks = some_fork_breaks || !holds;
      });
      if (catalan) {
        EXPECT_TRUE(all_forks) << "w = " << text << ", s = " << s;
      } else {
        EXPECT_TRUE(some_fork_breaks) << "w = " << text << ", s = " << s;
      }
    }
  }
}

// Theorem 4: on bivalent strings, two consecutive Catalan slots grant the
// first one the UVP under consistent tie-breaking. Structural verification
// needs the A0' challenger, so here we verify the string-level predicate's
// basic behaviour.
TEST(Uvp, ConsecutiveCatalanPredicate) {
  EXPECT_TRUE(has_uvp_consecutive_catalan(CharString::parse("HH"), 1));
  EXPECT_FALSE(has_uvp_consecutive_catalan(CharString::parse("HA"), 1));
  EXPECT_TRUE(has_uvp_consecutive_catalan(CharString::parse("HHH"), 2));
  EXPECT_THROW(has_uvp_consecutive_catalan(CharString::parse("H"), 1), std::invalid_argument);
}

}  // namespace
}  // namespace mh
