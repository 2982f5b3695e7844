#include "core/catalan.hpp"

#include <gtest/gtest.h>

#include "chars/bernoulli.hpp"
#include "support/random.hpp"

namespace mh {

/// Reference O(n^2) implementation straight from Definition 11; test oracle.
CatalanFlags catalan_flags_bruteforce(const CharString& w) {
  const std::size_t n = w.size();
  CatalanFlags flags;
  flags.left.assign(n, true);
  flags.right.assign(n, true);
  flags.catalan.assign(n, false);
  for (std::size_t s = 1; s <= n; ++s) {
    for (std::size_t l = 1; l <= s; ++l)
      if (!w.hH_heavy(l, s)) flags.left[s - 1] = false;
    for (std::size_t r = s; r <= n; ++r)
      if (!w.hH_heavy(s, r)) flags.right[s - 1] = false;
    flags.catalan[s - 1] = flags.left[s - 1] && flags.right[s - 1];
  }
  return flags;
}

namespace {

TEST(Catalan, HandComputedExample) {
  // w = hhAhA: walk -1 -2 -1 -2 -1.
  const CharString w = CharString::parse("hhAhA");
  const CatalanFlags flags = catalan_flags(w);
  // Left-Catalan: strict new minima at slots 1 (S=-1) and 2 (S=-2) and 4 (S=-2)?
  // S_4 = -2 equals min so far (-2): not strict. So left = {1, 2}.
  EXPECT_TRUE(flags.left[0]);
  EXPECT_TRUE(flags.left[1]);
  EXPECT_FALSE(flags.left[2]);
  EXPECT_FALSE(flags.left[3]);
  // Right-Catalan: slot 1: max(S_1..S_5) = -1 <= S_1 = -1: yes.
  EXPECT_TRUE(flags.right[0]);
  // Slot 2: S_2 = -2, max afterwards -1 > -2: no.
  EXPECT_FALSE(flags.right[1]);
  // Slot 4: honest, S_4 = -2, S_5 = -1 > -2: no.
  EXPECT_FALSE(flags.right[3]);
  EXPECT_TRUE(flags.catalan[0]);
  EXPECT_FALSE(flags.catalan[1]);
}

TEST(Catalan, AdversarialSlotsNeverCatalan) {
  const CharString w = CharString::parse("AhAhA");
  const CatalanFlags flags = catalan_flags(w);
  EXPECT_FALSE(flags.left[0]);
  EXPECT_FALSE(flags.right[2]);
  EXPECT_FALSE(flags.catalan[0]);
  EXPECT_FALSE(flags.catalan[2]);
  EXPECT_FALSE(flags.catalan[4]);
}

TEST(Catalan, AllHonestStringAllCatalan) {
  const CharString w = CharString::parse("hHhH");
  const CatalanFlags flags = catalan_flags(w);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_TRUE(flags.catalan[s]) << s;
}

TEST(Catalan, SlotsAdjacentToCatalanAreHonest) {
  // Observation below Definition 11: neighbours of a Catalan slot are honest.
  const SymbolLaw law = bernoulli_condition(0.3, 0.4);
  Rng rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    const CharString w = law.sample_string(60, rng);
    const CatalanFlags flags = catalan_flags(w);
    for (std::size_t s = 1; s <= w.size(); ++s) {
      if (!flags.catalan[s - 1]) continue;
      EXPECT_TRUE(w.honest(s));
      if (s > 1) {
        EXPECT_TRUE(w.honest(s - 1)) << "left neighbour of " << s;
      }
      if (s < w.size()) {
        EXPECT_TRUE(w.honest(s + 1)) << "right neighbour of " << s;
      }
    }
  }
}

struct CatCase {
  double eps, ph;
  std::size_t length;
};

class CatalanRandomized : public ::testing::TestWithParam<CatCase> {};

TEST_P(CatalanRandomized, FastMatchesBruteforce) {
  const auto [eps, ph, length] = GetParam();
  const SymbolLaw law = bernoulli_condition(eps, ph);
  Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const CharString w = law.sample_string(length, rng);
    const CatalanFlags fast = catalan_flags(w);
    const CatalanFlags slow = catalan_flags_bruteforce(w);
    ASSERT_EQ(fast.left, slow.left) << w.to_string();
    ASSERT_EQ(fast.right, slow.right) << w.to_string();
    ASSERT_EQ(fast.catalan, slow.catalan) << w.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, CatalanRandomized,
                         ::testing::Values(CatCase{0.3, 0.3, 40}, CatCase{0.1, 0.05, 64},
                                           CatCase{0.6, 0.8, 24}, CatCase{0.2, 0.0, 48}));

TEST(Catalan, PointQueriesAgreeWithFlags) {
  const CharString w = CharString::parse("hAhhAHhA");
  const CatalanFlags flags = catalan_flags(w);
  for (std::size_t s = 1; s <= w.size(); ++s) {
    EXPECT_EQ(is_left_catalan(w, s), static_cast<bool>(flags.left[s - 1]));
    EXPECT_EQ(is_right_catalan(w, s), static_cast<bool>(flags.right[s - 1]));
    EXPECT_EQ(is_catalan(w, s), static_cast<bool>(flags.catalan[s - 1]));
  }
}

TEST(Catalan, FirstUniquelyHonestCatalan) {
  // w = HhA...: slot 1 is Catalan but multiply honest; slot 2 is uniquely
  // honest and Catalan (walk: -1 -2 -1; S_2 = -2 strict min, suffix max -1 <=
  // ... wait S_2 = -2 and S_3 = -1 > -2: not right-Catalan).
  const CharString w = CharString::parse("Hhh");
  EXPECT_EQ(first_uniquely_honest_catalan(w, 1, 3), 2u);
  EXPECT_EQ(first_uniquely_honest_catalan(w, 3, 3), 3u);
  const CharString all_H = CharString::parse("HHH");
  EXPECT_EQ(first_uniquely_honest_catalan(all_H, 1, 3), 0u);
}

TEST(Catalan, FirstConsecutivePair) {
  const CharString w = CharString::parse("HHH");
  EXPECT_EQ(first_consecutive_catalan_pair(w, 1, 3), 1u);
  const CharString alt = CharString::parse("hAhAh");
  EXPECT_EQ(first_consecutive_catalan_pair(alt, 1, 5), 0u);
}

}  // namespace
}  // namespace mh
