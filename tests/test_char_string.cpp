#include "chars/char_string.hpp"

#include <gtest/gtest.h>

namespace mh {
namespace {

TEST(CharString, ParseRoundTrip) {
  const CharString w = CharString::parse("hAhAhHAAH");
  EXPECT_EQ(w.size(), 9u);
  EXPECT_EQ(w.to_string(), "hAhAhHAAH");
}

TEST(CharString, ParseAcceptsSpacesAndBits) {
  EXPECT_EQ(CharString::parse("h A h").to_string(), "hAh");
  // Blum-et-al. bit notation: 0 = uniquely honest, 1 = adversarial.
  EXPECT_EQ(CharString::parse("0101").to_string(), "hAhA");
}

TEST(CharString, ParseRejectsGarbage) {
  EXPECT_THROW(CharString::parse("hxA"), std::invalid_argument);
}

TEST(CharString, OneIndexedAccess) {
  const CharString w = CharString::parse("hHA");
  EXPECT_EQ(w.at(1), Symbol::h);
  EXPECT_EQ(w.at(2), Symbol::H);
  EXPECT_EQ(w.at(3), Symbol::A);
  EXPECT_THROW(static_cast<void>(w.at(0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(w.at(4)), std::invalid_argument);
}

TEST(CharString, HonestPredicates) {
  const CharString w = CharString::parse("hHA");
  EXPECT_TRUE(w.honest(1));
  EXPECT_TRUE(w.honest(2));
  EXPECT_FALSE(w.honest(3));
  EXPECT_TRUE(w.uniquely_honest(1));
  EXPECT_FALSE(w.uniquely_honest(2));
  EXPECT_TRUE(w.adversarial(3));
}

TEST(CharString, IntervalCounts) {
  const CharString w = CharString::parse("hAhAhHAAH");
  EXPECT_EQ(w.count_adversarial(1, 9), 4u);
  EXPECT_EQ(w.count_honest(1, 9), 5u);
  EXPECT_EQ(w.count_adversarial(2, 4), 2u);
  EXPECT_EQ(w.count(Symbol::H, 1, 9), 2u);
  EXPECT_EQ(w.count(Symbol::h, 1, 5), 3u);
  EXPECT_EQ(w.count_honest(5, 4), 0u);  // empty interval
}

TEST(CharString, HeavinessPredicates) {
  const CharString w = CharString::parse("hAhAhHAAH");
  EXPECT_TRUE(w.hH_heavy(1, 9));    // 5 honest vs 4 adversarial
  EXPECT_TRUE(w.A_heavy(2, 4));     // A h A: 2 vs 1
  EXPECT_TRUE(w.A_heavy(2, 2));
  EXPECT_FALSE(w.hH_heavy(7, 8));   // AA
  EXPECT_TRUE(w.hH_heavy(5, 6));    // hH
}

TEST(CharString, Prefix) {
  const CharString w = CharString::parse("hAhAH");
  EXPECT_EQ(w.prefix(2).to_string(), "hA");
  EXPECT_EQ(w.prefix(0).to_string(), "");
  EXPECT_EQ(w.prefix(5), w);
}

TEST(CharString, Bivalent) {
  EXPECT_TRUE(is_bivalent(CharString::parse("HAHA")));
  EXPECT_FALSE(is_bivalent(CharString::parse("HAh")));
  EXPECT_TRUE(is_bivalent(CharString::parse("")));
}

TEST(CharString, PushBackMaintainsCounts) {
  CharString w;
  w.push_back(Symbol::A);
  w.push_back(Symbol::h);
  w.push_back(Symbol::H);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.to_string(), "AhH");
  EXPECT_EQ(w.count_adversarial(1, 3), 1u);
  EXPECT_EQ(w.count_honest(2, 3), 2u);
  EXPECT_TRUE(w.hH_heavy(1, 3));
}

TEST(CharString, PushBackOntoParsedString) {
  CharString w = CharString::parse("hA");
  w.push_back(Symbol::A);
  EXPECT_EQ(w.count_adversarial(1, 3), 2u);
}

}  // namespace
}  // namespace mh
