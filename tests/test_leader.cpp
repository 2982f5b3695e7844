#include "protocol/leader.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "protocol/consensus/leader_select.hpp"

namespace mh {
namespace {

TEST(Leader, SymbolLevelScheduleShapes) {
  const SymbolLaw law = bernoulli_condition(0.3, 0.3);
  Rng rng(10);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 500, 8, rng);
  EXPECT_EQ(schedule.horizon(), 500u);
  for (std::size_t t = 1; t <= 500; ++t) {
    const SlotLeaders& l = schedule.leaders(t);
    if (l.adversarial) {
      EXPECT_TRUE(l.honest.empty());
    } else {
      EXPECT_GE(l.honest.size(), 1u);
      EXPECT_LE(l.honest.size(), 2u);
      if (l.honest.size() == 2) {
        EXPECT_NE(l.honest[0], l.honest[1]);
      }
    }
  }
}

TEST(Leader, CharacteristicStringMatchesLeaders) {
  const SymbolLaw law = bernoulli_condition(0.4, 0.2);
  Rng rng(11);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 200, 4, rng);
  const CharString w = schedule.characteristic_sync();
  for (std::size_t t = 1; t <= 200; ++t) {
    const SlotLeaders& l = schedule.leaders(t);
    if (l.adversarial)
      EXPECT_EQ(w.at(t), Symbol::A);
    else if (l.honest.size() == 1)
      EXPECT_EQ(w.at(t), Symbol::h);
    else
      EXPECT_EQ(w.at(t), Symbol::H);
  }
}

TEST(Leader, EligibilityChecks) {
  const SymbolLaw law = bernoulli_condition(0.3, 0.4);
  Rng rng(12);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 100, 4, rng);
  for (std::size_t t = 1; t <= 100; ++t) {
    const SlotLeaders& l = schedule.leaders(t);
    EXPECT_EQ(schedule.eligible(kAdversary, t), l.adversarial);
    for (PartyId p : l.honest) EXPECT_TRUE(schedule.eligible(p, t));
  }
  EXPECT_FALSE(schedule.eligible(0, 0));    // genesis slot
  EXPECT_FALSE(schedule.eligible(0, 101));  // beyond horizon
}

TEST(Leader, TetraScheduleMayHaveEmptySlots) {
  const TetraLaw law = theorem7_law(0.3, 0.1, 0.1);
  Rng rng(13);
  const LeaderSchedule schedule = LeaderSchedule::from_tetra_law(law, 300, 4, rng);
  const TetraString w = schedule.characteristic();
  std::size_t empties = 0;
  for (std::size_t t = 1; t <= 300; ++t)
    if (is_empty(w.at(t))) ++empties;
  EXPECT_GT(empties, 120u);  // pBot = 0.7: expect ~210
  EXPECT_THROW(schedule.characteristic_sync(), std::invalid_argument);
}

TEST(Leader, HSlotNeedsTwoParties) {
  const SymbolLaw all_H{0.0, 1.0, 0.0};
  Rng rng(15);
  EXPECT_THROW(LeaderSchedule::from_symbol_law(all_H, 10, 1, rng), std::invalid_argument);
}

TEST(Leader, GeneratorEntryValidationNamesLawAndParties) {
  // The H-capable law is rejected AT THE ENTRY POINT with a message naming
  // both the law and the party count — not mid-generation at the first
  // sampled H (which made the failure depend on the rng draw).
  const SymbolLaw all_H{0.0, 1.0, 0.0};
  Rng rng(16);
  try {
    (void)LeaderSchedule::from_symbol_law(all_H, 10, 1, rng);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("law (ph="), std::string::npos) << msg;
    EXPECT_NE(msg.find("honest_parties = 1"), std::string::npos) << msg;
  }
  // A law that cannot draw H is happy with a single party.
  const SymbolLaw single_ok{0.6, 0.0, 0.4};
  Rng rng2(17);
  EXPECT_NO_THROW((void)LeaderSchedule::from_symbol_law(single_ok, 10, 1, rng2));
  // Same check, same message, on the tetra entry point.
  const TetraLaw tetra_H{0.2, 0.0, 0.5, 0.3};
  Rng rng3(18);
  EXPECT_THROW((void)LeaderSchedule::from_tetra_law(tetra_H, 10, 1, rng3),
               std::invalid_argument);
}

TEST(Leader, GenesisSlotAgreesAcrossQueries) {
  // leaders(0) and eligible(party, 0) must tell the same story: genesis is
  // never issued. (Previously leaders(0) threw while eligible returned
  // false.)
  const SymbolLaw law = bernoulli_condition(0.3, 0.4);
  Rng rng(19);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 50, 4, rng);
  const SlotLeaders& genesis = schedule.leaders(0);
  EXPECT_TRUE(genesis.honest.empty());
  EXPECT_FALSE(genesis.adversarial);
  EXPECT_FALSE(schedule.eligible(0, 0));
  EXPECT_FALSE(schedule.eligible(kAdversary, 0));
  // Past the horizon the two still diverge deliberately: eligible is a quiet
  // "no" (the signature check), leaders is a hard error (a driver bug).
  EXPECT_FALSE(schedule.eligible(0, 51));
  EXPECT_THROW((void)schedule.leaders(51), std::invalid_argument);
}

TEST(Leader, PhiPrecisionAtCommitteeScale) {
  // The headline regression: phi(share) = 1 - (1-f)^share for share ~ 1/n.
  // The expm1/log1p form must track a long-double reference to 1e-12 relative
  // error at every committee scale; the naive 1 - pow form demonstrably
  // cannot at n = 10^5 (the subtraction cancels to ~half the digits).
  const double f = 0.1, adv = 0.25;
  for (const std::size_t n : {std::size_t{10}, std::size_t{1000}, std::size_t{100000}}) {
    const double share = (1.0 - adv) / static_cast<double>(n);
    const long double ref =
        -std::expm1l(static_cast<long double>(share) * std::log1pl(-(long double)f));
    const double fixed = consensus::phi(f, share);
    const long double rel_fixed = std::fabs(static_cast<long double>(fixed) - ref) / ref;
    EXPECT_LE(rel_fixed, 1e-12L) << "n = " << n;
    if (n == 100000) {
      const double naive = 1.0 - std::pow(1.0 - f, share);
      const long double rel_naive = std::fabs(static_cast<long double>(naive) - ref) / ref;
      EXPECT_GT(rel_naive, 1e-12L) << "the old formula unexpectedly kept full precision";
    }
  }
}

}  // namespace
}  // namespace mh
