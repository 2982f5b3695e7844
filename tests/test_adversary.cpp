#include "protocol/adversary.hpp"

#include <gtest/gtest.h>

#include "chars/bernoulli.hpp"
#include "delta/delta_fork.hpp"
#include "fork/validate.hpp"
#include "fork_fixtures.hpp"
#include "protocol/bridge.hpp"

namespace mh {
namespace {

using fixtures::schedule_from_text;

TEST(PrivateChain, OverwhelmingAdversaryRewritesHistory) {
  // Slot 1 honest, then a long adversarial run: the private chain from
  // genesis overtakes the public chain and, when released, displaces the
  // slot-1 block: a settlement violation for slot 1.
  Rng rng(31);
  const LeaderSchedule schedule = schedule_from_text("hAAAAAAAAAhh", 4, rng);
  PrivateChainAdversary adversary(1, 2);
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 5}, 0, &adversary);
  sim.watch_settlement(1, 2);
  sim.run();
  EXPECT_TRUE(adversary.released());
  // The private chain displaced the slot-1 block after its confirmation
  // window: a reorg-style settlement violation.
  EXPECT_TRUE(sim.settlement_watch_violated(1));
}

TEST(PrivateChain, HonestMajorityDefeatsAttack) {
  // Far more honest slots than adversarial ones: the private chain can never
  // catch up over a long confirmation window.
  Rng rng(32);
  const LeaderSchedule schedule =
      schedule_from_text("hhhhhAhhhhAhhhhhAhhhhhhAhhhh", 4, rng);
  PrivateChainAdversary adversary(1, 6);
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 6}, 0, &adversary);
  sim.watch_settlement(1, 6);
  sim.run();
  EXPECT_FALSE(adversary.released());
  EXPECT_FALSE(sim.settlement_watch_violated(1));
  EXPECT_FALSE(sim.observed_settlement_violation(1));
}

TEST(Balance, MultiplyHonestSlotsSustainTwoBranches) {
  // All-H schedule with adversarial tie-breaking: the balance attacker splits
  // every slot's two leaders across the branches, keeping two maximal chains
  // alive indefinitely (the pH mechanism of the paper).
  Rng rng(33);
  const LeaderSchedule schedule = schedule_from_text("HHHHHHHHHHHH", 6, rng);
  BalanceAttacker adversary;
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 3}, 0, &adversary);
  sim.run();
  EXPECT_TRUE(adversary.balanced(sim));
  EXPECT_TRUE(sim.observed_settlement_violation(1));
  EXPECT_GE(sim.observed_slot_divergence(), 11u);
}

TEST(Balance, ConsistentTieBreakingDefeatsBalanceWithoutAdversarialSlots) {
  // Theorem 2's mechanism: under A0' all honest leaders extend the same chain,
  // so with no adversarial slots the attacker cannot split them.
  Rng rng(34);
  const LeaderSchedule schedule = schedule_from_text("HHHHHHHHHHHH", 6, rng);
  BalanceAttacker adversary;
  Simulation sim(schedule, SimulationConfig{TieBreak::ConsistentHash, 3}, 0, &adversary);
  sim.run();
  EXPECT_FALSE(adversary.balanced(sim));
  EXPECT_FALSE(sim.observed_settlement_violation(1));
}

TEST(Balance, UniquelyHonestSlotsDrainTheBalance) {
  // h-slots extend only one branch; without adversarial help the balance
  // breaks immediately and the lone chain settles.
  Rng rng(35);
  const LeaderSchedule schedule = schedule_from_text("hhhhhhhh", 4, rng);
  BalanceAttacker adversary;
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 4}, 0, &adversary);
  sim.run();
  EXPECT_FALSE(adversary.balanced(sim));
  EXPECT_FALSE(sim.observed_settlement_violation(1));
}

TEST(Randomized, StaysInsideTheForkModelAndMints) {
  // The strategy fuzzer can do anything the model allows - and nothing more:
  // every execution must still bridge to a valid fork for its characteristic
  // string, which is the property the differential oracle builds on.
  Rng rng(37);
  const LeaderSchedule schedule = schedule_from_text("hAHhAhHAhAhHAA", 4, rng);
  RandomizedAdversary adversary(0xfeedULL);
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 7}, 0, &adversary);
  sim.run();
  EXPECT_GT(adversary.minted(), 0u);
  const ExecutionFork execution = fork_from_blocks(sim.all_blocks());
  const auto result = validate_fork(execution.fork, schedule.characteristic_sync());
  ASSERT_TRUE(result.ok) << result.message;
}

TEST(Randomized, DeltaDelaysStayWithinTheWindow) {
  Rng rng(38);
  const TetraLaw law = theorem7_law(0.5, 0.15, 0.2);
  const std::size_t delta = 2;
  const LeaderSchedule schedule = LeaderSchedule::from_tetra_law(law, 60, 4, rng);
  RandomizedAdversary adversary(0xbeefULL);
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 8}, delta, &adversary);
  sim.run();
  const ExecutionFork execution = fork_from_blocks(sim.all_blocks());
  const auto result = validate_fork(execution.fork, schedule.characteristic(), delta);
  ASSERT_TRUE(result.ok) << result.message;
}

TEST(Balance, AdversarialSlotsRepairUniquelyHonestDamage) {
  // Alternating h and A: each h extends one branch, each A re-levels the
  // other; the balance survives the whole horizon (mu = 0 dynamics).
  Rng rng(36);
  const LeaderSchedule schedule = schedule_from_text("hAhAhAhAhAhA", 4, rng);
  BalanceAttacker adversary;
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 5}, 0, &adversary);
  sim.run();
  EXPECT_TRUE(sim.observed_settlement_violation(1));
}

}  // namespace
}  // namespace mh
