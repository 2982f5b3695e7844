#include "protocol/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <type_traits>
#include <vector>

#include "chars/bernoulli.hpp"
#include "oracle/characteristic.hpp"
#include "protocol/adversary.hpp"

namespace mh {
namespace {

// Honest nodes' views point into the simulation's block store.
static_assert(!std::is_copy_constructible_v<Simulation>);
static_assert(!std::is_move_constructible_v<Simulation>);
static_assert(!std::is_copy_assignable_v<Simulation>);
static_assert(!std::is_move_assignable_v<Simulation>);

TEST(Simulation, HonestOnlyGrowsOneBlockPerActiveSlot) {
  // With no adversary and instant delivery, every slot with honest leaders
  // deepens the common chain by exactly one.
  const SymbolLaw law{0.6, 0.4, 0.0};  // no adversarial slots
  Rng rng(21);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 100, 6, rng);
  Simulation sim(schedule, SimulationConfig{TieBreak::ConsistentHash, 1}, 0, nullptr);
  sim.run();
  std::size_t active = 0;
  for (std::size_t t = 1; t <= 100; ++t)
    if (!schedule.leaders(t).honest.empty()) ++active;
  for (const HonestNode& node : sim.nodes())
    EXPECT_EQ(node.best_length(), active);
}

TEST(Simulation, HonestOnlyNoViolations) {
  const SymbolLaw law{0.5, 0.5, 0.0};
  Rng rng(22);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 150, 5, rng);
  for (TieBreak rule : {TieBreak::ConsistentHash, TieBreak::AdversarialOrder}) {
    Simulation sim(schedule, SimulationConfig{rule, 7}, 0, nullptr);
    sim.run();
    EXPECT_FALSE(sim.observed_settlement_violation(1));
    EXPECT_FALSE(sim.observed_cp_slot_violation(10));
    EXPECT_EQ(sim.observed_slot_divergence(), 0u);
  }
}

TEST(Simulation, ConcurrentLeadersForkThenConverge) {
  // Hand schedule: slot 1 has two honest leaders (both extend genesis), slot 2
  // has one leader (all views agree next slot).
  std::vector<SlotLeaders> slots(2);
  slots[0].honest = {0, 1};
  slots[1].honest = {2};
  const LeaderSchedule schedule(std::move(slots), 3);
  Simulation sim(schedule, SimulationConfig{TieBreak::ConsistentHash, 1}, 0, nullptr);
  sim.run_until(1);
  // Two concurrent blocks at depth 1 exist globally.
  EXPECT_EQ(sim.global_tree().max_length_heads().size(), 2u);
  sim.run();
  // The slot-2 leader extended the consistent choice; chains have length 2.
  for (const HonestNode& node : sim.nodes()) EXPECT_EQ(node.best_length(), 2u);
  EXPECT_FALSE(sim.observed_settlement_violation(1));
}

TEST(Simulation, DeltaDelaysDoNotLoseBlocks) {
  const SymbolLaw law{0.7, 0.3, 0.0};
  Rng rng(23);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 80, 4, rng);
  // Null adversary => no extra delays even with delta > 0.
  Simulation sim(schedule, SimulationConfig{TieBreak::ConsistentHash, 2}, 3, nullptr);
  sim.run();
  for (const HonestNode& node : sim.nodes())
    EXPECT_EQ(node.tree().block_count(), sim.global_tree().block_count());
}

TEST(Simulation, MintRequiresAdversarialSlot) {
  std::vector<SlotLeaders> slots(2);
  slots[0].honest = {0};
  slots[1].adversarial = true;
  const LeaderSchedule schedule(std::move(slots), 2);
  Simulation sim(schedule, SimulationConfig{}, 0, nullptr);
  sim.run_until(1);
  EXPECT_THROW(sim.mint_adversarial(genesis_block().hash, 1, 0), std::invalid_argument);
  const Block minted = sim.mint_adversarial(genesis_block().hash, 2, 0);
  EXPECT_TRUE(sim.global_tree().contains(minted.hash));
  // Minted blocks are private until injected.
  for (const HonestNode& node : sim.nodes())
    EXPECT_FALSE(node.tree().contains(minted.hash));
}

// Mints a private two-block chain and injects it to party 0 child-first
// within one slot, so the child is accepted only via the orphan flush.
class ChildFirstInjector : public Adversary {
 public:
  void on_slot_begin(std::size_t slot, Simulation& sim) override {
    if (slot != 4 || done_) return;
    done_ = true;
    m1 = sim.mint_adversarial(genesis_block().hash, 2, 1);
    m2 = sim.mint_adversarial(m1.hash, 3, 2);
    sim.network().inject(m2, 0, 4);  // child first: orphaned on arrival
    sim.network().inject(m1, 0, 4);
  }
  Block m1, m2;

 private:
  bool done_ = false;
};

TEST(Simulation, PublicTreeSeesOrphansAcceptedOutOfOrder) {
  // Regression for the headline seed bug: deliver_due mirrored a block into
  // the public tree only when the node accepted it on FIRST receive, so a
  // block admitted later by the orphan flush was silently lost and the
  // resulting maximal-chain disagreement invisible to
  // observed_settlement_violation.
  std::vector<SlotLeaders> slots(5);
  slots[0].honest = {0};     // A at slot 1
  slots[1].adversarial = true;
  slots[2].adversarial = true;
  slots[3].honest = {1};     // B on A at slot 4
  const LeaderSchedule schedule(std::move(slots), 2);
  ChildFirstInjector adversary;
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 5}, 0, &adversary);
  sim.run();

  // Party 0 accepted the whole private chain (the child via flush)...
  EXPECT_TRUE(sim.nodes()[0].tree().contains(adversary.m1.hash));
  EXPECT_TRUE(sim.nodes()[0].tree().contains(adversary.m2.hash));
  // ...so the public tree must hold it too,
  EXPECT_TRUE(sim.public_tree().contains(adversary.m2.hash));
  // and the two tied maximal public chains disagree about slot 1: the honest
  // chain settles A there, the injected chain skips it.
  EXPECT_EQ(sim.public_tree().max_length_heads().size(), 2u);
  EXPECT_TRUE(sim.observed_settlement_violation(1));
}

// Holds back the slot-2 block from party 1 by one extra slot, so party 1
// forges its slot-3 block on the slot-1 chain: two tied maximal chains, one
// holding a block at slot 2, the other skipping slot 2.
class HoldBackSlot2 : public Adversary {
 public:
  std::vector<std::size_t> delivery_delays(const Block& block, std::size_t,
                                           Simulation& sim) override {
    std::vector<std::size_t> delays(sim.nodes().size(), 0);
    if (block.slot == 2) delays[1] = 1;
    return delays;
  }
};

TEST(Simulation, SlotSkippingVerdictMatchesOracleProjection) {
  // One maximal chain holds a block at slot s = 2, the other skips s but
  // agrees on the slot-1 prefix: Definition 3 counts that as a settlement
  // disagreement about s (an observer handed either chain settles different
  // content), and the analytic side — the Definition-22 projection of the
  // same schedule — must allow what the execution exhibited.
  std::vector<SlotLeaders> slots(3);
  slots[0].honest = {0};  // A
  slots[1].honest = {0};  // B on A, held back from party 1
  slots[2].honest = {1};  // E on A (party 1 has not seen B yet)
  const LeaderSchedule schedule(std::move(slots), 2);
  HoldBackSlot2 adversary;
  const std::size_t delta = 1;
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 9}, delta,
                 &adversary);
  sim.run();

  const std::vector<BlockHash> heads = sim.public_tree().max_length_heads();
  ASSERT_EQ(heads.size(), 2u);
  // One head's chain has a block labelled exactly 2, the other skips slot 2.
  const auto exact_at_2 = [&](BlockHash head) {
    const auto deepest = sim.public_tree().block_at_slot(head, 2);
    return deepest && sim.public_tree().block(*deepest).slot == 2;
  };
  EXPECT_NE(exact_at_2(heads[0]), exact_at_2(heads[1]));
  // Both agree on the slot-1 prefix, so slot 1 is NOT in dispute...
  EXPECT_FALSE(sim.observed_settlement_violation(1));
  // ...but slot 2 is.
  EXPECT_TRUE(sim.observed_settlement_violation(2));

  // The oracle's Definition-22 projection of the same execution must agree
  // that a slot-2 violation is analytically permitted (domination): the
  // Delta-reduction turns the delayed h-run into an effective tie.
  const oracle::AnalyticProjection view = oracle::project_schedule(schedule, delta, 2);
  EXPECT_TRUE(oracle::margin_allows_violation(view) ||
              oracle::prefix_admits_distinct_balance(view));
}

TEST(Simulation, PublicTreeIsExactlyTheUnionOfNodeViews) {
  // Under a randomized adversary (delays, partial leaks, reordering), the
  // public tree must at all times equal the union of honest views: every
  // node-accepted block is public (the seed lost flushed orphans here) and
  // nothing else is.
  const SymbolLaw law{0.4, 0.25, 0.35};
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng(seed);
    const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 60, 4, rng);
    RandomizedAdversary adversary(seed);
    Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, rng()}, 2,
                   &adversary);
    sim.run();
    std::size_t union_count = 0;
    std::vector<BlockHash> seen;
    for (const HonestNode& node : sim.nodes())
      for (const BlockHash h : node.tree().store().arrival_order()) {
        if (!node.tree().contains(h)) continue;
        EXPECT_TRUE(sim.public_tree().contains(h)) << "lost node-accepted block, seed " << seed;
        if (std::find(seen.begin(), seen.end(), h) == seen.end()) {
          seen.push_back(h);
          ++union_count;
        }
      }
    EXPECT_EQ(sim.public_tree().block_count(), union_count) << "seed " << seed;
  }
}

// Slot 1: mints a1 on genesis and shows it to party 1 alone. Slot 2: mints
// a2 on a1 and b2 on genesis and injects both to everyone, as two shared
// rounds that one delivery sweep reads.
class SplitViewInjector : public Adversary {
 public:
  void on_slot_begin(std::size_t slot, Simulation& sim) override {
    if (slot == 1) {
      a1 = sim.mint_adversarial(genesis_block().hash, 1, 1);
      sim.network().inject(a1, 1, 1);
    } else if (slot == 2) {
      a2 = sim.mint_adversarial(a1.hash, 2, 2);
      b2 = sim.mint_adversarial(genesis_block().hash, 2, 3);
      sim.network().inject_all(a2, 2);
      sim.network().inject_all(b2, 2);
    }
  }
  Block a1, a2, b2;
};

TEST(Simulation, SweptRoundJoinsThePublicTreeAtItsFirstAdmission) {
  // One sweep hands every party a2, then b2. Party 0 lacks a2's parent and
  // buffers it, then admits b2; party 1 then admits a2. The public tree
  // takes an entry at its first admission, never at an orphan's offer nor
  // before the node loop: b2 arrives before a2, and a2 arrives although
  // its round's first offer was an orphan.
  std::vector<SlotLeaders> slots(3);
  slots[0].adversarial = true;
  slots[1].adversarial = true;
  const LeaderSchedule schedule(std::move(slots), 3);
  SplitViewInjector adversary;
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 3}, 0, &adversary);
  sim.run_until(2);
  EXPECT_EQ(sim.nodes()[0].buffered_orphans(), 1u);
  EXPECT_TRUE(sim.nodes()[1].tree().contains(adversary.a2.hash));
  EXPECT_EQ(sim.nodes()[2].buffered_orphans(), 1u);
  EXPECT_EQ(sim.public_tree().arrival_order(),
            (std::vector<BlockHash>{genesis_block().hash, adversary.a1.hash, adversary.b2.hash,
                                    adversary.a2.hash}));
}

/// The naive settlement check that observed_settlement_violation is fuzzed
/// against: every maximal public head walks down to slot s, and two answers
/// disagree unless they are equal or both skip s.
bool all_heads_settlement_violation(const Simulation& sim, std::size_t s) {
  const BlockTree& tree = sim.public_tree();
  const std::vector<BlockHash> heads = tree.max_length_heads();
  std::vector<std::optional<BlockHash>> exact_at(heads.size());
  for (std::size_t i = 0; i < heads.size(); ++i) {
    const auto deepest = tree.block_at_slot(heads[i], s);
    if (deepest && tree.block(*deepest).slot == s) exact_at[i] = deepest;
  }
  for (std::size_t a = 0; a < heads.size(); ++a)
    for (std::size_t b = a + 1; b < heads.size(); ++b) {
      if (!exact_at[a] && !exact_at[b]) continue;  // both skip slot s
      if (exact_at[a] != exact_at[b]) return true;
    }
  return false;
}

TEST(Simulation, SettlementCheckMatchesTheAllHeadsWalk) {
  // observed_settlement_violation walks two maximal public heads down to
  // slot s only when they meet below it. Over random executions (balance,
  // randomized and private-chain strategies, both tie-break rules, Delta 0 to
  // 2), after every slot, at s = 1 and at three random s up to a slot past
  // the current one, it must agree with the all-heads walk. The executions
  // must produce enough ties and verdicts of both kinds to bite.
  std::size_t tied = 0;
  std::size_t verdicts[2] = {0, 0};
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    Rng rng(seed);
    const double pa = 0.25 + 0.05 * static_cast<double>(seed % 4);
    const SymbolLaw law{(1.0 - pa) / 2, (1.0 - pa) / 2, pa};
    const std::size_t horizon = 80;
    const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, horizon, 4, rng);
    BalanceAttacker balance;
    RandomizedAdversary randomized(seed);
    PrivateChainAdversary private_chain(2 + seed % 5, 3);
    Adversary* const strategies[] = {&balance, &randomized, &private_chain};
    const TieBreak rule = seed % 2 == 0 ? TieBreak::AdversarialOrder : TieBreak::ConsistentHash;
    const std::size_t delta = seed / 3 % 3;
    Simulation sim(schedule, SimulationConfig{rule, rng()}, delta, strategies[seed % 3]);
    for (std::size_t t = 1; t <= horizon; ++t) {
      sim.run_until(t);
      tied += sim.public_tree().max_length_heads().size() > 1 ? 1 : 0;
      for (int query = 0; query < 4; ++query) {
        const std::size_t s = query == 0 ? 1 : rng.below(t + 2);
        const bool want = all_heads_settlement_violation(sim, s);
        ASSERT_EQ(sim.observed_settlement_violation(s), want)
            << "seed " << seed << ", slot " << t << ", s = " << s;
        ++verdicts[want ? 1 : 0];
      }
    }
  }
  EXPECT_GT(tied, 1000u);
  EXPECT_GT(verdicts[0], 5000u);
  EXPECT_GT(verdicts[1], 300u);
}

TEST(Simulation, RunUntilIsIncremental) {
  const SymbolLaw law{1.0, 0.0, 0.0};
  Rng rng(24);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 50, 3, rng);
  Simulation sim(schedule, SimulationConfig{}, 0, nullptr);
  sim.run_until(10);
  EXPECT_EQ(sim.current_slot(), 10u);
  sim.run_until(10);  // no-op
  EXPECT_EQ(sim.current_slot(), 10u);
  sim.run();
  EXPECT_EQ(sim.current_slot(), 50u);
  EXPECT_THROW(sim.run_until(51), std::invalid_argument);
}

}  // namespace
}  // namespace mh
