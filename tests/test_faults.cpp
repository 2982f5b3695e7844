// The deterministic fault-injection layer, bottom-up: plan validation and
// serialization, the counter-based injector, the transport's drop/crash/
// re-sync behavior, full-execution recovery (heal convergence, crash ->
// restart -> re-sync, gossip relays on a ring), and the observed-Delta
// oracle contract — within-bound faulted runs satisfy every domination
// invariant, out-of-bound runs are flagged and graded at their observed
// Delta, and the whole fault band is bit-identical across thread counts.
#include "protocol/faults/injector.hpp"
#include "protocol/faults/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/seed_sequence.hpp"
#include "oracle/scenario.hpp"
#include "protocol/adversary.hpp"
#include "protocol/network.hpp"
#include "protocol/simulation.hpp"

namespace mh {
namespace {

std::vector<Block> drain(Network& net, PartyId recipient, std::size_t slot) {
  std::vector<Block> due;
  net.collect_into(recipient, slot, &due);
  return due;
}

// --- plan layer ------------------------------------------------------------

TEST(FaultPlan, ValidationEnforcesShape) {
  const std::size_t parties = 4, horizon = 20;
  faults::FaultPlan plan;
  plan.validate(parties, horizon);  // empty plan is always well-formed

  plan.partitions.push_back({2, 5, {0, 1}});  // group vector too short
  EXPECT_THROW(plan.validate(parties, horizon), std::invalid_argument);
  plan.partitions[0].group = {0, 0, 0, 0};  // one-sided split
  EXPECT_THROW(plan.validate(parties, horizon), std::invalid_argument);
  plan.partitions[0].group = {0, 1, 0, 1};
  plan.validate(parties, horizon);
  plan.partitions.push_back({4, 8, {1, 0, 1, 0}});  // overlaps [2, 5)
  EXPECT_THROW(plan.validate(parties, horizon), std::invalid_argument);
  plan.partitions[1].start = 5;  // [5, 8) is disjoint from [2, 5)
  plan.validate(parties, horizon);
  plan.partitions[1].heal = 5;  // heal must follow start
  EXPECT_THROW(plan.validate(parties, horizon), std::invalid_argument);
  plan.partitions.pop_back();

  plan.churn.push_back({2, 3, 3});  // restart must follow the crash
  EXPECT_THROW(plan.validate(parties, horizon), std::invalid_argument);
  plan.churn[0] = {2, 3, 6};
  plan.validate(parties, horizon);
  plan.churn.push_back({2, 5, 7});  // same party, overlapping down-time
  EXPECT_THROW(plan.validate(parties, horizon), std::invalid_argument);
  plan.churn[1] = {2, 6, 7};  // [3, 6) then [6, 7): back-to-back is fine
  plan.validate(parties, horizon);
  plan.churn.push_back({7, 2, 4});  // party out of range
  EXPECT_THROW(plan.validate(parties, horizon), std::invalid_argument);
  plan.churn.pop_back();

  plan.links.push_back({2, 2, 0.1, 0.0, 0.0, 0});  // empty window
  EXPECT_THROW(plan.validate(parties, horizon), std::invalid_argument);
  plan.links[0] = {2, 6, 1.5, 0.0, 0.0, 0};  // probability out of range
  EXPECT_THROW(plan.validate(parties, horizon), std::invalid_argument);
  plan.links[0] = {2, 6, 0.2, 0.1, 0.5, 0};  // extra delay needs extra_max >= 1
  EXPECT_THROW(plan.validate(parties, horizon), std::invalid_argument);
  plan.links[0] = {2, 6, 0.2, 0.1, 0.5, 2};
  plan.validate(parties, horizon);
}

TEST(FaultPlan, SerializationRoundTripsEveryProfile) {
  using faults::FaultProfile;
  Rng rng(7);
  for (const FaultProfile profile :
       {FaultProfile::None, FaultProfile::PartitionHeal, FaultProfile::Churn,
        FaultProfile::LossyLinks, FaultProfile::Asynchrony, FaultProfile::Mixed}) {
    const faults::FaultPlan plan = faults::sample_fault_plan(profile, 6, 48, 2, rng);
    const std::string text = plan.serialize();
    EXPECT_EQ(faults::FaultPlan::deserialize(text), plan)
        << faults::fault_profile_name(profile) << ": " << text;
  }
  EXPECT_THROW(faults::FaultPlan::deserialize("bogus seed=1"), std::invalid_argument);
  EXPECT_THROW(faults::FaultPlan::deserialize("mh-faultplan-v1 what=1"),
               std::invalid_argument);
  EXPECT_THROW(faults::FaultPlan::deserialize("mh-faultplan-v1 crash=1:x:3"),
               std::invalid_argument);
  EXPECT_THROW(faults::FaultPlan::deserialize("mh-faultplan-v1 part=1:4"),
               std::invalid_argument);
  // Numbers that used to parse into something else: a seed past 2^64 (it
  // wrapped to 1), a party id past 2^32 (it truncated to party 1, which then
  // passed validate(4, ...)), and a nan probability (a plan unequal to itself).
  EXPECT_THROW(faults::FaultPlan::deserialize("mh-faultplan-v1 seed=18446744073709551617"),
               std::invalid_argument);
  EXPECT_THROW(faults::FaultPlan::deserialize("mh-faultplan-v1 crash=4294967297:1:3"),
               std::invalid_argument);
  EXPECT_THROW(faults::FaultPlan::deserialize("mh-faultplan-v1 link=1:3:nan:0:0:0"),
               std::invalid_argument);
}

TEST(FaultPlan, SamplingIsPureAndNoneDrawsNothing) {
  Rng a(99), b(99);
  const auto p1 = faults::sample_fault_plan(faults::FaultProfile::Mixed, 6, 48, 2, a);
  const auto p2 = faults::sample_fault_plan(faults::FaultProfile::Mixed, 6, 48, 2, b);
  EXPECT_EQ(p1, p2);
  EXPECT_FALSE(p1.empty());
  Rng c(5), d(5);
  EXPECT_TRUE(faults::sample_fault_plan(faults::FaultProfile::None, 6, 48, 2, c).empty());
  EXPECT_EQ(c(), d());  // the None profile consumed no randomness
}

// --- injector layer --------------------------------------------------------

TEST(FaultInjector, QueriesArePureAndWindowed) {
  faults::FaultPlan plan;
  plan.seed = 404;
  plan.partitions.push_back({3, 6, {0, 0, 1, 1}});
  plan.churn.push_back({1, 4, 7});
  plan.links.push_back({2, 9, 1.0, 0.0, 0.0, 0});  // certain drop in [2, 9)
  const faults::FaultInjector inj(plan, 4, 20);

  EXPECT_FALSE(inj.window_active(1));
  EXPECT_TRUE(inj.window_active(2));
  EXPECT_TRUE(inj.window_active(8));
  EXPECT_FALSE(inj.window_active(9));

  EXPECT_TRUE(inj.severed(0, 2, 3));
  EXPECT_TRUE(inj.severed(2, 0, 5));
  EXPECT_FALSE(inj.severed(0, 1, 3));          // same side
  EXPECT_FALSE(inj.severed(kAdversary, 2, 3)); // adversarial channels survive
  EXPECT_FALSE(inj.severed(0, 2, 6));          // healed

  EXPECT_TRUE(inj.is_down(1, 4));
  EXPECT_TRUE(inj.is_down(1, 6));
  EXPECT_FALSE(inj.is_down(1, 7));  // restart slot: up again
  EXPECT_EQ(inj.down_slots_in(1, 1, 3), 0u);
  EXPECT_EQ(inj.down_slots_in(1, 5, 9), 2u);

  EXPECT_TRUE(inj.link_verdict(0, 1, 2).drop);
  EXPECT_FALSE(inj.link_verdict(0, 1, 9).drop);           // window closed
  EXPECT_FALSE(inj.link_verdict(kAdversary, 1, 4).drop);  // never faulted
  // Counter-based purity: repeated and reordered queries agree.
  const faults::LinkVerdict first = inj.link_verdict(2, 3, 5);
  (void)inj.link_verdict(3, 2, 5);
  const faults::LinkVerdict again = inj.link_verdict(2, 3, 5);
  EXPECT_EQ(first.drop, again.drop);
  EXPECT_EQ(first.duplicate, again.duplicate);
  EXPECT_EQ(first.extra_delay, again.extra_delay);

  EXPECT_EQ(inj.heals_at(6), 1u);
  EXPECT_EQ(inj.heals_at(5), 0u);
  EXPECT_EQ(inj.partitions_active(4), 1u);
  EXPECT_EQ(inj.partitions_active(6), 0u);
}

TEST(FaultInjector, DownSlotDiscountCountsOnlyDownSlots) {
  // down_slots_in is the observed-Delta discount: it must count exactly the
  // down slots inside the window, never round a partial overlap up to the
  // whole window (the regression a binary "down in the window" answer
  // invited).
  faults::FaultPlan plan;
  plan.seed = 7;
  plan.churn.push_back({4, 122, 127});  // down during [122, 126]
  plan.churn.push_back({4, 140, 142});  // second window of the same party
  plan.churn.push_back({1, 10, 12});    // another party entirely
  const faults::FaultInjector inj(plan, 6, 200);

  EXPECT_EQ(inj.down_slots_in(4, 122, 126), 5u);  // full containment
  EXPECT_EQ(inj.down_slots_in(4, 23, 127), 5u);   // long window, short crash
  EXPECT_EQ(inj.down_slots_in(4, 124, 180), 3u + 2u);  // clipped + 2nd window
  EXPECT_EQ(inj.down_slots_in(4, 1, 121), 0u);    // ends before the crash
  EXPECT_EQ(inj.down_slots_in(4, 127, 139), 0u);  // restart slot is up
  EXPECT_EQ(inj.down_slots_in(1, 122, 126), 0u);  // wrong party
  // A window that only touches a crash's first or last down slot.
  EXPECT_EQ(inj.down_slots_in(4, 100, 122), 1u);
  EXPECT_EQ(inj.down_slots_in(4, 126, 130), 1u);
}

TEST(FaultInjector, EffectiveScheduleRemovesDownLeaders) {
  std::vector<SlotLeaders> slots(4);
  slots[0].honest = {0, 1};  // slot 1: before the crash
  slots[1].honest = {1};     // slot 2: down — leadership lost
  slots[2].honest = {1, 2};  // slot 3: down — only party 2 remains
  slots[3].honest = {1};     // slot 4: restarted
  const LeaderSchedule schedule(std::move(slots), 3);
  faults::FaultPlan plan;
  plan.churn.push_back({1, 2, 4});
  const faults::FaultInjector inj(plan, 3, 4);
  const LeaderSchedule effective = inj.effective_schedule(schedule);
  EXPECT_EQ(effective.leaders(1).honest, (std::vector<PartyId>{0, 1}));
  EXPECT_TRUE(effective.leaders(2).honest.empty());
  EXPECT_EQ(effective.leaders(3).honest, (std::vector<PartyId>{2}));
  EXPECT_EQ(effective.leaders(4).honest, (std::vector<PartyId>{1}));
}

// --- transport layer -------------------------------------------------------

TEST(FaultNetwork, PartitionSeversHonestLinksButNotAdversarialOnes) {
  faults::FaultPlan plan;
  plan.partitions.push_back({2, 5, {0, 0, 1, 1}});
  plan.churn.push_back({3, 2, 4});
  faults::FaultInjector inj(plan, 4, 20);
  Network net(4, 1);
  net.attach_faults(&inj);

  BlockTree tree;
  const Block b = make_block(genesis_block().hash, 2, 0, 0);
  tree.add(b);
  net.broadcast_chain(tree, b, 2);
  EXPECT_TRUE(drain(net, 0, 3).empty());    // the sender holds its own block
  EXPECT_EQ(drain(net, 1, 3).size(), 1u);   // same side of the split
  EXPECT_TRUE(drain(net, 2, 10).empty());   // severed: never arrives
  EXPECT_TRUE(drain(net, 3, 10).empty());   // down: never arrives
  EXPECT_EQ(inj.stats().ships_dropped, 2u);

  // The adversarial channel pierces the partition (the coalition keeps links
  // into every component) but not a crashed endpoint.
  const Block adv = make_block(genesis_block().hash, 2, kAdversary, 1);
  net.inject(adv, 2, 3);
  EXPECT_EQ(drain(net, 2, 3).size(), 1u);
  net.inject(adv, 3, 3);
  EXPECT_TRUE(drain(net, 3, 10).empty());
  EXPECT_EQ(inj.stats().ships_dropped, 3u);
}

TEST(FaultNetwork, CrashWipesQueuedDeliveriesAndCoverage) {
  faults::FaultPlan plan;
  plan.churn.push_back({1, 8, 10});
  faults::FaultInjector inj(plan, 2, 20);
  Network net(2, 1);
  net.attach_faults(&inj);

  BlockTree tree;
  const Block a = make_block(genesis_block().hash, 1, 0, 0);
  tree.add(a);
  net.broadcast_chain(tree, a, 1);  // due 2, both recipients
  net.crash_recipient(1);
  EXPECT_TRUE(drain(net, 1, 10).empty());  // in-flight copy lost with the queue
  EXPECT_GE(inj.stats().coverage_invalidated, 1u);
  // The wiped coverage forces a full re-ship on the next chain broadcast.
  const Block b = make_block(a.hash, 2, 0, 0);
  tree.add(b);
  net.broadcast_chain(tree, b, 9);  // window active: per-recipient path
  const auto due = drain(net, 1, 10);
  EXPECT_TRUE(due.empty());  // recipient 1 still down at slot 9: dropped
  net.resync_ship(a, 1, 10);
  net.resync_ship(b, 1, 10);
  const auto resynced = drain(net, 1, 10);
  ASSERT_EQ(resynced.size(), 2u);  // restart re-sync restores the view
  EXPECT_EQ(resynced[0].hash, a.hash);
  EXPECT_EQ(resynced[1].hash, b.hash);
  EXPECT_EQ(inj.stats().resync_blocks, 2u);
}

// --- execution layer -------------------------------------------------------

TEST(FaultSimulation, PartitionHealsAndViewsReconverge) {
  // A 4-slot partition [5, 9) over a no-empty-slot schedule: blocks forged
  // inside it cross the split only at the heal re-sync, so the realized
  // honest delay lands in [1, 3]; after the heal all views reconverge.
  const SymbolLaw law{0.8, 0.2, 0.0};
  Rng rng(31);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 20, 4, rng);
  faults::FaultPlan plan;
  plan.partitions.push_back({5, 9, {0, 1, 0, 1}});
  faults::FaultInjector inj(plan, 4, 20);
  Simulation sim(schedule, SimulationConfig{TieBreak::ConsistentHash, 3}, 1, nullptr, &inj);
  sim.run();

  for (const HonestNode& node : sim.nodes())
    EXPECT_EQ(node.tree().block_count(), sim.public_tree().block_count());
  const DeliveryAudit audit = sim.delivery_audit();
  EXPECT_TRUE(audit.faulted);
  EXPECT_FALSE(audit.delivery_unbounded);
  EXPECT_GE(audit.observed_delta, 1u);
  EXPECT_LE(audit.observed_delta, 3u);
  EXPECT_EQ(audit.stats.partitions_healed, 1u);
  EXPECT_GT(audit.stats.ships_dropped, 0u);
  EXPECT_GT(audit.stats.resync_blocks, 0u);
  EXPECT_EQ(audit.stats.crashes, 0u);
}

TEST(FaultSimulation, CrashRestartResyncRestoresViewWithinDeltaPlusOne) {
  const SymbolLaw law{0.8, 0.2, 0.0};
  Rng rng(53);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 16, 4, rng);
  faults::FaultPlan plan;
  plan.churn.push_back({2, 6, 10});
  faults::FaultInjector inj(plan, 4, 16);
  Simulation sim(schedule, SimulationConfig{TieBreak::ConsistentHash, 9}, 1, nullptr, &inj);

  // Run through the restart slot: the onset re-sync plus the Delta-window
  // flush must hand party 2 the full public view again (restart + Delta + 1
  // covers everything in flight at restart time).
  sim.run_until(10);
  EXPECT_EQ(sim.nodes()[2].tree().block_count(), sim.public_tree().block_count());

  sim.run();
  for (const HonestNode& node : sim.nodes())
    EXPECT_EQ(node.tree().block_count(), sim.public_tree().block_count());

  std::size_t expected_skips = 0;
  for (std::size_t t = 6; t < 10; ++t) {
    const auto& honest = schedule.leaders(t).honest;
    expected_skips += static_cast<std::size_t>(
        std::count(honest.begin(), honest.end(), static_cast<PartyId>(2)));
  }
  const DeliveryAudit audit = sim.delivery_audit();
  EXPECT_EQ(audit.stats.leaderships_skipped, expected_skips);
  EXPECT_EQ(audit.stats.crashes, 1u);
  EXPECT_EQ(audit.stats.restarts, 1u);
  EXPECT_FALSE(audit.delivery_unbounded);
}

// --- gossip relays under faults ----------------------------------------------

// A 6-party bidirectional ring (0-1-2-3-4-5-0) with no extra latency: one hop
// per slot, and a node relays what it admits.
net::NetConfig ring_config() {
  net::NetConfig cfg;
  cfg.topology = net::TopologyKind::Ring;
  return cfg;
}

// One honest leader at each listed (slot, party), no adversarial slots.
LeaderSchedule hand_schedule(std::size_t horizon, std::size_t parties,
                             const std::vector<std::pair<std::size_t, PartyId>>& leaders) {
  std::vector<SlotLeaders> slots(horizon);
  for (const auto& [slot, party] : leaders) slots[slot - 1].honest.push_back(party);
  return LeaderSchedule(std::move(slots), parties);
}

TEST(FaultGossip, CrashedNodeNeitherCollectsNorRelaysAndResyncsOnRestart) {
  // Party 1 is down for [3, 12). Party 0 forges at slot 4: its ship to party
  // 1 is dropped, and the block reaches party 2 the other way round
  // (0 -> 5 -> 4 -> 3 -> 2) at the onset of slot 8, two slots later than
  // through party 1.
  const LeaderSchedule schedule = hand_schedule(16, 6, {{4, 0}});
  faults::FaultPlan plan;
  plan.churn.push_back({1, 3, 12});
  faults::FaultInjector inj(plan, 6, 16);
  Simulation sim(schedule, SimulationConfig{TieBreak::ConsistentHash, 5}, 0, nullptr, &inj,
                 ring_config());
  sim.run_until(4);
  const BlockHash forged = sim.all_blocks().back().hash;
  sim.run_until(6);  // deliveries flushed through the onset of slot 7
  EXPECT_FALSE(sim.nodes()[2].tree().contains(forged));
  sim.run_until(7);
  EXPECT_TRUE(sim.nodes()[2].tree().contains(forged));
  sim.run_until(11);
  EXPECT_FALSE(sim.nodes()[1].tree().contains(forged));
  // Both links into party 1 (party 0's first hop, party 2's relay) were lost.
  EXPECT_EQ(inj.stats().ships_dropped, 2u);

  // The restart re-sync at slot 12 levels party 1 with the public view.
  sim.run_until(12);
  EXPECT_TRUE(sim.nodes()[1].tree().contains(forged));
  EXPECT_EQ(sim.nodes()[1].tree().block_count(), sim.public_tree().block_count());
  EXPECT_EQ(inj.stats().restarts, 1u);
  EXPECT_GT(inj.stats().resync_blocks, 0u);
}

TEST(FaultGossip, RelayIntoADropWindowIsLostLikeAFirstHopShip) {
  // Party 0 forges at slot 4; parties 1 and 5 admit it at slot 5 and relay
  // it inside a drop-everything window [5, 6): both relays are lost, counted,
  // and record no coverage, so party 1's block at slot 8 re-ships the
  // missing ancestor to party 2 and the gap heals.
  const LeaderSchedule schedule = hand_schedule(16, 6, {{4, 0}, {8, 1}});
  faults::FaultPlan plan;
  plan.links.push_back({5, 6, 1.0, 0.0, 0.0, 0});
  faults::FaultInjector inj(plan, 6, 16);
  Simulation sim(schedule, SimulationConfig{TieBreak::ConsistentHash, 6}, 0, nullptr, &inj,
                 ring_config());
  sim.run_until(4);
  const BlockHash forged = sim.all_blocks().back().hash;
  sim.run_until(7);
  EXPECT_EQ(inj.stats().ships_dropped, 2u);
  for (const PartyId p : {0u, 1u, 5u}) EXPECT_TRUE(sim.nodes()[p].tree().contains(forged));
  for (const PartyId p : {2u, 3u, 4u}) EXPECT_FALSE(sim.nodes()[p].tree().contains(forged));

  sim.run();
  EXPECT_EQ(sim.public_tree().block_count(), 3u);  // genesis + both forged blocks
  for (const HonestNode& node : sim.nodes()) {
    EXPECT_EQ(node.tree().block_count(), 3u) << "party " << node.id();
    EXPECT_EQ(node.buffered_orphans(), 0u) << "party " << node.id();
  }
  EXPECT_EQ(inj.stats().ships_dropped, 2u);
}

TEST(FaultSimulation, FuzzedPlansKeepPublicTreeTheUnionOfViews) {
  // Randomized plans x randomized adversary: at every heal and at the end of
  // the run the public tree must equal the union of honest views — faults may
  // delay or destroy deliveries but never corrupt or invent them.
  using faults::FaultProfile;
  const SymbolLaw law{0.4, 0.25, 0.35};
  for (const std::uint64_t seed : {101u, 102u, 103u}) {
    for (const FaultProfile profile : {FaultProfile::PartitionHeal, FaultProfile::Churn,
                                       FaultProfile::LossyLinks, FaultProfile::Mixed}) {
      Rng rng(seed);
      const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 40, 5, rng);
      Rng plan_rng(seed ^ 0xfa01ULL);
      const faults::FaultPlan plan =
          faults::sample_fault_plan(profile, 5, 40, 2, plan_rng);
      faults::FaultInjector inj(plan, 5, 40);
      RandomizedAdversary adversary(seed);
      Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, rng()}, 2,
                     &adversary, &inj);

      std::vector<std::size_t> stops;
      for (const faults::PartitionSpec& p : plan.partitions)
        if (p.heal <= 40) stops.push_back(p.heal);
      std::sort(stops.begin(), stops.end());
      stops.push_back(40);
      const auto check_union = [&](std::size_t slot) {
        std::vector<BlockHash> seen;
        for (const HonestNode& node : sim.nodes())
          for (const BlockHash h : node.tree().members()) {
            EXPECT_TRUE(sim.public_tree().contains(h))
                << "lost node-accepted block at slot " << slot << ", seed " << seed
                << ", profile " << faults::fault_profile_name(profile);
            if (std::find(seen.begin(), seen.end(), h) == seen.end()) seen.push_back(h);
          }
        EXPECT_EQ(sim.public_tree().block_count(), seen.size())
            << "slot " << slot << ", seed " << seed;
      };
      for (const std::size_t stop : stops) {
        sim.run_until(stop);
        check_union(stop);
      }
    }
  }
}

// --- the delivery audit ------------------------------------------------------

TEST(DeliveryAudit, UnhealedLockstepPartitionIsUnbounded) {
  // Party 0 forges at slot 4 behind a split that never heals: parties 2 and 3
  // never adopt the block, so no finite Delta describes the run.
  const LeaderSchedule schedule = hand_schedule(16, 4, {{4, 0}});
  faults::FaultPlan plan;
  plan.partitions.push_back({3, 100, {0, 0, 1, 1}});
  faults::FaultInjector inj(plan, 4, 16);
  Simulation sim(schedule, SimulationConfig{TieBreak::ConsistentHash, 2}, 1, nullptr, &inj);
  sim.run();
  const DeliveryAudit audit = sim.delivery_audit();
  EXPECT_TRUE(audit.faulted);
  EXPECT_FALSE(audit.heterogeneous);
  EXPECT_TRUE(audit.delivery_unbounded);
  EXPECT_EQ(audit.pending_inflations, 0u);  // lockstep never inflates
  EXPECT_GT(audit.stats.ships_dropped, 0u);
}

TEST(DeliveryAudit, GossipChurnReportsStatsAndInflationTogether) {
  // 6-ring, party 1 down for [3, 12). Party 0 forges at slot 4 and party 1
  // loses its slot-5 leadership. Stopped at slot 6 (deliveries flushed
  // through onset 7), party 3 adopted the block the long way at onset 7, but
  // party 2, one hop further, has not: the audit inflates Delta to 7 - 4 = 3
  // and carries the injector's stats in the same record.
  const LeaderSchedule schedule = hand_schedule(16, 6, {{4, 0}, {5, 1}});
  faults::FaultPlan plan;
  plan.churn.push_back({1, 3, 12});
  faults::FaultInjector inj(plan, 6, 16);
  Simulation sim(schedule, SimulationConfig{TieBreak::ConsistentHash, 5}, 0, nullptr, &inj,
                 ring_config());
  sim.run_until(6);
  const DeliveryAudit audit = sim.delivery_audit();
  EXPECT_TRUE(audit.faulted);
  EXPECT_TRUE(audit.heterogeneous);
  EXPECT_FALSE(audit.delivery_unbounded);
  EXPECT_EQ(audit.pending_inflations, 1u);  // party 2; party 1 is down: no claim
  EXPECT_EQ(audit.observed_delta, 3u);
  EXPECT_EQ(audit.stats.crashes, 1u);
  EXPECT_EQ(audit.stats.ships_dropped, 1u);
  EXPECT_EQ(audit.stats.leaderships_skipped, 1u);
  EXPECT_EQ(audit.leaderships_skipped, 1u);
}

TEST(DeliveryAudit, ReusedInjectorIsRejected) {
  // The audit reads the skip count from the injector's stats, so an injector
  // that already served an execution cannot be attached to another.
  const LeaderSchedule schedule = hand_schedule(16, 6, {{4, 0}, {5, 1}});
  faults::FaultPlan plan;
  plan.churn.push_back({1, 3, 12});
  faults::FaultInjector inj(plan, 6, 16);
  {
    Simulation first(schedule, SimulationConfig{TieBreak::ConsistentHash, 5}, 0, nullptr, &inj);
    first.run();
  }
  ASSERT_NE(inj.stats(), faults::FaultStats{});
  try {
    Simulation second(schedule, SimulationConfig{TieBreak::ConsistentHash, 5}, 0, nullptr, &inj);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fresh injector"), std::string::npos) << e.what();
  }
}

// --- oracle layer ----------------------------------------------------------

oracle::RunConfig fuzz_run_config(faults::FaultProfile, std::size_t delta) {
  oracle::RunConfig rc;
  rc.law = oracle::default_matrix_laws()[0].law;
  rc.tie_break = TieBreak::AdversarialOrder;
  rc.strategy = oracle::Strategy::Randomized;
  rc.delta = delta;
  rc.horizon = 40;
  rc.honest_parties = 6;
  return rc;
}

TEST(FaultOracle, EmptyPlanIsObservationallyIdenticalToNoPlan) {
  // The fault layer's zero-overhead contract, at verdict granularity: an
  // attached injector with an empty plan must not change a single draw or
  // a single invariant outcome.
  const oracle::RunConfig rc = fuzz_run_config(faults::FaultProfile::None, 1);
  const engine::SeedSequence streams(77);
  for (std::size_t r = 0; r < 6; ++r) {
    Rng r1 = streams.stream(r);
    Rng r2 = streams.stream(r);
    const oracle::RunVerdict bare = oracle::check_execution(rc, r1);
    const faults::FaultPlan empty;
    const oracle::RunVerdict faulted = oracle::check_execution(rc, r2, &empty);
    EXPECT_TRUE(faulted.faulted);
    EXPECT_FALSE(faulted.degraded);
    EXPECT_EQ(faulted.faults_injected, 0u);
    // The adversary's legitimate hold-back is still observed — but never past
    // the configured bound when no faults are injected.
    EXPECT_LE(faulted.observed_delta, rc.delta);
    EXPECT_EQ(bare.code(), faulted.code());
    EXPECT_EQ(bare.simulated_violation, faulted.simulated_violation);
    EXPECT_EQ(bare.analytic_allows, faulted.analytic_allows);
    EXPECT_EQ(bare.fork_margin, faulted.fork_margin);
    EXPECT_EQ(bare.string_margin, faulted.string_margin);
  }
}

TEST(FaultOracle, FaultedRunsAreGradedNeverSilentlyCorrupt) {
  // The graceful-degradation contract over fuzzed plans: a within-bound run
  // satisfies the full invariant set; an out-of-bound run is flagged degraded
  // and must satisfy the invariants at its observed Delta (code 'd') or admit
  // no finite projection at all (code 'u'). '!' anywhere is a genuine bug.
  using faults::FaultProfile;
  std::size_t degraded_seen = 0, faulted_seen = 0;
  for (const FaultProfile profile : {FaultProfile::PartitionHeal, FaultProfile::Churn,
                                     FaultProfile::LossyLinks, FaultProfile::Asynchrony,
                                     FaultProfile::Mixed}) {
    const oracle::RunConfig rc = fuzz_run_config(profile, 2);
    const engine::SeedSequence streams(31337 + static_cast<std::uint64_t>(profile));
    for (std::size_t r = 0; r < 8; ++r) {
      Rng plan_rng = streams.stream(1000 + r);
      const faults::FaultPlan plan =
          faults::sample_fault_plan(profile, rc.honest_parties, rc.horizon, rc.delta,
                                    plan_rng);
      Rng rng = streams.stream(r);
      const oracle::RunVerdict v = oracle::check_execution(rc, rng, &plan);
      EXPECT_TRUE(v.faulted);
      EXPECT_NE(v.code(), '!') << faults::fault_profile_name(profile) << " run " << r
                               << " plan " << plan.serialize();
      if (!v.degraded) {
        EXPECT_TRUE(v.dominated());
        EXPECT_LE(v.observed_delta, rc.delta);
      } else {
        EXPECT_TRUE(v.code() == 'd' || v.code() == 'u');
      }
      if (v.faults_injected != 0) ++faulted_seen;
      if (v.degraded) ++degraded_seen;
    }
  }
  // The band must actually exercise both sides of the bound, or the contract
  // above is vacuous.
  EXPECT_GT(faulted_seen, 0u);
  EXPECT_GT(degraded_seen, 0u);
}

TEST(FaultOracle, LateCrashDoesNotExcusePreCrashDeliveryFailure) {
  // Regression (found by the E16 bench at Mixed stream 216): a link fault
  // dropped node 4's copy of a slot-22 block, the block sat on a dead branch
  // with no re-ship, and node 4 only received it via restart re-sync at slot
  // 127. A binary crash excusal let node 4's down-window [122, 127) mask the
  // whole 99-slot delivery failure, so the run was graded at observed
  // Delta = 6 and the F4 projection (honest depths strictly increase) failed
  // — '!', a claimed oracle bug. With down slots merely discounted the run
  // grades at its true observed Delta and the projection holds.
  oracle::RunConfig rc;
  rc.law = oracle::default_matrix_laws()[0].law;
  rc.tie_break = TieBreak::AdversarialOrder;
  rc.strategy = oracle::Strategy::Randomized;
  rc.delta = 2;
  rc.horizon = 160;
  rc.target_slot = 4;
  rc.k = 10;
  const engine::SeedSequence streams(16);
  Rng plan_rng = streams.stream(1'000'000 + 216);
  const faults::FaultPlan plan = faults::sample_fault_plan(
      faults::FaultProfile::Mixed, rc.honest_parties, rc.horizon, rc.delta, plan_rng);
  Rng rng = streams.stream(216);
  const oracle::RunVerdict v = oracle::check_execution(rc, rng, &plan);
  EXPECT_NE(v.code(), '!') << "plan " << plan.serialize();
  EXPECT_TRUE(v.degraded);  // the 99-slot gap must register as degradation
  EXPECT_GT(v.observed_delta, rc.delta);
}

TEST(FaultMatrix, FaultBandIsBitIdenticalAcrossThreadCounts) {
  oracle::MatrixConfig config = oracle::fault_band_config();
  config.runs = 3;
  config.mc_samples = 200;
  const oracle::MatrixResult r1 = [&] {
    oracle::MatrixConfig c = config;
    c.threads = 1;
    return oracle::run_scenario_matrix(c);
  }();
  const oracle::MatrixResult r2 = [&] {
    oracle::MatrixConfig c = config;
    c.threads = 2;
    return oracle::run_scenario_matrix(c);
  }();
  const oracle::MatrixResult r8 = [&] {
    oracle::MatrixConfig c = config;
    c.threads = 8;
    return oracle::run_scenario_matrix(c);
  }();
  EXPECT_EQ(r1.cells.size(),
            config.fault_profiles.size() * config.tie_breaks.size() * config.deltas.size() *
                config.strategies.size() * oracle::default_matrix_laws().size());
  EXPECT_TRUE(r1.cells == r2.cells);
  EXPECT_TRUE(r1.cells == r8.cells);

  // Axis bookkeeping: every cell echoes the profile its index encodes.
  for (std::size_t f = 0; f < config.fault_profiles.size(); ++f) {
    const std::size_t idx = oracle::cell_index(config, 1, 1, 1, 1, f);
    ASSERT_LT(idx, r1.cells.size());
    EXPECT_EQ(r1.cells[idx].fault_profile, config.fault_profiles[f]);
  }

  // The fault band's oracle contract in aggregate: zero invariant failures
  // (within-bound AND degraded-graded), real injected faults, and an
  // un-faulted None baseline.
  EXPECT_EQ(r1.total_domination_failures(), 0u);
  EXPECT_EQ(r1.total_fork_invalid(), 0u);
  EXPECT_EQ(r1.total_margin_breaches(), 0u);
  EXPECT_EQ(r1.total_recovery_failures(), 0u);
  std::size_t injected = 0;
  for (const oracle::CellVerdict& c : r1.cells) {
    if (c.fault_profile == faults::FaultProfile::None) {
      EXPECT_EQ(c.faults_injected, 0u);
      EXPECT_EQ(c.degraded_runs, 0u);
    }
    EXPECT_EQ(c.first_failure_run, SIZE_MAX) << "reproducer: " << c.first_failure_plan;
    injected += c.faults_injected;
  }
  EXPECT_GT(injected, 0u);
  EXPECT_GT(r1.total_degraded(), 0u);
  EXPECT_GT(r1.total_resync_blocks(), 0u);
}

}  // namespace
}  // namespace mh
