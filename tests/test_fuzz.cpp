// Failure-injection fuzzing: a chaotic adversary exercises every lever the
// model grants (random minting on random parents, targeted injections,
// per-recipient delays up to Delta, arbitrary tie-breaking) while the
// invariants that anchor the reproduction are asserted on every execution:
//   * lockstep delivers every honest chain by its due slot, checked slot by
//     slot (delivery_audit() assumes this of unfaulted lockstep runs);
//   * executions always map onto valid (Delta-)forks;
//   * honest views only ever contain valid blocks from the global record;
//   * observed settlement violations never beat the Theorem-5 recurrence.
#include <gtest/gtest.h>

#include <unordered_map>

#include "core/relative_margin.hpp"
#include "delta/delta_fork.hpp"
#include "fork/validate.hpp"
#include "protocol/bridge.hpp"
#include "protocol/simulation.hpp"

namespace mh {
namespace {

class ChaosMonkey : public Adversary {
 public:
  explicit ChaosMonkey(std::uint64_t seed, std::size_t delta) : rng_(seed), delta_(delta) {}

  void on_slot_begin(std::size_t slot, Simulation& sim) override {
    if (!sim.schedule().leaders(slot).adversarial) return;
    // Mint up to three blocks on random known parents with older slots.
    const std::size_t mints = rng_.below(4);
    for (std::size_t i = 0; i < mints; ++i) {
      const auto& blocks = sim.all_blocks();
      const Block& parent = blocks[rng_.below(blocks.size())];
      if (parent.slot >= slot) continue;
      const Block minted = sim.mint_adversarial(parent.hash, slot, rng_());
      // Reveal to a random subset, now or later.
      for (PartyId p = 0; p < sim.nodes().size(); ++p)
        if (rng_.bernoulli(0.7))
          sim.network().inject(minted, p, slot + rng_.below(3));
    }
  }

  std::vector<std::size_t> delivery_delays(const Block&, std::size_t, Simulation& sim) override {
    std::vector<std::size_t> delays(sim.nodes().size());
    for (auto& d : delays) d = delta_ == 0 ? 0 : rng_.below(delta_ + 1);
    return delays;
  }

  BlockHash break_tie(PartyId, const std::vector<BlockHash>& candidates, Simulation&) override {
    return candidates[rng_.below(candidates.size())];
  }

 private:
  Rng rng_;
  std::size_t delta_;
};

struct FuzzCase {
  double eps, ph;
  std::size_t delta;
};

class ChaosFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ChaosFuzz, InvariantsSurviveChaos) {
  const auto [eps, ph, delta] = GetParam();
  const SymbolLaw sync_law = bernoulli_condition(eps, ph);
  Rng rng(0xfadedcafe ^ static_cast<std::uint64_t>(delta));
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t horizon = 40 + rng.below(40);
    const LeaderSchedule schedule =
        LeaderSchedule::from_symbol_law(sync_law, horizon, 4 + rng.below(5), rng);
    ChaosMonkey monkey(rng(), delta);
    const TieBreak rule = rng.bernoulli(0.5) ? TieBreak::AdversarialOrder
                                             : TieBreak::ConsistentHash;
    Simulation sim(schedule, SimulationConfig{rule, rng()}, delta, &monkey);
    // Invariant 0: after run_until(t) the deliveries due at the onset of
    // t + 1 have landed, so every node holds every honest block b with
    // b.slot + 1 + Delta <= t + 1, whatever was injected privately, delayed
    // per recipient or tied.
    for (std::size_t t = 1; t <= horizon; ++t) {
      sim.run_until(t);
      for (const Block& b : sim.all_blocks()) {
        if (b.issuer == kAdversary || b.slot == 0 || b.slot + 1 + delta > t + 1) continue;
        for (const HonestNode& node : sim.nodes())
          ASSERT_TRUE(node.tree().contains(b.hash))
              << "node " << node.id() << " lacks party " << b.issuer << "'s slot-" << b.slot
              << " block after run_until(" << t << "), Delta = " << delta;
      }
    }

    // Invariant 1: the execution maps onto a valid (Delta-)fork.
    const ExecutionFork ef = fork_from_blocks(sim.all_blocks());
    const CharString w = schedule.characteristic_sync();
    if (delta == 0) {
      const auto result = validate_fork(ef.fork, w);
      ASSERT_TRUE(result.ok) << result.message;
    } else {
      const auto result = validate_fork(ef.fork, schedule.characteristic(), delta);
      ASSERT_TRUE(result.ok) << result.message;
    }

    // Invariant 2: every block an honest node holds is one the simulation
    // forged or minted, with intact headers. The record is all_blocks(), not
    // the global tree: the tree is also the nodes' shared store, and a view
    // interns any valid block it admits, so membership there proves nothing.
    std::unordered_map<BlockHash, const Block*> recorded;
    for (const Block& b : sim.all_blocks()) recorded.emplace(b.hash, &b);
    for (const HonestNode& node : sim.nodes())
      for (BlockHash h : node.tree().members()) {
        const auto it = recorded.find(h);
        ASSERT_NE(it, recorded.end()) << "node " << node.id() << " holds an unrecorded block";
        ASSERT_EQ(sim.global_tree().block(h), *it->second);
        ASSERT_TRUE(verify_block_integrity(*it->second));
      }

    // Invariant 3 (synchronous only): no chaos beats the optimal adversary.
    if (delta == 0) {
      for (std::size_t s = 1; s + 5 <= horizon; s += 7) {
        if (sim.observed_settlement_violation(s)) {
          ASSERT_GE(relative_margin_recurrence(w, s - 1), 0)
              << "chaos beat the recurrence at s = " << s << " on " << w.to_string();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ChaosFuzz,
                         ::testing::Values(FuzzCase{0.3, 0.3, 0}, FuzzCase{0.2, 0.1, 0},
                                           FuzzCase{0.3, 0.3, 2}, FuzzCase{0.1, 0.2, 4},
                                           FuzzCase{0.5, 0.0, 1}));

}  // namespace
}  // namespace mh
