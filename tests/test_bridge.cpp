#include "protocol/bridge.hpp"

#include <gtest/gtest.h>

#include "chars/bernoulli.hpp"
#include "delta/delta_fork.hpp"
#include "fork/validate.hpp"
#include "protocol/simulation.hpp"

namespace mh {
namespace {

TEST(Bridge, RebuildsTreeShape) {
  std::vector<Block> blocks;
  const Block a = make_block(genesis_block().hash, 1, 0, 0);
  const Block b = make_block(a.hash, 2, 1, 0);
  const Block c = make_block(a.hash, 3, kAdversary, 0);
  blocks = {a, b, c};
  const ExecutionFork ef = fork_from_blocks(blocks);
  EXPECT_EQ(ef.fork.vertex_count(), 4u);
  const VertexId va = ef.vertex_of.at(a.hash);
  EXPECT_EQ(ef.fork.label(va), 1u);
  EXPECT_EQ(ef.fork.parent(ef.vertex_of.at(b.hash)), va);
  EXPECT_EQ(ef.fork.parent(ef.vertex_of.at(c.hash)), va);
  EXPECT_EQ(ef.fork.depth(ef.vertex_of.at(b.hash)), 2u);
}

TEST(Bridge, RejectsOrphans) {
  const Block orphan = make_block(0x1234, 1, 0, 0);
  EXPECT_THROW(fork_from_blocks({orphan}), std::invalid_argument);
}

// The central soundness property of the simulator: every honest execution
// maps onto a valid fork for its characteristic string — the protocol never
// leaves the combinatorial model.
TEST(Bridge, HonestExecutionsYieldValidForks) {
  const SymbolLaw law = bernoulli_condition(0.3, 0.4);
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 80, 5, rng);
    Simulation sim(schedule, SimulationConfig{TieBreak::ConsistentHash, rng()}, 0, nullptr);
    sim.run();
    const ExecutionFork ef = fork_from_blocks(sim.all_blocks());
    const auto result = validate_fork(ef.fork, schedule.characteristic_sync());
    ASSERT_TRUE(result.ok) << result.message;
  }
}

TEST(Bridge, DelayedExecutionsYieldValidDeltaForks) {
  const TetraLaw law = theorem7_law(0.4, 0.05, 0.2);
  Rng rng(42);
  const std::size_t delta = 3;
  for (int trial = 0; trial < 10; ++trial) {
    const LeaderSchedule schedule = LeaderSchedule::from_tetra_law(law, 100, 5, rng);

    // A delaying adversary: hold every block back the full Delta for a random
    // half of the recipients.
    class Delayer : public Adversary {
     public:
      Delayer(std::size_t delta, std::uint64_t seed) : delta_(delta), rng_(seed) {}
      std::vector<std::size_t> delivery_delays(const Block&, std::size_t,
                                               Simulation& sim) override {
        std::vector<std::size_t> delays(sim.nodes().size(), 0);
        for (auto& d : delays) d = rng_.bernoulli(0.5) ? delta_ : 0;
        return delays;
      }

     private:
      std::size_t delta_;
      Rng rng_;
    } delayer(delta, rng());

    Simulation sim(schedule, SimulationConfig{TieBreak::ConsistentHash, rng()}, delta,
                   &delayer);
    sim.run();
    const ExecutionFork ef = fork_from_blocks(sim.all_blocks());
    const auto result = validate_fork(ef.fork, schedule.characteristic(), delta);
    ASSERT_TRUE(result.ok) << result.message;
    // Synchronous validation must generally fail... only if a delay actually
    // caused an equal-depth pair; do not assert it, just exercise the check.
    validate_fork(ef.fork, schedule.characteristic(), 0);
  }
}

}  // namespace
}  // namespace mh
