// Cross-module integration: the protocol simulator, the fork framework, the
// margin recurrence and the exact DP must all tell one consistent story.
#include <gtest/gtest.h>

#include "checkers/settlement.hpp"
#include "core/exact_dp.hpp"
#include "core/relative_margin.hpp"
#include "fork/validate.hpp"
#include "protocol/adversary.hpp"
#include "protocol/bridge.hpp"
#include "sim/experiments.hpp"

namespace mh {
namespace {

// The balance attacker plays the protocol; the margin recurrence plays the
// abstraction. The attacker can never outperform the optimal fork adversary:
// whenever the recurrence says mu_eps(w_1..t) < 0, no two maximal chains
// diverging at genesis may coexist in the simulation.
TEST(Integration, BalanceAttackerBoundedByMarginRecurrence) {
  const SymbolLaw law = bernoulli_condition(0.2, 0.2);
  Rng rng(51);
  for (int trial = 0; trial < 15; ++trial) {
    const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 60, 6, rng);
    const CharString w = schedule.characteristic_sync();
    BalanceAttacker adversary;
    Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, rng()}, 0,
                   &adversary);
    for (std::size_t t = 1; t <= 60; ++t) {
      sim.run_until(t);
      if (sim.observed_settlement_violation(1)) {
        const std::int64_t mu = relative_margin_recurrence(w.prefix(t), 0);
        ASSERT_GE(mu, 0) << "protocol attack beat the optimal fork bound at slot " << t
                         << " of " << w.to_string();
      }
    }
  }
}

// Observed protocol-level violation frequencies stay below the exact optimal
// probability (up to MC noise): the DP is an upper bound over ALL adversaries.
TEST(Integration, ProtocolViolationsBelowExactDp) {
  const SymbolLaw law = table1_law(0.35, 0.5);
  const std::size_t k = 30;
  ProtocolExperimentConfig config;
  config.runs = 150;
  config.horizon = 60;
  config.honest_parties = 6;
  config.seed = 99;
  const ProtocolExperimentResult result =
      run_protocol_experiment(law, AttackKind::Balance, 1, k, config);
  // The game-level probability of an eventual violation dominates any
  // particular observation time; compare against the within-horizon variant.
  long double exact_any = 0.0L;
  const SettlementSeries series = exact_settlement_series(law, 59);
  for (std::size_t j = k; j <= 59; ++j) exact_any = std::max(exact_any, series.violation[j]);
  // Wilson lower bound must not exceed a generous multiple of the optimum;
  // the attacker is weaker than A*, so typically far below.
  EXPECT_LE(result.settlement_violations.lo,
            static_cast<double>(series.violation[k]) + 0.15);
  (void)exact_any;
}

// Fork extraction from adversarial executions still validates.
TEST(Integration, AdversarialExecutionsMapToValidForks) {
  const SymbolLaw law = bernoulli_condition(0.3, 0.3);
  Rng rng(52);
  for (int trial = 0; trial < 8; ++trial) {
    const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 50, 5, rng);
    BalanceAttacker adversary;
    Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, rng()}, 0,
                   &adversary);
    sim.run();
    const ExecutionFork ef = fork_from_blocks(sim.all_blocks());
    const auto result = validate_fork(ef.fork, schedule.characteristic_sync());
    ASSERT_TRUE(result.ok) << result.message;
    // Every honest node's adopted chain corresponds to a viable tine.
    for (const HonestNode& node : sim.nodes()) {
      const VertexId head = ef.vertex_of.at(node.best_head());
      EXPECT_GE(ef.fork.depth(head) + 1,
                max_honest_depth_upto(ef.fork, schedule.characteristic_sync(), 50));
    }
  }
}

// Tie-breaking ablation at the experiment level: with ph = 0 (all-H honest
// slots) and some adversarial stake, adversarial tie-breaking admits long
// balances while consistent tie-breaking suppresses them (Theorem 2).
TEST(Integration, TieBreakAblationMatchesTheorem2) {
  const SymbolLaw law{0.0, 0.7, 0.3};
  ProtocolExperimentConfig config;
  config.runs = 60;
  config.horizon = 50;
  config.honest_parties = 6;
  config.seed = 123;

  config.tie_break = TieBreak::AdversarialOrder;
  const auto adversarial =
      run_protocol_experiment(law, AttackKind::Balance, 1, 20, config);
  config.tie_break = TieBreak::ConsistentHash;
  const auto consistent =
      run_protocol_experiment(law, AttackKind::Balance, 1, 20, config);

  EXPECT_GT(adversarial.settlement_violations.estimate, 0.5);
  EXPECT_LT(consistent.settlement_violations.estimate,
            adversarial.settlement_violations.estimate);
}

}  // namespace
}  // namespace mh
