#include "sim/experiments.hpp"

#include <memory>

#include "engine/engine.hpp"
#include "support/check.hpp"

namespace mh {

namespace {

std::unique_ptr<Adversary> make_adversary(AttackKind kind, std::size_t target_slot,
                                          std::size_t k) {
  switch (kind) {
    case AttackKind::PrivateChain: return std::make_unique<PrivateChainAdversary>(target_slot, k);
    case AttackKind::Balance: return std::make_unique<BalanceAttacker>();
  }
  return nullptr;
}

/// Per-shard tally of the experiment outcomes; merged in chunk order.
struct RunTally {
  std::size_t settlement_hits = 0;
  std::size_t cp_hits = 0;
  RunningStats divergence;
  RunningStats chain_length;

  void merge(const RunTally& other) {
    settlement_hits += other.settlement_hits;
    cp_hits += other.cp_hits;
    divergence.merge(other.divergence);
    chain_length.merge(other.chain_length);
  }
};

}  // namespace

ProtocolExperimentResult run_protocol_experiment_delta(const TetraLaw& law, AttackKind attack,
                                                       std::size_t target_slot, std::size_t k,
                                                       const ProtocolExperimentConfig& config) {
  MH_REQUIRE(target_slot + k <= config.horizon);
  engine::EngineOptions eopt;
  eopt.threads = config.threads;
  eopt.seed = config.seed;
  eopt.chunk_size = 1;  // whole executions are heavy; schedule them one by one

  const RunTally tally = engine::run_sharded<RunTally>(
      config.runs, eopt, [&](std::uint64_t /*run*/, Rng& rng, RunTally& partial) {
        const LeaderSchedule schedule =
            LeaderSchedule::from_tetra_law(law, config.horizon, config.honest_parties, rng);
        const std::unique_ptr<Adversary> adversary = make_adversary(attack, target_slot, k);
        SimulationConfig sim_config{config.tie_break, rng()};
        Simulation sim(schedule, sim_config, config.delta, adversary.get());

        // Game semantics: a violation at any observation >= target_slot + k
        // counts (reorg watch), as does a standing public-fork tie at that close.
        sim.watch_settlement(target_slot, k);
        sim.run_until(target_slot + k);
        const bool tied = sim.observed_settlement_violation(target_slot);
        sim.run_until(config.horizon);
        if (tied || sim.settlement_watch_violated(target_slot)) ++partial.settlement_hits;
        if (sim.observed_cp_slot_violation(k)) ++partial.cp_hits;
        partial.divergence.add(static_cast<double>(sim.observed_slot_divergence()));
        std::size_t best = 0;
        for (const HonestNode& node : sim.nodes())
          best = std::max(best, node.best_length());
        partial.chain_length.add(static_cast<double>(best));
      });

  ProtocolExperimentResult result;
  result.settlement_violations = wilson_interval(tally.settlement_hits, config.runs);
  result.cp_violations = wilson_interval(tally.cp_hits, config.runs);
  result.mean_slot_divergence = tally.divergence.mean();
  result.mean_chain_length = tally.chain_length.mean();
  return result;
}

ProtocolExperimentResult run_protocol_experiment(const SymbolLaw& law, AttackKind attack,
                                                 std::size_t target_slot, std::size_t k,
                                                 const ProtocolExperimentConfig& config) {
  // The synchronous law is the semi-synchronous one with no empty slots.
  return run_protocol_experiment_delta(TetraLaw{0.0, law.ph, law.pH, law.pA}, attack,
                                       target_slot, k, config);
}

}  // namespace mh
