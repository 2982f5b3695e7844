#include "protocol/transport_probe.hpp"

#include <chrono>
#include <memory>
#include <optional>

#include "protocol/adversary.hpp"
#include "protocol/faults/injector.hpp"

namespace mh {

namespace {

template <typename MakeAdversary>
TransportProbeOutcome run_probe(std::size_t parties, std::size_t horizon, std::uint64_t seed,
                                std::size_t delta, MakeAdversary&& make_adversary,
                                const faults::FaultPlan* plan = nullptr,
                                const net::NetConfig& net = {}) {
  Rng rng(seed);
  const LeaderSchedule schedule =
      LeaderSchedule::from_symbol_law(kTransportProbeLaw, horizon, parties, rng);
  auto adversary = make_adversary(rng());
  std::optional<faults::FaultInjector> injector;
  if (plan != nullptr) injector.emplace(*plan, parties, horizon);
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, rng()}, delta,
                 adversary.get(), injector ? &*injector : nullptr, net);
  const auto start = std::chrono::steady_clock::now();
  sim.run();
  TransportProbeOutcome out;
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  out.parties = parties;
  out.horizon = horizon;
  out.blocks = sim.all_blocks().size();
  out.divergence = sim.observed_slot_divergence();
  std::uint64_t digest = kFnvOffsetBasis;
  for (const Block& b : sim.all_blocks()) digest = fnv1a_accumulate(digest, b.hash);
  for (const BlockHash h : sim.public_tree().arrival_order())
    digest = fnv1a_accumulate(digest, h);
  for (const HonestNode& node : sim.nodes())
    digest = fnv1a_accumulate(digest, node.best_head());
  out.digest = fnv1a_accumulate(digest, out.divergence);
  if (net.heterogeneous()) {
    // Fold the recovered synchrony bound too — the golden pins of the
    // degenerate probes must NOT move, so only heterogeneous shapes add it.
    out.observed_delta = sim.delivery_audit().observed_delta;
    out.digest = fnv1a_accumulate(out.digest, out.observed_delta);
  }
  return out;
}

}  // namespace

TransportProbeOutcome balance_transport_probe(std::size_t parties, std::size_t horizon,
                                              std::uint64_t seed) {
  return run_probe(parties, horizon, seed, 0,
                   [](std::uint64_t) { return std::make_unique<BalanceAttacker>(); });
}

TransportProbeOutcome faulted_balance_transport_probe(std::size_t parties, std::size_t horizon,
                                                      std::uint64_t seed,
                                                      const faults::FaultPlan& plan) {
  return run_probe(parties, horizon, seed, 0,
                   [](std::uint64_t) { return std::make_unique<BalanceAttacker>(); }, &plan);
}

TransportProbeOutcome randomized_transport_probe(std::size_t parties, std::size_t horizon,
                                                 std::uint64_t seed, std::size_t delta) {
  return run_probe(parties, horizon, seed, delta, [](std::uint64_t adversary_seed) {
    return std::make_unique<RandomizedAdversary>(adversary_seed);
  });
}

TransportProbeOutcome hetero_transport_probe(std::size_t parties, std::size_t horizon,
                                             std::uint64_t seed, std::size_t delta,
                                             const net::NetConfig& net) {
  return run_probe(parties, horizon, seed, delta,
                   [](std::uint64_t) { return std::make_unique<BalanceAttacker>(); }, nullptr,
                   net);
}

}  // namespace mh
