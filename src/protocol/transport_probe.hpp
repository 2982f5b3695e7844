// Seeded digest probes over the protocol transport, shared by
// bench_protocol_scale (golden seed pins + scale sweep), bench_obs_overhead
// (metrics-on vs metrics-off timing on the same cell), and test_obs (the
// metrics-on == metrics-off golden pin).
//
// A probe runs one serial, purely seed-driven execution and folds every
// order-sensitive observable into an FNV digest: block creation order,
// public-tree acceptance order, per-node adopted heads, and the final slot
// divergence. Any transport, tree, or instrumentation change that perturbs
// delivery order, acceptance order, or the public view shifts the digest.
#pragma once

#include <cstddef>
#include <cstdint>

#include "chars/bernoulli.hpp"
#include "protocol/faults/plan.hpp"
#include "protocol/net/config.hpp"

namespace mh {

/// The scale-sweep law used by every probe: dense slots, concurrency-heavy.
inline constexpr SymbolLaw kTransportProbeLaw{0.4, 0.25, 0.35};

// The golden transport pins: regenerate ONLY for an intentional semantic
// change (and say so in the commit). Values are thread-count independent
// (each execution is serial and purely seed-driven) and MUST NOT move when
// metric recording toggles.
inline constexpr std::uint64_t kBalanceProbePinSeed = 4242;
inline constexpr std::size_t kBalanceProbePinParties = 8;
inline constexpr std::size_t kBalanceProbePinHorizon = 512;
inline constexpr std::uint64_t kBalanceProbePinDigest = 0xedb5caf17ab2f6d6ULL;
inline constexpr std::uint64_t kRandomizedProbePinSeed = 1717;
inline constexpr std::size_t kRandomizedProbePinParties = 6;
inline constexpr std::size_t kRandomizedProbePinHorizon = 256;
inline constexpr std::size_t kRandomizedProbePinDelta = 2;
inline constexpr std::uint64_t kRandomizedProbePinDigest = 0x392faa91452afe13ULL;

struct TransportProbeOutcome {
  std::size_t parties = 0;
  std::size_t horizon = 0;
  std::size_t blocks = 0;
  std::size_t divergence = 0;
  std::size_t observed_delta = 0;  ///< audited bound (heterogeneous probes only)
  double seconds = 0.0;            ///< wall-clock of sim.run() alone
  std::uint64_t digest = 0;
};

/// Balance attack at Delta = 0 (the E14 acceptance cell shape).
TransportProbeOutcome balance_transport_probe(std::size_t parties, std::size_t horizon,
                                              std::uint64_t seed);

/// The balance probe with a FaultInjector attached for `plan`. With an EMPTY
/// plan this is the fault layer's null hypothesis: the digest must equal the
/// bare probe's exactly (no perturbed draw, no reordered delivery) and the
/// wall-clock overhead is what bench_faults gates at <= 2% on the E16 cell.
TransportProbeOutcome faulted_balance_transport_probe(std::size_t parties, std::size_t horizon,
                                                      std::uint64_t seed,
                                                      const faults::FaultPlan& plan);

/// Randomized adversary (Delta-delays, partial leaks, orphan flushes).
TransportProbeOutcome randomized_transport_probe(std::size_t parties, std::size_t horizon,
                                                 std::uint64_t seed, std::size_t delta);

/// The balance probe on a heterogeneous network shape: the execution runs
/// the event-core gossip paths (topology, per-link latency, bandwidth
/// spillover) and the digest additionally folds the delivery audit's observed
/// Delta, so a change to relay order, latency draws, or the inflation rule
/// moves the pin. A DEGENERATE `net` must reproduce balance_transport_probe
/// bit-identically (the façade equivalence test pins this).
TransportProbeOutcome hetero_transport_probe(std::size_t parties, std::size_t horizon,
                                             std::uint64_t seed, std::size_t delta,
                                             const net::NetConfig& net);

}  // namespace mh
