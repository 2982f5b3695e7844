// Per-link latency laws for the discrete-event network core.
//
// A LatencyLaw describes the EXTRA delay, in whole slots, that one link send
// suffers beyond the model's minimum one-slot hop (and beyond any adversarial
// hold-back). Draws are counter-based: the Network derives one Rng per
// (slot, sender, recipient) from the NetConfig seed's engine::SeedSequence, in
// the LinkLatency stream domain, and hands it to draw(), so a link's delay is
// a pure function of the scenario spec — independent of query order,
// repetition, and thread count.
//
// Every law is CAPPED (`fixed` or `cap` bounds every draw), so a heterogeneous
// execution realizes a finite per-hop delay and Delta-synchrony is always
// recoverable as the observed maximum over the run (which is exactly the
// Delta the oracle grades the execution at; see Simulation::delivery_audit).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "support/random.hpp"

namespace mh::net {

enum class LatencyKind : std::uint8_t {
  Degenerate = 0,  ///< every link takes exactly `fixed` extra slots
  Uniform,         ///< uniform on {0, 1, ..., cap}
  Geometric,       ///< truncated geometric min(G, cap), Pr[G = j] = (1-p) p^j
};

struct LatencyLaw {
  LatencyKind kind = LatencyKind::Degenerate;
  std::size_t fixed = 0;  ///< Degenerate only: the constant extra delay
  std::size_t cap = 0;    ///< Uniform/Geometric: inclusive draw bound
  double p = 0.5;         ///< Geometric tail weight, must lie in (0, 1)

  /// Throws std::invalid_argument naming the offending field when the law is
  /// not well-formed (Geometric p outside (0, 1)).
  void validate() const;

  /// One per-link draw; the caller supplies the (slot, sender, recipient)
  /// keyed stream so the value is pure in the scenario spec.
  [[nodiscard]] std::size_t draw(Rng& rng) const noexcept;

  [[nodiscard]] std::string describe() const;

  friend bool operator==(const LatencyLaw&, const LatencyLaw&) = default;
};

}  // namespace mh::net
