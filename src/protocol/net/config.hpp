// The scenario knob bundling one heterogeneous network shape.
//
// A NetConfig is pure data: (topology kind, out-degree k, per-link latency
// law, per-party egress bandwidth, link-stream seed). The default-constructed
// value is the DEGENERATE configuration — full mesh, zero extra latency,
// unlimited bandwidth — under which the event-core transport is contractually
// bit-identical to the lockstep slot-bucket transport it replaced (the golden
// digest pins enforce this). Anything else flips the Network into
// heterogeneous mode: sends follow the topology with multi-hop relay
// forwarding, every link draws a capped latency, and egress beyond the
// bandwidth cap spills into later slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "protocol/net/latency.hpp"
#include "protocol/net/topology.hpp"

namespace mh::net {

struct NetConfig {
  TopologyKind topology = TopologyKind::FullMesh;
  std::size_t k = 3;          ///< RandomK out-degree (ring backbone + k-1 shortcuts)
  LatencyLaw latency{};       ///< extra per-hop delay beyond the 1-slot minimum
  std::size_t bandwidth = 0;  ///< per-party egress blocks per slot; 0 = unlimited
  std::uint64_t seed = 0x6e6574ULL;  ///< namespace for the per-link draw streams

  /// The lockstep shape (explicit spelling of the default).
  [[nodiscard]] static NetConfig degenerate() noexcept { return {}; }

  /// Does this shape leave the lockstep model at all? Degenerate configs run
  /// the byte-identical legacy paths; heterogeneous ones run the event-core
  /// gossip paths and are graded at the observed Delta.
  [[nodiscard]] bool heterogeneous() const noexcept {
    return topology != TopologyKind::FullMesh || latency.kind != LatencyKind::Degenerate ||
           latency.fixed != 0 || bandwidth != 0;
  }

  /// Throws std::invalid_argument naming the offending knob when the shape is
  /// unrealizable for `parties` (k out of range, malformed latency law).
  void validate(std::size_t parties) const;

  [[nodiscard]] std::string describe() const;

  friend bool operator==(const NetConfig&, const NetConfig&) = default;
};

}  // namespace mh::net
