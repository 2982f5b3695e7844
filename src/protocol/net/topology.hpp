// Gossip topologies for the discrete-event network core.
//
// A Topology is the directed who-ships-to-whom graph of one execution. The
// lockstep model's implicit shape — everyone ships to everyone — is the
// FullMesh kind (kept implicit: no O(parties^2) edge storage); the other
// kinds materialize a CSR adjacency built deterministically from
// (kind, parties, k, seed), so the same scenario spec always yields the same
// graph on any machine and thread count.
//
// Every kind is strongly connected by construction — RandomK lays a ring
// backbone (edge i -> i+1) under its random shortcuts, Ring is bidirectional,
// and TwoClusterBridge joins two intra-meshed halves through the 0 <-> half
// bridge pair — so with relay forwarding every block eventually reaches every
// party and the observed Delta of an un-faulted heterogeneous run is finite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "protocol/block.hpp"

namespace mh::net {

enum class TopologyKind : std::uint8_t {
  FullMesh = 0,     ///< every party ships directly to every other (lockstep shape)
  RandomK,          ///< ring backbone + k-1 seeded random shortcuts per party
  Ring,             ///< bidirectional ring: i <-> i+1 (mod parties)
  TwoClusterBridge, ///< two intra-meshed halves joined by the 0 <-> half bridge
};

const char* topology_kind_name(TopologyKind kind) noexcept;

class Topology {
 public:
  /// Builds the adjacency; throws std::invalid_argument (via MH_REQUIRE) on a
  /// shape the kind cannot realize (RandomK needs 1 <= k < parties, every
  /// multi-party kind needs parties >= 2).
  static Topology build(TopologyKind kind, std::size_t parties, std::size_t k,
                        std::uint64_t seed);

  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }

  /// Out-degree of `p` (parties - 1 for the implicit full mesh).
  [[nodiscard]] std::size_t degree(PartyId p) const noexcept;

  /// Is `to` a direct out-neighbor of `from`? (Test and audit support.)
  [[nodiscard]] bool edge(PartyId from, PartyId to) const noexcept;

  /// Visit every out-neighbor of `p` in the deterministic build order.
  template <class Fn>
  void for_each_neighbor(PartyId p, Fn&& fn) const {
    if (kind_ == TopologyKind::FullMesh) {
      for (PartyId r = 0; r < parties_; ++r)
        if (r != p) fn(r);
      return;
    }
    for (std::size_t i = offsets_[p]; i < offsets_[p + 1]; ++i) fn(edges_[i]);
  }

 private:
  Topology(TopologyKind kind, std::size_t parties) : kind_(kind), parties_(parties) {}

  TopologyKind kind_ = TopologyKind::FullMesh;
  std::size_t parties_ = 0;
  /// CSR adjacency (empty for the implicit FullMesh).
  std::vector<std::uint32_t> offsets_;
  std::vector<PartyId> edges_;
};

}  // namespace mh::net
