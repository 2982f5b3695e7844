#include "protocol/net/topology.hpp"

#include <algorithm>
#include <string>

#include "engine/seed_sequence.hpp"
#include "support/check.hpp"

namespace mh::net {

const char* topology_kind_name(TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::FullMesh: return "full-mesh";
    case TopologyKind::RandomK: return "random-k";
    case TopologyKind::Ring: return "ring";
    case TopologyKind::TwoClusterBridge: return "two-cluster";
  }
  return "?";
}

namespace {

/// Materializes a CSR from per-party neighbor lists (already deduplicated,
/// self-loop free, in deterministic build order).
void pack(std::vector<std::vector<PartyId>>& adj, std::vector<std::uint32_t>& offsets,
          std::vector<PartyId>& edges) {
  offsets.assign(adj.size() + 1, 0);
  std::size_t total = 0;
  for (std::size_t p = 0; p < adj.size(); ++p) {
    offsets[p] = static_cast<std::uint32_t>(total);
    total += adj[p].size();
  }
  offsets[adj.size()] = static_cast<std::uint32_t>(total);
  edges.reserve(total);
  for (const auto& row : adj)
    for (PartyId r : row) edges.push_back(r);
}

}  // namespace

Topology Topology::build(TopologyKind kind, std::size_t parties, std::size_t k,
                         std::uint64_t seed) {
  MH_REQUIRE_MSG(parties >= 1, "a topology needs at least one party, got " +
                                   std::to_string(parties));
  Topology topo(kind, parties);
  if (kind == TopologyKind::FullMesh) return topo;  // implicit adjacency

  std::vector<std::vector<PartyId>> adj(parties);
  if (parties == 1) {  // a single party has no links under any kind
    pack(adj, topo.offsets_, topo.edges_);
    return topo;
  }
  switch (kind) {
    case TopologyKind::FullMesh:
      break;  // handled above
    case TopologyKind::RandomK: {
      MH_REQUIRE_MSG(k >= 1 && k < parties,
                     "random-k topology needs 1 <= k < parties, got k = " +
                         std::to_string(k) + " with " + std::to_string(parties) +
                         " parties");
      // Ring backbone first: the i -> i+1 edge guarantees strong connectivity
      // regardless of what the shortcut draws land on. Shortcuts come from
      // one seeded stream in party order, so the graph is pure in (seed, n, k).
      Rng rng = engine::SeedSequence(seed).stream(engine::StreamDomain::Topology);
      for (PartyId p = 0; p < parties; ++p) {
        auto& row = adj[p];
        row.push_back(static_cast<PartyId>((p + 1) % parties));
        while (row.size() < k) {
          const auto cand = static_cast<PartyId>(rng.below(parties));
          if (cand == p || std::find(row.begin(), row.end(), cand) != row.end()) continue;
          row.push_back(cand);
        }
      }
      break;
    }
    case TopologyKind::Ring:
      for (PartyId p = 0; p < parties; ++p) {
        adj[p].push_back(static_cast<PartyId>((p + 1) % parties));
        if (parties > 2)
          adj[p].push_back(static_cast<PartyId>((p + parties - 1) % parties));
      }
      break;
    case TopologyKind::TwoClusterBridge: {
      // Two intra-meshed halves [0, half) and [half, n); parties 0 and `half`
      // carry the only inter-cluster edges, so every cross-cluster block pays
      // the bridge hop — the "two datacenters, one peering link" shape.
      const std::size_t half = parties / 2;
      MH_REQUIRE_MSG(half >= 1, "two-cluster topology needs at least 2 parties, got " +
                                    std::to_string(parties));
      for (PartyId p = 0; p < parties; ++p) {
        const bool low = p < half;
        const std::size_t begin = low ? 0 : half;
        const std::size_t end = low ? half : parties;
        for (std::size_t r = begin; r < end; ++r)
          if (r != p) adj[p].push_back(static_cast<PartyId>(r));
      }
      adj[0].push_back(static_cast<PartyId>(half));
      adj[half].push_back(0);
      break;
    }
  }
  pack(adj, topo.offsets_, topo.edges_);
  return topo;
}

}  // namespace mh::net
