#include "delta/delta_fork.hpp"

#include "support/check.hpp"

namespace mh {

Fork project_to_synchronous(const Fork& fork, const std::vector<std::size_t>& inverse) {
  Fork out;
  // Vertices are stored in insertion order with parents preceding children, so
  // a single pass rebuilds the tree; ids are preserved verbatim.
  for (VertexId v = 1; v < fork.vertex_count(); ++v) {
    const std::uint32_t l = fork.label(v);
    MH_REQUIRE(l >= 1 && l <= inverse.size());
    const std::size_t projected = inverse[l - 1];
    MH_REQUIRE_MSG(projected != 0, "fork labels an empty slot; not a valid Delta-fork");
    const VertexId copied =
        out.add_vertex(fork.parent(v), static_cast<std::uint32_t>(projected));
    MH_ASSERT(copied == v);
  }
  return out;
}

bool delta_settlement_violation_in_fork(const Fork& fork, std::size_t s, std::size_t k) {
  const std::vector<VertexId> heads = fork.longest_tines();
  auto stats = [&](VertexId head) {
    bool carries_s = false;
    std::size_t after = 0;
    for (VertexId v = head; v != kRoot; v = fork.parent(v)) {
      if (fork.label(v) == s) carries_s = true;
      if (fork.label(v) > s) ++after;
    }
    return std::pair{carries_s, after};
  };
  for (std::size_t a = 0; a < heads.size(); ++a)
    for (std::size_t b = a + 1; b < heads.size(); ++b) {
      const auto [s1, after1] = stats(heads[a]);
      const auto [s2, after2] = stats(heads[b]);
      if (!s1 && !s2) continue;
      if (after1 < k || after2 < k) continue;
      if (fork.label(fork.lca(heads[a], heads[b])) <= s - 1) return true;
    }
  return false;
}

}  // namespace mh
