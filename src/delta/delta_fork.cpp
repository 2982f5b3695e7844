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

}  // namespace mh
