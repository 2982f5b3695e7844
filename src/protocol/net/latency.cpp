#include "protocol/net/latency.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace mh::net {

void LatencyLaw::validate() const {
  if (kind == LatencyKind::Geometric)
    MH_REQUIRE_MSG(p > 0.0 && p < 1.0,
                   "geometric latency tail weight p = " + std::to_string(p) +
                       " must lie strictly inside (0, 1)");
}

std::size_t LatencyLaw::draw(Rng& rng) const noexcept {
  switch (kind) {
    case LatencyKind::Degenerate: return fixed;
    case LatencyKind::Uniform: return cap == 0 ? 0 : rng.below(cap + 1);
    case LatencyKind::Geometric:
      return std::min<std::size_t>(sample_geometric(rng, p), cap);
  }
  return 0;
}

std::string LatencyLaw::describe() const {
  switch (kind) {
    case LatencyKind::Degenerate: return std::string("degenerate(") + std::to_string(fixed) + ")";
    case LatencyKind::Uniform: return std::string("uniform[0,") + std::to_string(cap) + "]";
    case LatencyKind::Geometric:
      return std::string("geometric(p=") + std::to_string(p) + ",cap=" + std::to_string(cap) + ")";
  }
  return "?";
}

}  // namespace mh::net
