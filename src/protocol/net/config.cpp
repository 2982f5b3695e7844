#include "protocol/net/config.hpp"

#include "support/check.hpp"

namespace mh::net {

void NetConfig::validate(std::size_t parties) const {
  MH_REQUIRE_MSG(parties >= 1, "a network needs at least one party, got " +
                                   std::to_string(parties));
  latency.validate();
  if (topology == TopologyKind::RandomK && parties > 1)
    MH_REQUIRE_MSG(k >= 1 && k < parties,
                   "random-k topology needs 1 <= k < parties, got k = " +
                       std::to_string(k) + " with " + std::to_string(parties) +
                       " parties");
}

std::string NetConfig::describe() const {
  std::string out = topology_kind_name(topology);
  if (topology == TopologyKind::RandomK) out += "(k=" + std::to_string(k) + ")";
  out += " / " + latency.describe();
  out += bandwidth == 0 ? " / bw=inf" : " / bw=" + std::to_string(bandwidth);
  return out;
}

}  // namespace mh::net
