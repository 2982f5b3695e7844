// The counter that keys one honest link's random stream at one slot.
//
// Both per-link draws of an execution — the network's latency draw and the
// fault layer's drop/dup/delay verdict — take an engine::SeedSequence stream
// at index (slot * parties + sender) * parties + recipient, each under its
// own seed. The packing is one-to-one only while the index fits in 64 bits
// (for 10^6 parties, up to ~1.8 * 10^7 slots); past that it would silently
// reuse another link's stream, so the helper refuses instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "protocol/block.hpp"
#include "support/check.hpp"

namespace mh::net {

/// (slot * parties + sender) * parties + recipient. Throws
/// std::invalid_argument, naming the slot and the party count, when that
/// value does not fit in 64 bits. Callers pass sender, recipient < parties.
inline std::uint64_t link_stream_key(std::uint64_t slot, PartyId sender, PartyId recipient,
                                     std::uint64_t parties) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // slot * parties + sender fits, then (that) * parties + recipient fits.
  const bool fits = parties != 0 && slot <= (kMax - sender) / parties &&
                    slot * parties + sender <= (kMax - recipient) / parties;
  MH_REQUIRE_MSG(fits, "link stream key for slot " + std::to_string(slot) + " with " +
                           std::to_string(parties) + " parties does not fit in 64 bits");
  return (slot * parties + sender) * parties + recipient;
}

}  // namespace mh::net
