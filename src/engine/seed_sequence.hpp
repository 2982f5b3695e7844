// Counter-based RNG stream splitting for the parallel experiment engine.
//
// Every sample index i gets its own xoshiro256** stream whose seed is a pure
// function of (root seed, i). Shards can therefore process any subset of the
// index space on any thread and still produce, collectively, the exact same
// draws as a serial sweep — determinism is a property of the index space, not
// of the schedule. A chain of generators split one from another could only be
// evaluated in order.
//
// Keyed streams are the one other derivation: a stream named by a
// StreamDomain and up to three key words, such as a link's latency at
// (slot, sender, recipient). The domain is a key word of its own, so two
// uses never share a stream even when their roots and keys coincide, and no
// key is packed, so every 64-bit key is valid. No code outside this file
// mixes a seed by hand.
#pragma once

#include <cstdint>
#include <initializer_list>

#include "support/random.hpp"

namespace mh::engine {

/// One value per use of a keyed stream; the comment gives its key words.
enum class StreamDomain : std::uint64_t {
  LinkLatency = 1,  ///< Network::link_extra: (slot, sender, recipient)
  LinkFault,        ///< FaultInjector::link_verdict: (slot, sender, recipient)
  Topology,         ///< Topology::build's RandomK shortcuts: none
  Lottery,          ///< SlotLeaderSelection::eligible: (epoch nonce, slot, party)
  EpochNonce,       ///< EpochManager::fold_nonce's base value: (epoch)
  FaultPlan,        ///< an oracle matrix cell's fault plan: (run)
  RecurrenceMc,     ///< an oracle matrix cell's recurrence Monte-Carlo: none
};

class SeedSequence {
 public:
  explicit constexpr SeedSequence(std::uint64_t root) noexcept : root_(root) {}

  /// Seed of the index-th stream: two splitmix64 rounds over a golden-ratio
  /// counter, so neighbouring indices (and neighbouring roots) decorrelate.
  [[nodiscard]] constexpr std::uint64_t derive(std::uint64_t index) const noexcept {
    std::uint64_t s = root_ + 0x9e3779b97f4a7c15ULL * (index + 1);
    const std::uint64_t a = splitmix64(s);
    return a ^ splitmix64(s);
  }

  /// The index-th independent generator (Rng expands the seed further).
  [[nodiscard]] constexpr Rng stream(std::uint64_t index) const noexcept {
    return Rng(derive(index));
  }

  /// Seed of the stream keyed (domain, a, b, c): one splitmix64 round per
  /// word over the root, the domain and the three key words in turn, each
  /// word XORed into the previous round's output.
  [[nodiscard]] constexpr std::uint64_t derive(StreamDomain domain, std::uint64_t a = 0,
                                               std::uint64_t b = 0,
                                               std::uint64_t c = 0) const noexcept {
    std::uint64_t h = 0;
    for (const std::uint64_t word : {root_, static_cast<std::uint64_t>(domain), a, b, c}) {
      std::uint64_t state = h ^ word;
      h = splitmix64(state);
    }
    return h;
  }

  /// The generator of the stream keyed (domain, a, b, c).
  [[nodiscard]] constexpr Rng stream(StreamDomain domain, std::uint64_t a = 0,
                                     std::uint64_t b = 0, std::uint64_t c = 0) const noexcept {
    return Rng(derive(domain, a, b, c));
  }

  [[nodiscard]] constexpr std::uint64_t root() const noexcept { return root_; }

 private:
  std::uint64_t root_;
};

}  // namespace mh::engine
