// Epoch management for the consensus layer: slot <-> epoch arithmetic and the
// epoch nonce, folded deterministically from the chain.
//
// Epochs partition the 1-based slot axis into windows of `epoch_length` = R
// slots: epoch e covers slots [eR + 1, (e+1)R]. The nonce of epoch e seeds
// that epoch's leader lottery:
//
//   * every epoch's base value is the genesis seed's derivation in the
//     EpochNonce stream domain, keyed by the epoch index;
//   * epoch 0 has no chain history; its nonce is its base value (so
//     schedules stay a function of the seed alone until blocks exist);
//   * epoch e >= 1 folds, over its base value, the header hashes of the
//     canonical chain's blocks whose slots lie in the NONCE WINDOW of epoch
//     e-1 — its leading `nonce_window` slots (default 2R/3, the Ouroboros
//     Praos proportion), ascending slot order.
//
// Folding only the leading window, and only at the boundary, is what bounds
// stake-grinding: blocks forged in the trailing R/3 of an epoch can no longer
// move the next epoch's lottery, and an adversary probing nonces must commit
// real leaderships inside the window to do so.
#pragma once

#include <cstdint>

#include "protocol/blocktree.hpp"

namespace mh::consensus {

struct EpochConfig {
  std::size_t epoch_length = 32;  ///< R: slots per epoch
  /// Leading slots of the previous epoch whose chain blocks fold into the
  /// nonce; 0 resolves to floor(2R/3) with a floor of 1.
  std::size_t nonce_window = 0;

  void validate() const;
  /// The resolved window length (never 0, never above epoch_length).
  [[nodiscard]] std::size_t window() const noexcept;

  friend bool operator==(const EpochConfig&, const EpochConfig&) = default;
};

class EpochManager {
 public:
  EpochManager(EpochConfig config, std::uint64_t genesis_seed);

  [[nodiscard]] const EpochConfig& config() const noexcept { return config_; }

  /// Epoch index of a 1-based slot (slot 0 is genesis and belongs to no
  /// epoch; asking for it throws).
  [[nodiscard]] std::size_t epoch_of(std::size_t slot) const;
  /// First / last slot of epoch e.
  [[nodiscard]] std::size_t epoch_start(std::size_t epoch) const noexcept;
  [[nodiscard]] std::size_t epoch_end(std::size_t epoch) const noexcept;
  /// Number of epochs intersecting slots [1, horizon].
  [[nodiscard]] std::size_t epochs_covering(std::size_t horizon) const noexcept;

  /// The epoch-e nonce folded from `view`'s canonical chain (see file
  /// header). Pure in (genesis seed, epoch, the window blocks of the chain).
  [[nodiscard]] std::uint64_t fold_nonce(std::size_t epoch, const BlockTree& view) const;

 private:
  EpochConfig config_;
  std::uint64_t genesis_seed_;
};

}  // namespace mh::consensus
