#include "protocol/consensus/epoch.hpp"

#include <vector>

#include "engine/seed_sequence.hpp"
#include "support/check.hpp"

namespace mh::consensus {

void EpochConfig::validate() const {
  MH_REQUIRE_MSG(epoch_length >= 1, "epoch length must be >= 1 slot");
  MH_REQUIRE_MSG(nonce_window <= epoch_length,
                 "nonce window of " + std::to_string(nonce_window) +
                     " slots cannot exceed the epoch length " + std::to_string(epoch_length));
}

std::size_t EpochConfig::window() const noexcept {
  if (nonce_window != 0) return nonce_window;
  const std::size_t two_thirds = (2 * epoch_length) / 3;
  return two_thirds >= 1 ? two_thirds : 1;
}

EpochManager::EpochManager(EpochConfig config, std::uint64_t genesis_seed)
    : config_(config), genesis_seed_(genesis_seed) {
  config_.validate();
}

std::size_t EpochManager::epoch_of(std::size_t slot) const {
  MH_REQUIRE_MSG(slot >= 1, "slot 0 is genesis and belongs to no epoch");
  return (slot - 1) / config_.epoch_length;
}

std::size_t EpochManager::epoch_start(std::size_t epoch) const noexcept {
  return epoch * config_.epoch_length + 1;
}

std::size_t EpochManager::epoch_end(std::size_t epoch) const noexcept {
  return (epoch + 1) * config_.epoch_length;
}

std::size_t EpochManager::epochs_covering(std::size_t horizon) const noexcept {
  return (horizon + config_.epoch_length - 1) / config_.epoch_length;
}

std::uint64_t EpochManager::fold_nonce(std::size_t epoch, const BlockTree& view) const {
  // Base value: the genesis seed's EpochNonce stream keyed by the epoch, so
  // epochs whose windows are empty (no block landed in them) still draw
  // distinct lotteries.
  std::uint64_t nonce =
      engine::SeedSequence(genesis_seed_).derive(engine::StreamDomain::EpochNonce, epoch);
  if (epoch == 0) return nonce;

  const std::size_t window_lo = epoch_start(epoch - 1);
  const std::size_t window_hi = window_lo + config_.window() - 1;  // inclusive
  // Collect the canonical chain's window blocks head-to-genesis, then fold in
  // ascending slot order (chains list parents first on the fold). The head
  // rule is ConsistentHash (A0'): it keeps the nonce independent of
  // delivery-order ties.
  std::vector<BlockHash> window_blocks;
  const BlockHash genesis = genesis_block().hash;
  for (BlockHash h = view.best_head(TieBreak::ConsistentHash); h != genesis;
       h = view.block(h).parent) {
    const std::uint64_t slot = view.block(h).slot;
    if (slot < window_lo) break;  // labels increase along chains: done
    if (slot <= window_hi) window_blocks.push_back(h);
  }
  for (std::size_t i = window_blocks.size(); i-- > 0;)
    nonce = fnv1a_accumulate(nonce, window_blocks[i]);
  return nonce;
}

}  // namespace mh::consensus
