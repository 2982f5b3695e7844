// Per-slot, per-party leader eligibility — the simulated VRF lottery of the
// epoch-managed consensus layer.
//
// Party p with relative stake s wins slot t of an epoch with nonce eta with
// probability phi(s) = 1 - (1-f)^s, independently across (eta, t, p). Each
// trial is ONE uniform draw from the counter-based engine::SeedSequence
// stream keyed (eta, t, p) in the Lottery domain: the outcome is a pure
// function of the key, so schedules are invariant to query order, query
// repetition, and thread count — the same purity contract the fault injector
// established for its draws.
#pragma once

#include <cstdint>

#include "protocol/consensus/stake.hpp"
#include "protocol/leader.hpp"

namespace mh::consensus {

/// phi(share) = 1 - (1 - f)^share, evaluated as -expm1(share * log1p(-f)) so
/// the small-share regime (share ~ 1/n at committee scale) keeps full double
/// precision. Requires f in (0, 1) and share in [0, 1].
[[nodiscard]] double phi(double f, double share);

class SlotLeaderSelection {
 public:
  /// `f` is the active-slot coefficient; `root_seed` salts every stream (two
  /// selections with different roots are independent lotteries).
  SlotLeaderSelection(double f, std::uint64_t root_seed);

  [[nodiscard]] double f() const noexcept { return f_; }

  /// One Bernoulli(phi(share)) trial from the Lottery stream keyed
  /// (epoch_nonce, slot, party) under the root seed.
  [[nodiscard]] bool eligible(std::uint64_t epoch_nonce, std::size_t slot, PartyId party,
                              double share) const;

  /// The full leader set of `slot`, each party drawn independently at its
  /// current share. A coalition win absorbs the slot (the characteristic
  /// symbol A admits no honest co-leaders — the from_tetra_law convention),
  /// so honest draws are reported only when the coalition loses; the raw
  /// per-party trials remain queryable through eligible().
  [[nodiscard]] SlotLeaders draw_slot(std::uint64_t epoch_nonce, std::size_t slot,
                                      const StakeRegistry& registry) const;

 private:
  double f_;
  std::uint64_t root_seed_;
};

}  // namespace mh::consensus
