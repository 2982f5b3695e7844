// Baseline consistency guarantees re-implemented for comparison benches.
//
// Both baselines are *analyses of the same longest-chain protocol*; what
// differs is how the combinatorial argument treats multiply honest slots.
// We realize each as the settlement error its argument certifies:
//
//   * Praos-style: collapse every H symbol to A (multiply honest slots are
//     conceded to the adversary) and run the exact single-honest settlement DP
//     on the collapsed law. This is the sharp numeric version of the
//     ph - pH > pA threshold: the collapsed walk has honest mass ph against
//     adversarial mass pH + pA.
//   * Sleepy/Snow White-style: ignore H slots entirely (treat them as neutral
//     filler): the certified error concerns only the h-vs-A subsequence, and
//     the published tail is exp(-Theta(sqrt k)); we expose that shape with
//     the explicit exponent sqrt(k) * (sqrt(ph) - sqrt(pA))^2-style rate as
//     well as the sharp collapsed-law DP where H symbols become non-slots.
#pragma once

#include <cstddef>

#include "chars/bernoulli.hpp"
#include "core/dp_kernel.hpp"

namespace mh {

/// The collapsed law a Praos-style argument certifies: H mass moves to A.
SymbolLaw praos_collapsed_law(const SymbolLaw& law);

/// Praos-certified settlement error at depth k (1.0 when inapplicable). The
/// collapsed-law DP runs on the banded kernel at the requested precision.
long double praos_settlement_error(const SymbolLaw& law, std::size_t k,
                                   DpPrecision precision = DpPrecision::Reference);

/// Snow White-certified settlement error: the e^{-Theta(sqrt k)} tail with the
/// explicit rate their martingale argument yields (1.0 when inapplicable).
/// `k` counts slots; only the ~(ph+pA) fraction that is h/A contributes.
long double snow_white_settlement_error(const SymbolLaw& law, std::size_t k);

}  // namespace mh
