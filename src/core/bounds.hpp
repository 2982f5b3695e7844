// User-facing evaluators for the paper's stochastic bounds.
//
//   Bound 1: Pr[no uniquely honest Catalan slot in a k-window]
//            <= exp(-k Omega(min(eps^3, eps^2 ph)))     (via CatalanGF tails)
//   Bound 2: Pr[no consecutive Catalan pair in a k-window]
//            <= exp(-k Omega(eps^3))       (via ConsecutiveCatalanGF::smoothed_tail)
//   Bound 3 / Theorem 7: the Delta-synchronous random-walk tail
//            f(Delta, k) <= O(1+Delta)/sqrt(k) exp(-k eps^2/2 + (1+Delta) eps/(1-eps)).
//
// The paper's Omega(.) constants are unspecified; the GF tails are the sharp
// numeric versions and `theorem*_exponent` expose the asymptotic rate
// parameters for shape comparisons.
#pragma once

#include <cstddef>

#include "chars/bernoulli.hpp"

namespace mh {

/// Sharp numeric Bound 1: GF tail for the window starting after a stationary
/// prefix (valid for every |x| >= 0 by dominance). `order` trades accuracy for
/// time; it must exceed k.
long double bound1_tail(const SymbolLaw& law, std::size_t k, std::size_t order = 0);

/// Asymptotic decay rates ln R from the radii of convergence.
long double bound1_decay_rate(const SymbolLaw& law);
long double bound2_decay_rate(const SymbolLaw& law);

/// The exponent parameter of Theorem 1: min(eps^3, eps^2 ph).
double theorem1_exponent(const SymbolLaw& law);
/// The exponent parameter of Theorem 2: eps^3.
double theorem2_exponent(const SymbolLaw& law);

/// Bound 3 with the explicit constant 1 in place of O(1):
/// (1+Delta)/sqrt(k) * exp(-k eps^2 / 2 + (1+Delta) eps / (1-eps)), clamped to 1.
long double bound3_probability(double eps, std::size_t delta, std::size_t k);

}  // namespace mh
