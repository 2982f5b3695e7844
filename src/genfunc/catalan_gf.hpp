// Bound 1 machinery (Section 5.1): the dominating generating function
//
//   F(Z)      = p Z D(Z) + q_h Z A(Z D(Z)) + q_H Z,
//   C_hat(Z)  = (q_h eps / q) Z / (1 - F(Z)),
//
// whose coefficient c_hat_t dominates the probability that the first uniquely
// honest Catalan slot is slot t. The tail sum over t >= k upper-bounds the
// Bound-1 event "no uniquely honest Catalan slot in a k-window" when the
// window starts the string; the |x| -> infinity smoothing multiplies by
// X_inf(D(Z)) = (1 - beta) / (1 - beta D(Z)) (Section 5.1, Case 2).
#pragma once

#include <cmath>
#include <cstddef>

#include "chars/bernoulli.hpp"
#include "genfunc/power_series.hpp"
#include "genfunc/walk_gf.hpp"

namespace mh {

class CatalanGF {
 public:
  /// Requires ph > 0 (Bound 1 needs uniquely honest slots) and an honest
  /// majority pA < 1/2.
  CatalanGF(const SymbolLaw& law, std::size_t order);

  /// The dominating probability generating function C_hat.
  [[nodiscard]] const PowerSeries& c_hat() const noexcept { return c_hat_; }
  /// The smoothed series X_inf(D(Z)) * C_hat(Z) for the |x| -> infinity case.
  [[nodiscard]] const PowerSeries& c_smoothed() const noexcept { return c_smoothed_; }

  /// Upper bound on Pr[no uniquely honest Catalan slot in a window of length k]
  /// after a stationary prefix (any |x| >= 0 by dominance): 1 - sum_{t < k} of
  /// the smoothed coefficients.
  [[nodiscard]] long double smoothed_tail(std::size_t k) const;

  /// Radius of convergence R = min(R1, R2): R1 the composite walk domain,
  /// R2 the root of F(z) = 1. The asymptotic decay rate of the tail is ln R.
  [[nodiscard]] long double radius() const;
  [[nodiscard]] long double decay_rate() const { return logl(radius()); }

  /// Closed-form F(z); nullopt outside the walk domain.
  [[nodiscard]] std::optional<long double> f_eval(long double z) const;

 private:
  SymbolLaw law_;
  WalkGF walk_;
  PowerSeries c_hat_;
  PowerSeries c_smoothed_;
};

}  // namespace mh
