// Bound 2 machinery (Section 5.2): bivalent strings (ph = 0) under the
// consistent tie-breaking axiom A0'. The dominating generating function for
// the first pair of consecutive Catalan slots is
//
//   E_hat(Z) = p Z D(Z) + q Z A(Z D(Z)) / A(1),     A(1) = p/q,
//   M_hat(Z) = eps D(Z) / (1 - (1 - eps) E_hat(Z)),
//
// whose tail over t >= k bounds Pr[no two consecutive Catalan slots in a
// k-window]. The |x| -> infinity smoothing mirrors Bound 1.
#pragma once

#include <cmath>
#include <cstddef>

#include "chars/bernoulli.hpp"
#include "genfunc/power_series.hpp"
#include "genfunc/walk_gf.hpp"

namespace mh {

class ConsecutiveCatalanGF {
 public:
  /// `law` supplies pA only (the bound concerns bivalent strings; ph is
  /// ignored and may be zero). Requires pA < 1/2.
  ConsecutiveCatalanGF(const SymbolLaw& law, std::size_t order);

  [[nodiscard]] const PowerSeries& m_hat() const noexcept { return m_hat_; }

  /// Upper bound on Pr[no consecutive Catalan pair starts in the first k slots].
  [[nodiscard]] long double tail(std::size_t k) const;
  [[nodiscard]] long double smoothed_tail(std::size_t k) const;

  /// Radius of convergence (composite walk domain or root of (1-eps)E = 1)
  /// and the implied asymptotic decay rate ln R ~ eps^3/2 + O(eps^4).
  [[nodiscard]] long double radius() const;
  [[nodiscard]] long double decay_rate() const { return logl(radius()); }

 private:
  [[nodiscard]] std::optional<long double> e_hat_eval(long double z) const;

  long double eps_;
  WalkGF walk_;
  PowerSeries m_hat_;
  PowerSeries m_smoothed_;
};

}  // namespace mh
