#include "analysis/baselines.hpp"

#include <algorithm>
#include <cmath>

#include "core/exact_dp.hpp"

namespace mh {

SymbolLaw praos_collapsed_law(const SymbolLaw& law) {
  law.validate();
  SymbolLaw collapsed{law.ph, 0.0, law.pA + law.pH};
  collapsed.validate();
  return collapsed;
}

long double praos_settlement_error(const SymbolLaw& law, std::size_t k, DpPrecision precision) {
  const SymbolLaw collapsed = praos_collapsed_law(law);
  if (collapsed.ph <= collapsed.pA) return 1.0L;  // ph - pH <= pA: no guarantee
  // The collapsed law may have pA >= 1/2 even when the threshold holds is
  // impossible (ph > pA + pH and ph + pH + pA = 1 imply pA + pH < 1/2).
  return settlement_violation_probability(collapsed, k, InitialReach::Stationary, precision);
}

long double snow_white_settlement_error(const SymbolLaw& law, std::size_t k) {
  if (law.ph <= law.pA) return 1.0L;  // ph <= pA: no guarantee
  // Their argument certifies exp(-Theta(sqrt k)): a union bound over the
  // k possible divergence depths of a sqrt-k-scaled martingale deviation.
  // The rate constant follows the Chernoff gap of the conditioned h/A walk,
  // discounted by the density of decisive slots.
  const double active = law.ph + law.pA;
  const double gap = (law.ph - law.pA) / active;  // walk bias among decisive slots
  const long double rate = static_cast<long double>(gap) * static_cast<long double>(gap) / 2.0L *
                           sqrtl(static_cast<long double>(active));
  const long double value = expl(-rate * sqrtl(static_cast<long double>(k)));
  return std::min(1.0L, value);
}

}  // namespace mh
