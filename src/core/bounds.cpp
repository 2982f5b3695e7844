#include "core/bounds.hpp"

#include <algorithm>
#include <cmath>

#include "genfunc/catalan_gf.hpp"
#include "genfunc/consecutive_gf.hpp"
#include "support/check.hpp"

namespace mh {

namespace {

std::size_t default_order(std::size_t k, std::size_t order) {
  // The coefficient tail decays geometrically; 4k + 256 terms make the
  // truncation error negligible next to the reported tail.
  return order > 0 ? order : 4 * k + 256;
}

}  // namespace

long double bound1_tail(const SymbolLaw& law, std::size_t k, std::size_t order) {
  const CatalanGF gf(law, default_order(k, order));
  return gf.smoothed_tail(k);
}

long double bound1_decay_rate(const SymbolLaw& law) {
  // Radius computation needs no long series; order is irrelevant to it.
  const CatalanGF gf(law, 8);
  return gf.decay_rate();
}

long double bound2_decay_rate(const SymbolLaw& law) {
  const ConsecutiveCatalanGF gf(law, 8);
  return gf.decay_rate();
}

double theorem1_exponent(const SymbolLaw& law) {
  const double eps = law.epsilon();
  MH_REQUIRE(eps > 0.0);
  return std::min(eps * eps * eps, eps * eps * law.ph);
}

double theorem2_exponent(const SymbolLaw& law) {
  const double eps = law.epsilon();
  MH_REQUIRE(eps > 0.0);
  return eps * eps * eps;
}

long double bound3_probability(double eps, std::size_t delta, std::size_t k) {
  MH_REQUIRE(eps > 0.0 && eps < 1.0);
  MH_REQUIRE(k >= 1);
  const long double le = static_cast<long double>(eps);
  const long double exponent = -static_cast<long double>(k) * le * le / 2.0L +
                               static_cast<long double>(1 + delta) * le / (1.0L - le);
  const long double value = static_cast<long double>(1 + delta) /
                            sqrtl(static_cast<long double>(k)) * expl(exponent);
  return std::min(1.0L, value);
}

}  // namespace mh
