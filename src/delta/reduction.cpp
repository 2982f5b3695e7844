#include "delta/reduction.hpp"

#include <cmath>

#include "support/check.hpp"

namespace mh {

namespace {

/// The shared map: an honest slot survives iff the `delta` slots after it
/// exist and none of them ends its survival window. Truncated windows at the
/// end of the string translate to A, matching the paper's remark that the
/// last Delta symbols are distorted adversarially.
template <class EndsWindow>
ReductionResult reduce_with(const TetraString& w, std::size_t delta, EndsWindow ends_window) {
  const std::size_t n = w.size();
  ReductionResult out;
  out.inverse.assign(n, 0);

  std::vector<Symbol> reduced;
  for (std::size_t t = 1; t <= n; ++t) {
    const TetraSymbol b = w.at(t);
    if (is_empty(b)) continue;
    Symbol translated;
    if (is_adversarial(b)) {
      translated = Symbol::A;
    } else {
      bool clear = t + delta <= n;
      for (std::size_t j = t + 1; j <= t + delta && clear; ++j)
        if (ends_window(w.at(j))) clear = false;
      translated = clear ? (b == TetraSymbol::h ? Symbol::h : Symbol::H) : Symbol::A;
    }
    reduced.push_back(translated);
    out.pi.push_back(t);
    out.inverse[t - 1] = reduced.size();
  }
  out.reduced = CharString(std::move(reduced));
  return out;
}

}  // namespace

ReductionResult reduce(const TetraString& w, std::size_t delta) {
  // "{Bot, A}^Delta is a prefix of the rest" (Definition 22).
  return reduce_with(w, delta, [](TetraSymbol s) { return is_honest(s); });
}

ReductionResult reduce_conservative(const TetraString& w, std::size_t delta) {
  // Only a run of empty slots keeps the honest slot.
  return reduce_with(w, delta, [](TetraSymbol s) { return !is_empty(s); });
}

SymbolLaw reduced_law(const TetraLaw& law, std::size_t delta) {
  law.validate();
  const double f = law.f();
  MH_REQUIRE(f > 0.0);
  const double alpha = std::pow(1.0 - f, static_cast<double>(delta));
  SymbolLaw out;
  out.ph = law.ph * alpha / f;
  out.pH = law.pH * alpha / f;
  out.pA = 1.0 - alpha + law.pA * alpha / f;
  out.validate();
  return out;
}

}  // namespace mh
