// The (epsilon, ph)-Bernoulli condition (Definition 7): i.i.d. symbols with
//   pA = (1 - epsilon) / 2,   ph given,   pH = 1 - pA - ph.
//
// Sampling helpers, plus the generic i.i.d. law SymbolLaw used wherever the
// evaluation section speaks of arbitrary (alpha, ph, pH) grids (Table 1 uses
// alpha = Pr[A] directly rather than epsilon).
#pragma once

#include <cstddef>

#include "chars/char_string.hpp"
#include "support/random.hpp"

namespace mh {

/// An arbitrary i.i.d. law on {h, H, A}. Probabilities must sum to 1.
struct SymbolLaw {
  double ph = 0.0;
  double pH = 0.0;
  double pA = 0.0;

  /// epsilon with pA = (1-eps)/2, i.e. eps = 1 - 2 pA.
  [[nodiscard]] double epsilon() const noexcept { return 1.0 - 2.0 * pA; }

  /// The paper's headline assumption ph + pH > pA.
  [[nodiscard]] bool honest_majority() const noexcept { return ph + pH > pA; }

  void validate() const;
  [[nodiscard]] Symbol sample(Rng& rng) const;
  [[nodiscard]] CharString sample_string(std::size_t length, Rng& rng) const;
  /// Resample `out` in place: identical to `out = sample_string(length, rng)`
  /// but reuses out's storage, so steady-state sampling allocates nothing.
  /// The hot Monte-Carlo loops call this once per sample on a per-shard
  /// buffer.
  void sample_into(CharString& out, std::size_t length, Rng& rng) const;
};

/// Definition 7: the (epsilon, ph)-Bernoulli condition.
[[nodiscard]] SymbolLaw bernoulli_condition(double epsilon, double ph);

/// Table 1 parameterization: alpha = Pr[A] in (0, 1/2), ratio = Pr[h] / (1 - alpha).
[[nodiscard]] SymbolLaw table1_law(double alpha, double h_ratio);

}  // namespace mh
