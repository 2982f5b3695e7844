// The reach / relative-margin recurrence of Theorem 5:
//
//   rho(eps) = 0,  rho(wA) = rho(w) + 1,
//   rho(wb)  = 0 if rho(w) = 0 else rho(w) - 1                (b in {h, H})
//
//   mu_x(eps) = rho(x),  mu_x(yA) = mu_x(y) + 1,
//   mu_x(yb)  = 0            if rho(xy) > mu_x(y) = 0
//             = 0            if rho(xy) = mu_x(y) = 0 and b = H
//             = mu_x(y) - 1  otherwise.
//
// These scalar recurrences are the paper's bridge between fork combinatorics
// and stochastic analysis; `MarginProcess` streams them one symbol at a time,
// which is also exactly what both the Monte-Carlo estimator and the exact DP
// (exact_dp.hpp) iterate.
#pragma once

#include <cstdint>
#include <vector>

#include "chars/char_string.hpp"

namespace mh {

/// One streaming (rho, mu) state. `rho` is rho(xy) and `mu` is mu_x(y) for the
/// fixed decomposition point |x| chosen at construction time.
class MarginProcess {
 public:
  /// Starts in the state after x with rho(x) = initial_rho (mu_x(eps) = rho(x)).
  explicit MarginProcess(std::int64_t initial_rho = 0);

  void step(Symbol b);

  [[nodiscard]] std::int64_t rho() const noexcept { return rho_; }
  [[nodiscard]] std::int64_t mu() const noexcept { return mu_; }

 private:
  std::int64_t rho_;
  std::int64_t mu_;
};

/// rho(w) from the empty-string start.
std::int64_t rho_of(const CharString& w);

/// mu_x(y) where w = xy and |x| = x_len.
std::int64_t relative_margin_recurrence(const CharString& w, std::size_t x_len);

/// mu_x(y_j) for the fixed x = w_1..w_{x_len} and every prefix y_j of the
/// suffix, j = 0..n-x_len (index 0 holds mu_x(eps) = rho(x)).
std::vector<std::int64_t> margin_trajectory(const CharString& w, std::size_t x_len);

}  // namespace mh
