// Chi-square goodness of fit: the statistic and its critical value, for
// tests that check a sampler against its law.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

#include "support/check.hpp"

namespace mh {

/// Pearson chi-square statistic for observed counts against expected probabilities.
/// Expects sum(expected_probs) ~ 1; bins with expected count < 5 are merged into
/// their predecessor to keep the statistic well behaved.
inline double chi_square_statistic(std::span<const std::size_t> observed,
                            std::span<const double> expected_probs) {
  MH_REQUIRE(observed.size() == expected_probs.size());
  MH_REQUIRE(!observed.empty());
  double total = 0.0;
  for (std::size_t c : observed) total += static_cast<double>(c);
  MH_REQUIRE(total > 0.0);

  // Merge small-expectation bins left-to-right so every used bin has E >= 5.
  double stat = 0.0;
  double obs_acc = 0.0;
  double exp_acc = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    obs_acc += static_cast<double>(observed[i]);
    exp_acc += expected_probs[i] * total;
    const bool last = (i + 1 == observed.size());
    if (exp_acc >= 5.0 || last) {
      if (exp_acc > 0.0) {
        const double d = obs_acc - exp_acc;
        stat += d * d / exp_acc;
      }
      obs_acc = 0.0;
      exp_acc = 0.0;
    }
  }
  return stat;
}

/// Upper critical value of the chi-square distribution via the Wilson-Hilferty
/// normal approximation; good to a few percent for df >= 3 (sufficient for tests).
inline double chi_square_critical(std::size_t degrees_of_freedom, double significance = 0.01) {
  MH_REQUIRE(degrees_of_freedom > 0);
  MH_REQUIRE(significance > 0.0 && significance < 0.5);
  // z-quantile via Acklam-style rational approximation on the upper tail.
  const double p = 1.0 - significance;
  // Beasley-Springer-Moro inverse normal (adequate for test thresholds).
  const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
                      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00};
  const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
                      6.680131188771972e+01, -1.328068155288572e+01};
  const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
                      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00};
  const double d[] = {7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
                      3.754408661907416e+00};
  double z = 0.0;
  if (p < 0.97575) {
    const double q = p - 0.5;
    const double r = q * q;
    z = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    z = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // Wilson-Hilferty: chi2_df(p) ~ df * (1 - 2/(9 df) + z sqrt(2/(9 df)))^3.
  const double df = static_cast<double>(degrees_of_freedom);
  const double h = 2.0 / (9.0 * df);
  const double cube = 1.0 - h + z * std::sqrt(h);
  return df * cube * cube * cube;
}

}  // namespace mh
