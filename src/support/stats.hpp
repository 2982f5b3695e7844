// Small statistics toolkit for Monte-Carlo experiments: streaming means,
// binomial confidence intervals, and least-squares decay-rate fits (used to
// measure the e^{-Theta(k)} slopes the paper predicts).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mh {

/// Streaming mean accumulator (Welford's update).
class RunningStats {
 public:
  void add(double x) noexcept;
  /// Absorb another accumulator (Chan et al. pairwise update), as if every
  /// observation of `other` had been added here. Enables sharded accumulation:
  /// merging disjoint shards never double-counts.
  void merge(const RunningStats& other) noexcept;
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
};

/// A binomial proportion estimate with a confidence interval.
struct Proportion {
  std::size_t successes = 0;
  std::size_t trials = 0;
  double estimate = 0.0;
  double lo = 0.0;  ///< lower bound of the CI
  double hi = 0.0;  ///< upper bound of the CI

  friend bool operator==(const Proportion&, const Proportion&) = default;
};

/// Wilson score interval for a binomial proportion (default z ~ 99% two-sided).
/// Behaves sensibly at the extremes (0 or all successes), unlike the normal interval.
Proportion wilson_interval(std::size_t successes, std::size_t trials, double z = 2.5758);

/// Exact (Clopper-Pearson) two-sided confidence interval for a binomial
/// proportion: the interval endpoints are beta-distribution quantiles, so the
/// band covers the true parameter with probability >= `confidence` for every
/// n and p (no normal approximation). The differential oracle uses these bands
/// to compare empirical violation frequencies against the exact DP series,
/// where approximate intervals would turn rare-event mismatches into noise.
Proportion clopper_pearson_interval(std::size_t successes, std::size_t trials,
                                    double confidence = 0.99);

/// Does the Clopper-Pearson band of (successes, trials) at `confidence` cover
/// `p` in [0, 1]? Decided by duality instead of inverting the tails: for
/// x > 0, p >= lo exactly when I_p(x, n-x+1) >= alpha/2, and for x < n,
/// p <= hi exactly when I_p(x+1, n-x) <= 1-alpha/2. At most two incomplete-
/// beta evaluations, where the interval bisects both endpoints.
bool clopper_pearson_covers(std::size_t successes, std::size_t trials, double p,
                            double confidence = 0.99);

/// Regularized incomplete beta function I_x(a, b) (continued fraction), the
/// primitive behind the Clopper-Pearson endpoints; exposed for tests.
double regularized_incomplete_beta(double a, double b, double x);

/// Ordinary least squares fit y = a + b*x. Returns {a, b}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;
};
LinearFit least_squares(std::span<const double> x, std::span<const double> y);

/// Fit log(p_k) ~ a - rate * k over the points with p > 0; returns the decay
/// rate `rate` (so p_k ~ e^{-rate*k}). Used to verify e^{-Theta(k)} behaviour.
double fitted_decay_rate(std::span<const double> k, std::span<const double> p);

}  // namespace mh
