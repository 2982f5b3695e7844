#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace mh {

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const std::size_t n = n_ + other.n_;
  const double delta = other.mean_ - mean_;
  const double w_other = static_cast<double>(other.n_) / static_cast<double>(n);
  mean_ += delta * w_other;
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) * w_other;
  n_ = n;
}

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::stderror() const noexcept {
  return n_ == 0 ? 0.0 : std::sqrt(variance() / static_cast<double>(n_));
}

void Proportion::merge(const Proportion& other) {
  successes += other.successes;
  trials += other.trials;
  if (trials == 0) return;  // two empty shards: stay default
  *this = wilson_interval(successes, trials);
}

Proportion wilson_interval(std::size_t successes, std::size_t trials, double z) {
  MH_REQUIRE(trials > 0);
  MH_REQUIRE(successes <= trials);
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double spread = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  Proportion out;
  out.successes = successes;
  out.trials = trials;
  out.estimate = p;
  out.lo = std::max(0.0, center - spread);
  out.hi = std::min(1.0, center + spread);
  return out;
}

namespace {

/// Lentz's continued-fraction evaluation of the incomplete beta kernel
/// (Numerical Recipes' betacf); converges in a few dozen iterations for the
/// argument ranges the Clopper-Pearson endpoints need.
double beta_continued_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-15;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= 300; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) break;
  }
  return h;
}

/// Quantile of the Beta(a, b) law by bisection on the regularized incomplete
/// beta (monotone); stops as soon as [lo, hi] has no representable midpoint.
double beta_quantile(double a, double b, double p) {
  double lo = 0.0, hi = 1.0;
  for (;;) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) return mid;
    if (regularized_incomplete_beta(a, b, mid) < p)
      lo = mid;
    else
      hi = mid;
  }
}

}  // namespace

double regularized_incomplete_beta(double a, double b, double x) {
  MH_REQUIRE(a > 0.0 && b > 0.0);
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  // lgamma_r, not std::lgamma: the latter writes glibc's global signgam, a
  // data race when Clopper-Pearson bands are computed on several threads.
  int sign = 0;
  const double ln_front = lgamma_r(a + b, &sign) - lgamma_r(a, &sign) - lgamma_r(b, &sign) +
                          a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(ln_front);
  // Use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) where the fraction converges
  // fastest.
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_continued_fraction(a, b, x) / a;
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

Proportion clopper_pearson_interval(std::size_t successes, std::size_t trials,
                                    double confidence) {
  MH_REQUIRE(trials > 0);
  MH_REQUIRE(successes <= trials);
  MH_REQUIRE(confidence > 0.0 && confidence < 1.0);
  const double alpha = 1.0 - confidence;
  const double n = static_cast<double>(trials);
  const double x = static_cast<double>(successes);
  Proportion out;
  out.successes = successes;
  out.trials = trials;
  out.estimate = x / n;
  out.lo = successes == 0 ? 0.0 : beta_quantile(x, n - x + 1.0, alpha / 2.0);
  out.hi = successes == trials ? 1.0 : beta_quantile(x + 1.0, n - x, 1.0 - alpha / 2.0);
  return out;
}

double chi_square_statistic(std::span<const std::size_t> observed,
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

double chi_square_critical(std::size_t degrees_of_freedom, double significance) {
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

LinearFit least_squares(std::span<const double> x, std::span<const double> y) {
  MH_REQUIRE(x.size() == y.size());
  MH_REQUIRE(x.size() >= 2);
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  MH_REQUIRE_MSG(denom != 0.0, "x values must not be constant");
  LinearFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = y[i] - (fit.intercept + fit.slope * x[i]);
    ss_res += e * e;
  }
  fit.r_squared = ss_tot <= 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
  return fit;
}

double fitted_decay_rate(std::span<const double> k, std::span<const double> p) {
  MH_REQUIRE(k.size() == p.size());
  std::vector<double> xs, ys;
  xs.reserve(k.size());
  ys.reserve(k.size());
  for (std::size_t i = 0; i < k.size(); ++i) {
    if (p[i] > 0.0) {
      xs.push_back(k[i]);
      ys.push_back(std::log(p[i]));
    }
  }
  MH_REQUIRE_MSG(xs.size() >= 2, "need at least two positive probabilities to fit a rate");
  return -least_squares(xs, ys).slope;
}

}  // namespace mh
