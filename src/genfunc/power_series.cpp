#include "genfunc/power_series.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace mh {

PowerSeries::PowerSeries(std::size_t order) : coeff_(order + 1, 0.0L) {}

PowerSeries PowerSeries::constant(std::size_t order, long double value) {
  PowerSeries s(order);
  s.coeff_[0] = value;
  return s;
}

PowerSeries PowerSeries::monomial(std::size_t order, long double coefficient,
                                  std::size_t power) {
  PowerSeries s(order);
  MH_REQUIRE(power <= order);
  s.coeff_[power] = coefficient;
  return s;
}

long double PowerSeries::coeff(std::size_t i) const {
  return i < coeff_.size() ? coeff_[i] : 0.0L;
}

void PowerSeries::set_coeff(std::size_t i, long double value) {
  MH_REQUIRE(i < coeff_.size());
  coeff_[i] = value;
}

std::size_t PowerSeries::valuation() const {
  for (std::size_t i = 0; i < coeff_.size(); ++i)
    if (coeff_[i] != 0.0L) return i;
  return coeff_.size();
}

void PowerSeries::check_same_order(const PowerSeries& rhs) const {
  MH_REQUIRE_MSG(coeff_.size() == rhs.coeff_.size(), "mixed-order series arithmetic");
}

PowerSeries PowerSeries::operator+(const PowerSeries& rhs) const {
  check_same_order(rhs);
  PowerSeries out(order());
  for (std::size_t i = 0; i < coeff_.size(); ++i) out.coeff_[i] = coeff_[i] + rhs.coeff_[i];
  return out;
}

PowerSeries PowerSeries::operator-(const PowerSeries& rhs) const {
  check_same_order(rhs);
  PowerSeries out(order());
  for (std::size_t i = 0; i < coeff_.size(); ++i) out.coeff_[i] = coeff_[i] - rhs.coeff_[i];
  return out;
}

PowerSeries PowerSeries::operator*(const PowerSeries& rhs) const {
  check_same_order(rhs);
  PowerSeries out(order());
  const std::size_t n = coeff_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const long double a = coeff_[i];
    if (a == 0.0L) continue;
    for (std::size_t j = 0; i + j < n; ++j) out.coeff_[i + j] += a * rhs.coeff_[j];
  }
  return out;
}

PowerSeries PowerSeries::scaled(long double factor) const {
  PowerSeries out(order());
  for (std::size_t i = 0; i < coeff_.size(); ++i) out.coeff_[i] = coeff_[i] * factor;
  return out;
}

PowerSeries PowerSeries::shifted_up(std::size_t k) const {
  PowerSeries out(order());
  for (std::size_t i = 0; i + k < coeff_.size(); ++i) out.coeff_[i + k] = coeff_[i];
  return out;
}

PowerSeries PowerSeries::shifted_down(std::size_t k) const {
  for (std::size_t i = 0; i < k && i < coeff_.size(); ++i)
    MH_REQUIRE_MSG(coeff_[i] == 0.0L, "shifted_down requires vanishing low coefficients");
  PowerSeries out(order());
  for (std::size_t i = k; i < coeff_.size(); ++i) out.coeff_[i - k] = coeff_[i];
  return out;
}

PowerSeries PowerSeries::inverse() const {
  MH_REQUIRE_MSG(coeff_[0] != 0.0L, "inverse requires a nonzero constant term");
  // Newton: B <- B (2 - A B), doubling the number of correct coefficients.
  PowerSeries b = constant(order(), 1.0L / coeff_[0]);
  const PowerSeries two = constant(order(), 2.0L);
  for (std::size_t correct = 1; correct <= order(); correct *= 2)
    b = b * (two - (*this) * b);
  return b;
}

PowerSeries PowerSeries::sqrt() const {
  MH_REQUIRE_MSG(coeff_[0] > 0.0L, "sqrt requires a positive constant term");
  // Inverse-sqrt Newton (multiplications only): Y <- Y (3 - A Y^2) / 2; then
  // sqrt(A) = A * Y.
  PowerSeries y = constant(order(), 1.0L / std::sqrt(static_cast<double>(coeff_[0])));
  const PowerSeries three = constant(order(), 3.0L);
  for (std::size_t correct = 1; correct <= order(); correct *= 2)
    y = (y * (three - (*this) * y * y)).scaled(0.5L);
  return (*this) * y;
}

PowerSeries PowerSeries::dividedBy(const PowerSeries& rhs) const {
  check_same_order(rhs);
  const std::size_t v = rhs.valuation();
  MH_REQUIRE_MSG(v <= order(), "division by the zero series");
  if (v == 0) return (*this) * rhs.inverse();
  MH_REQUIRE_MSG(valuation() >= v, "quotient would not be a power series");
  return shifted_down(v) * rhs.shifted_down(v).inverse();
}

long double PowerSeries::evaluate(long double z) const {
  long double acc = 0.0L;
  for (std::size_t i = coeff_.size(); i-- > 0;) acc = acc * z + coeff_[i];
  return acc;
}

long double PowerSeries::partial_sum(std::size_t k) const {
  long double acc = 0.0L;
  for (std::size_t i = 0; i < k && i < coeff_.size(); ++i) acc += coeff_[i];
  return acc;
}

}  // namespace mh
