// BandedDp: the shared banded, cache-blocked, gather-based kernel behind the
// Section-6.6 settlement dynamic programs (exact_dp.hpp) and their delta-
// synchronous counterpart (delta/delta_settlement.hpp).
//
// The joint (r, s) = (rho, mu) law of Theorem 5 is evolved over a shrinking
// diagonal band of live states. After n steps since seed(), row r is live on
//
//   r in [0, rcap],   s in [max(slo, r - max(0, n - r)), min(r, shi)].
//
// Both double-buffers are the full (K+2) x (2K+2) row-major grid; the band
// bounds what is iterated, not what is stored. Per step the kernel
//
//   * GATHERS each target cell from its (at most three) predecessor cells
//     instead of scattering three writes per source cell — every target is a
//     pure assignment, so the dense per-step grid clear() of the original
//     implementation disappears entirely and the inner loop over s is a
//     contiguous, vectorizable sweep;
//   * tracks the band extents exactly: `shi` always falls by one (mass pushed
//     above it is provably violating at every remaining observation time and
//     accrues to the viol() sink), `slo` either rises toward the horizon
//     (fixed-horizon series: mass below is provably safe, accruing to safe())
//     or falls (eventual-settlement phase 1, which keeps every recovery path);
//   * starts every row at its REACH FLOOR r - max(0, n - r). Call g = r - s
//     the gap. seed() puts all mass at gap 0; a step raises the gap by at
//     most one, and only on an honest symbol read at reach 0 (every other
//     transition keeps it or lowers it); and climbing back from reach 0 to
//     reach r takes at least r adversarial symbols. So g <= max(0, n - r),
//     and every cell below the floor holds an exact zero. At K = 300 that is
//     ~78% of the [slo, min(r, shi)] band; skipping it moves no bit, since
//     a skipped cell would only have added +0 to a sum. The floor is the
//     exact support: with pA, ph and pH all positive and mass on every
//     seeded reach, every band cell at or above it holds mass > 0.
//
// The scalar is a template parameter and the two instantiations have distinct
// contracts, pinned by tests/test_dp_kernel.cpp:
//
//   * long double — the REFERENCE path. Per-cell gather terms are added in
//     exactly the source-iteration order of the original scatter code
//     (ascending r, then ascending s, then A before h before H), so results
//     are bit-identical to the pre-refactor kernel (a dense copy of which
//     the tests keep as a fuzz reference).
//   * double — the FAST path. Same recurrence in hardware doubles (SIMD-able,
//     half the memory traffic); sink and report accumulators additionally use
//     Neumaier-compensated summation so the band-wide reductions do not lose
//     the deep tails Table 1 cares about.
#pragma once

#include <cstddef>
#include <vector>

#include "core/reach_distribution.hpp"

namespace mh {

/// Accuracy/speed choice surfaced by every DP entry point built on BandedDp.
enum class DpPrecision {
  Reference,  ///< long double, bit-identical to the original scatter kernel
  Fast,       ///< double with compensated reductions; ~1e-14 relative error
};

/// Neumaier-compensated accumulator for the Fast path; a plain sum for the
/// Reference path (whose add order is part of the bit-identity contract).
template <typename Scalar>
struct DpAccum {
  Scalar sum{0};
  Scalar comp{0};

  void add(Scalar x) noexcept {
    if constexpr (sizeof(Scalar) <= sizeof(double)) {
      const Scalar t = sum + x;
      if ((sum >= 0 ? sum : -sum) >= (x >= 0 ? x : -x))
        comp += (sum - t) + x;
      else
        comp += (x - t) + sum;
      sum = t;
    } else {
      sum += x;
    }
  }

  [[nodiscard]] Scalar value() const noexcept {
    if constexpr (sizeof(Scalar) <= sizeof(double)) return sum + comp;
    return sum;
  }
};

/// The reach floor r - max(0, n - r): the lowest margin a reach-r state can
/// hold n steps after BandedDp::seed() (see the gap argument above).
[[nodiscard]] constexpr std::ptrdiff_t reach_floor(std::ptrdiff_t r, std::ptrdiff_t n) noexcept {
  return r >= n ? r : 2 * r - n;
}

template <typename Scalar>
class BandedDp {
 public:
  /// Grid capacity for horizons up to k_max: r in [0, k_max+1], s in
  /// [-k_max, k_max+1]. Both buffers start zeroed.
  explicit BandedDp(std::size_t k_max);

  /// Seed the diagonal s = r from `initial` (which must cover r = 0..k_max);
  /// mass beyond r = k_max and `initial.tail` fold into the viol() sink
  /// (exact: such states keep mu >= 0 through any horizon <= k_max). Zeroes
  /// both buffers and restarts the step count the reach floor is taken at.
  void seed(const ReachPmf& initial);

  /// One Theorem-5 transition onto the band [slo_next, min(r, shi_next)],
  /// r <= rcap_next. Requires shi_next == shi()-1, |slo_next - slo()| <= 1,
  /// rcap_next in {rcap(), rcap()-1} and rcap_next >= 1. A-mass pushed above
  /// shi_next accrues to viol(); when `safe_sink`, unpinned honest mass pushed
  /// below slo_next accrues to safe() (with safe_sink == false the caller must
  /// pass slo_next == slo()-1 so nothing can exit below).
  void step(Scalar pA, Scalar ph, Scalar pH, std::ptrdiff_t slo_next, std::ptrdiff_t shi_next,
            std::ptrdiff_t rcap_next, bool safe_sink);

  /// The Table-1 report: viol() plus all live mass with s >= 0, accumulated
  /// in ascending (r, s) order starting from viol().
  [[nodiscard]] Scalar nonneg_mass() const;

  /// Visit every live cell, from each row's floor up, in ascending (r, s)
  /// order: f(r, s, mass).
  template <typename F>
  void for_each_live(F&& f) const {
    for (std::ptrdiff_t r = 0; r <= rcap_; ++r) {
      const std::ptrdiff_t lo = row_lo(r), hi = row_hi(r);
      if (lo > hi) break;  // the floor outruns the band here and in every higher row
      const Scalar* row = row_ptr(cur_, r);
      for (std::ptrdiff_t s = lo; s <= hi; ++s) f(r, s, row[s]);
    }
  }

  [[nodiscard]] Scalar viol() const noexcept { return viol_.value(); }
  [[nodiscard]] Scalar safe() const noexcept { return safe_.value(); }
  [[nodiscard]] std::ptrdiff_t rcap() const noexcept { return rcap_; }
  [[nodiscard]] std::ptrdiff_t slo() const noexcept { return slo_; }
  [[nodiscard]] std::ptrdiff_t shi() const noexcept { return shi_; }
  [[nodiscard]] std::ptrdiff_t k() const noexcept { return k_; }

 private:
  /// Live extent of row r in the current state: [row_lo(r), row_hi(r)], empty
  /// when row_lo(r) > row_hi(r). Emptiness is monotone in r: hi >= 0 >= slo,
  /// so only the floor can empty a row, and the floor climbs at least one
  /// column per row while hi climbs at most one.
  [[nodiscard]] std::ptrdiff_t row_lo(std::ptrdiff_t r) const noexcept {
    const std::ptrdiff_t f = reach_floor(r, steps_);
    return f > slo_ ? f : slo_;
  }
  [[nodiscard]] std::ptrdiff_t row_hi(std::ptrdiff_t r) const noexcept {
    return r < shi_ ? r : shi_;
  }

  /// Row pointer biased so that row[s] addresses column s + k.
  [[nodiscard]] Scalar* row_ptr(std::vector<Scalar>& buf, std::ptrdiff_t r) const noexcept {
    return buf.data() + static_cast<std::size_t>(r) * sdim_ + static_cast<std::size_t>(k_);
  }
  [[nodiscard]] const Scalar* row_ptr(const std::vector<Scalar>& buf,
                                      std::ptrdiff_t r) const noexcept {
    return buf.data() + static_cast<std::size_t>(r) * sdim_ + static_cast<std::size_t>(k_);
  }

  void drain_sinks(Scalar pA, Scalar ph, Scalar pH, std::ptrdiff_t slo_next,
                   std::ptrdiff_t shi_next, bool safe_sink);

  std::ptrdiff_t k_;
  std::size_t sdim_;
  std::vector<Scalar> cur_;
  std::vector<Scalar> nxt_;
  std::ptrdiff_t rcap_ = 0;
  std::ptrdiff_t slo_ = 0;
  std::ptrdiff_t shi_ = 0;
  std::ptrdiff_t steps_ = 0;  ///< steps since seed(): the n of the reach floor
  DpAccum<Scalar> viol_;
  DpAccum<Scalar> safe_;
};

extern template class BandedDp<long double>;
extern template class BandedDp<double>;

}  // namespace mh
