#include "core/dp_kernel.hpp"

#include <algorithm>

#include "core/simd.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"

namespace mh {

// Band invariants maintained across step():
//   * slo_ <= 0 <= shi_ while any step remains (the pinning column s = 0 and
//     the report column s >= 0 are therefore always inside the band);
//   * the top column shi_ falls by exactly one per step, the bottom column
//     moves by at most one, and rcap_ falls by at most one — so every gather
//     read lands inside the band the previous step wrote or below its floor,
//     and the inactive buffer's stale cells (from two steps ago, outside the
//     band) are never read;
//   * the reach floor r - max(0, n - r) never rises as n grows, so a cell
//     below the floor now was below it at every earlier step: no step wrote
//     it, and it still holds the zero seed() filled in. The gather reads such
//     cells (a target cell near its row's floor reads the honest predecessor
//     row r + 1, and the top row's clamped-A rows, a few columns below their
//     floors), so that zero-fill is load-bearing.

namespace {

// The per-step dp.* metrics. Out of line and cold on purpose: inlined into
// step(), this block slowed the Table-1 sweep by ~14% with recording off
// (GCC 12, -O3, 4-vCPU x86-64 host). `n` is the step count after this step;
// dp.cells_touched counts the cells the gather writes, from each row's floor.
[[gnu::cold, gnu::noinline]] void record_step(std::ptrdiff_t slo_next, std::ptrdiff_t shi_next,
                                              std::ptrdiff_t rcap_next, std::ptrdiff_t n,
                                              bool reference) {
  MH_OBS_HIST("dp.band_width", static_cast<std::size_t>(shi_next - slo_next + 1));
  std::size_t cells = 0;
  for (std::ptrdiff_t rt = 0; rt <= rcap_next; ++rt) {
    const std::ptrdiff_t lo = std::max(slo_next, reach_floor(rt, n));
    const std::ptrdiff_t hi = rt < shi_next ? rt : shi_next;
    if (lo > hi) break;
    cells += static_cast<std::size_t>(hi - lo + 1);
  }
  MH_OBS_COUNT("dp.cells_touched", cells);
  if (reference) {
    MH_OBS_COUNT("dp.steps_reference", 1);
  } else {
    MH_OBS_COUNT("dp.steps_fast", 1);
  }
}

}  // namespace

template <typename Scalar>
BandedDp<Scalar>::BandedDp(std::size_t k_max)
    : k_(static_cast<std::ptrdiff_t>(k_max)),
      sdim_(2 * k_max + 2),
      cur_((k_max + 2) * sdim_, Scalar(0)),
      nxt_((k_max + 2) * sdim_, Scalar(0)) {
  MH_REQUIRE(k_max >= 1);
}

template <typename Scalar>
void BandedDp<Scalar>::seed(const ReachPmf& initial) {
  MH_REQUIRE_MSG(initial.mass.size() >= static_cast<std::size_t>(k_) + 1,
                 "initial reach law must cover r = 0..k_max");
  std::fill(cur_.begin(), cur_.end(), Scalar(0));
  std::fill(nxt_.begin(), nxt_.end(), Scalar(0));
  viol_ = {};
  safe_ = {};
  // Mass with rho(x) > K can never reach mu < 0 within the horizon: fold it
  // into the always-violating sink exactly.
  viol_.add(static_cast<Scalar>(initial.tail));
  for (std::size_t r = static_cast<std::size_t>(k_) + 1; r < initial.mass.size(); ++r)
    viol_.add(static_cast<Scalar>(initial.mass[r]));
  for (std::ptrdiff_t r = 0; r <= k_; ++r)
    row_ptr(cur_, r)[r] = static_cast<Scalar>(initial.mass[static_cast<std::size_t>(r)]);
  rcap_ = k_;
  slo_ = 0;
  shi_ = k_;
  steps_ = 0;
}

// Source-side accounting of the mass that exits the band this step. Each sink
// sees its cells in ascending (r, s) — the same source order as the original
// scatter sweep, so each accumulator gets the identical add sequence. Only
// the first rows (floor <= slo_next) can sink safe, and only the rows
// r >= shi_next can sink violating.
template <typename Scalar>
void BandedDp<Scalar>::drain_sinks(Scalar pA, Scalar ph, Scalar pH, std::ptrdiff_t slo_next,
                                   std::ptrdiff_t shi_next, bool safe_sink) {
  if (safe_sink) {
    // Unpinned honest mass stepping below slo_next: s - 1 < slo_next, i.e.
    // s <= slo_next (at most two columns, since slo_next >= slo_ - 1). The
    // pinned cases stay at s = 0 and never sink; the lone unpinned s = 0
    // case is h at r = 0, which drops to -1. Every row has hi >= 0 >=
    // slo_next, so a row sinks iff its floor allows it.
    for (std::ptrdiff_t r = 0; r <= rcap_; ++r) {
      const std::ptrdiff_t lo = row_lo(r);
      if (lo > slo_next) break;  // row_lo is nondecreasing in r
      const Scalar* row = row_ptr(cur_, r);
      for (std::ptrdiff_t s = lo; s <= slo_next; ++s) {
        const Scalar q = row[s];
        if (q == Scalar(0)) continue;
        if (s != 0) {
          safe_.add(q * ph);
          safe_.add(q * pH);
        } else if (r == 0) {
          safe_.add(q * ph);
        }
      }
    }
  }
  // A-mass stepping above shi_next: s + 1 > shi_next, i.e. s >= shi_next
  // (at most two columns, since shi_next == shi_ - 1).
  for (std::ptrdiff_t r = shi_next; r <= rcap_; ++r) {
    const std::ptrdiff_t lo = row_lo(r), hi = row_hi(r);
    if (lo > hi) break;
    const Scalar* row = row_ptr(cur_, r);
    for (std::ptrdiff_t s = std::max(lo, shi_next); s <= hi; ++s) {
      const Scalar q = row[s];
      if (q == Scalar(0)) continue;
      viol_.add(q * pA);
    }
  }
}

template <typename Scalar>
void BandedDp<Scalar>::step(Scalar pA, Scalar ph, Scalar pH, std::ptrdiff_t slo_next,
                            std::ptrdiff_t shi_next, std::ptrdiff_t rcap_next, bool safe_sink) {
  MH_ASSERT(shi_next == shi_ - 1 && shi_next >= 0);
  MH_ASSERT(slo_next >= slo_ - 1 && slo_next <= slo_ + 1 && slo_next <= 0);
  MH_ASSERT(rcap_next >= 1 && (rcap_next == rcap_ || rcap_next == rcap_ - 1));
  MH_ASSERT(safe_sink || slo_next == slo_ - 1);
  const std::ptrdiff_t n = steps_ + 1;

  if (obs::enabled())
    record_step(slo_next, shi_next, rcap_next, n, sizeof(Scalar) > sizeof(double));

  drain_sinks(pA, ph, pH, slo_next, shi_next, safe_sink);

  // First target column whose A-predecessor column s - 1 is inside the source
  // band; below it (at most the bottom two cells of each row) no A-mass lands.
  const std::ptrdiff_t sA = std::max(slo_next, slo_ + 1);

  for (std::ptrdiff_t rt = 0; rt <= rcap_next; ++rt) {
    Scalar* out = row_ptr(nxt_, rt);

    if (rt == 0) {
      // Row 0 (its floor -n never binds: slo_next >= -n) receives no A-mass
      // (rcap_next >= 1 keeps min(r+1, rcap_next) positive) and gathers
      // honest mass from source rows 0 and 1, in that order (both collapse
      // to r' = 0).
      const Scalar* r0 = row_ptr(cur_, 0);
      const Scalar* r1 = row_ptr(cur_, 1);
      MH_SIMD_LOOP
      for (std::ptrdiff_t s = slo_next; s <= -2; ++s) {
        const Scalar c0 = r0[s + 1];
        Scalar v = ph * c0;
        v += pH * c0;
        const Scalar c1 = r1[s + 1];
        v += ph * c1;
        v += pH * c1;
        out[s] = v;
      }
      if (-1 >= slo_next) out[-1] = ph * r0[0];  // the lone unpinned s = 0 case: h at r = 0
      {
        // s' = 0: H pinned at (0,0); h and H pinned at (1,0); then the
        // unpinned drop from (1,1) — ascending source (r, s, symbol) order.
        Scalar v = pH * r0[0];
        const Scalar c = r1[0];
        v += ph * c;
        v += pH * c;
        if (shi_ >= 1) {
          const Scalar bb = r1[1];
          v += ph * bb;
          v += pH * bb;
        }
        out[0] = v;
      }
      continue;
    }

    const std::ptrdiff_t hi = rt < shi_next ? rt : shi_next;
    const std::ptrdiff_t lo = std::max(slo_next, reach_floor(rt, n));
    if (lo > hi) break;  // the floor outruns the band here and in every higher row
    const bool top = rt == rcap_next;
    const Scalar* a = row_ptr(cur_, rt - 1);  // A-predecessor (r' - 1, s' - 1)
    // Honest predecessor row r' + 1 (absent for the top row on a step where
    // rcap does not shrink), and the top row's extra clamped-A source rows.
    const Scalar* b = rt + 1 <= rcap_ ? row_ptr(cur_, rt + 1) : nullptr;
    const Scalar* e = top ? row_ptr(cur_, rt) : nullptr;
    const Scalar* fx = top && rt + 1 <= rcap_ ? row_ptr(cur_, rt + 1) : nullptr;

    // Generic single-cell gather, adding predecessor contributions in the
    // source order of the original scatter sweep: ascending r, then ascending
    // s, then A before h before H. Bit-identity of the long double path rests
    // on this order.
    const auto cell = [&](std::ptrdiff_t s) -> Scalar {
      Scalar v{0};
      if (s >= sA) {
        v += pA * a[s - 1];
        if (e != nullptr) v += pA * e[s - 1];
        if (fx != nullptr) v += pA * fx[s - 1];
      }
      if (b != nullptr) {
        if (s == 0) {
          const Scalar c = b[0];  // pinned h (r > 0) and pinned H
          v += ph * c;
          v += pH * c;
          if (shi_ >= 1) {
            const Scalar bb = b[1];
            v += ph * bb;
            v += pH * bb;
          }
        } else if (s != -1) {  // s' = -1 has no honest predecessor: s = 0 is pinned
          const Scalar bb = b[s + 1];
          v += ph * bb;
          v += pH * bb;
        }
      }
      return v;
    };

    if (!top) {
      // Bulk negative columns [lo, min(hi, -2)]: contiguous gather over s,
      // the SIMD hot loop (pure element-wise assignments; the per-element
      // add order is untouched, so vectorization shifts no bits). The (at
      // most two) cells below sA lack the A-term; peel them off first.
      const std::ptrdiff_t neg_end = std::min<std::ptrdiff_t>(hi, -2);
      const std::ptrdiff_t peel_end = std::min(neg_end, sA - 1);
      for (std::ptrdiff_t s = lo; s <= peel_end; ++s) out[s] = cell(s);
      const std::ptrdiff_t neg_lo = std::max(lo, sA);
      MH_SIMD_LOOP
      for (std::ptrdiff_t s = neg_lo; s <= neg_end; ++s) {
        Scalar v = pA * a[s - 1];
        const Scalar bb = b[s + 1];
        v += ph * bb;
        v += pH * bb;
        out[s] = v;
      }
      // The two pinning-special columns s' in {-1, 0}.
      for (std::ptrdiff_t s = std::max<std::ptrdiff_t>(lo, -1); s <= 0; ++s) out[s] = cell(s);
      // Bulk positive columns [max(lo, 1), hi]: sA <= 1 always, so the A-term applies.
      const std::ptrdiff_t pos_lo = std::max<std::ptrdiff_t>(lo, 1);
      MH_SIMD_LOOP
      for (std::ptrdiff_t s = pos_lo; s <= hi; ++s) {
        Scalar v = pA * a[s - 1];
        const Scalar bb = b[s + 1];
        v += ph * bb;
        v += pH * bb;
        out[s] = v;
      }
    } else {
      // One row per step; the generic cell handles the clamped-A extras.
      for (std::ptrdiff_t s = lo; s <= hi; ++s) out[s] = cell(s);
    }
  }

  cur_.swap(nxt_);
  rcap_ = rcap_next;
  slo_ = slo_next;
  shi_ = shi_next;
  steps_ = n;
}

template <typename Scalar>
Scalar BandedDp<Scalar>::nonneg_mass() const {
  DpAccum<Scalar> acc = viol_;
  for (std::ptrdiff_t r = 0; r <= rcap_; ++r) {
    const std::ptrdiff_t lo = row_lo(r), hi = row_hi(r);
    if (lo > hi) break;
    const Scalar* row = row_ptr(cur_, r);
    if constexpr (sizeof(Scalar) <= sizeof(double)) {
      // Fast path: plain (vectorizable) per-row sums, Neumaier-compensated
      // only across the row totals — the report is the only O(K^2) reduction
      // on the hot path, so compensating every cell would dominate it.
      Scalar row_sum{0};
      for (std::ptrdiff_t s = std::max<std::ptrdiff_t>(lo, 0); s <= hi; ++s) row_sum += row[s];
      acc.add(row_sum);
    } else {
      // Reference path: start from the always-violating sink, then every live
      // cell in ascending (r, s) — the exact add order of the original code.
      for (std::ptrdiff_t s = std::max<std::ptrdiff_t>(lo, 0); s <= hi; ++s) acc.add(row[s]);
    }
  }
  return acc.value();
}

template class BandedDp<long double>;
template class BandedDp<double>;

}  // namespace mh
