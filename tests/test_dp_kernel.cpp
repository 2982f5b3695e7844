// Contracts of the banded gather kernel (core/dp_kernel.hpp) and the
// engine-parallel sweep (analysis/sweep.hpp):
//
//   (a) the long double Reference path is BIT-IDENTICAL to the pre-refactor
//       dense scatter implementation, pinned by a golden grid of Table-1
//       cells (hex long double literals dumped from the original kernel) and
//       fuzzed against a retained copy of that dense implementation;
//   (b) the double Fast path tracks the Reference path to < 1e-12 relative
//       error wherever the value is comfortably inside double range;
//   (c) sweep results are invariant under the thread count, bit for bit;
//   (d) the reach floor is the exact support: the kernel visits, and
//       dp.cells_touched counts, exactly the reachable (r, s) cells.
#include "core/dp_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sweep.hpp"
#include "core/exact_dp.hpp"
#include "delta/delta_settlement.hpp"
#include "obs/obs.hpp"
#include "support/random.hpp"

namespace mh {
namespace {

long double parse_hex(const char* hex) { return strtold(hex, nullptr); }

// ---------------------------------------------------------------------------
// (a) Reference-path bit-identity against the pre-refactor kernel.
// ---------------------------------------------------------------------------

struct Golden {
  double alpha, ratio;
  std::size_t k;
  const char* hex;  // %La dump of the original long double result
};

// All six Table-1 alphas x three ratios x k in {50, 200, 500}, generated by
// the seed implementation (dense long double scatter grid) at commit
// "PR 1: Parallel experiment engine".
constexpr Golden kSeriesGolden[] = {
    {0.01, 1.00, 50, "0xa.85d6439b7e7025fp-93"},
    {0.01, 1.00, 200, "0xc.0223a227d17e96cp-355"},
    {0.01, 1.00, 500, "0xf.9e6ec1caade2ecfp-879"},
    {0.01, 0.50, 50, "0xb.ed8b2480176a72fp-49"},
    {0.01, 0.50, 200, "0xc.0e90594fff0f8c6p-185"},
    {0.01, 0.50, 500, "0xc.51adfbb45690d5ep-457"},
    {0.01, 0.01, 50, "0x9.d3ea8d7dd61c5c9p-4"},
    {0.01, 0.01, 200, "0x9.1cf017c7cb954fcp-6"},
    {0.01, 0.01, 500, "0xf.abdf72f341e105cp-11"},
    {0.10, 1.00, 50, "0x9.fff073a20b011ccp-33"},
    {0.10, 1.00, 200, "0x8.2819f2a44cb584fp-116"},
    {0.10, 1.00, 500, "0xa.e161d17d555eb9cp-283"},
    {0.10, 0.50, 50, "0xe.15ce710810feb41p-26"},
    {0.10, 0.50, 200, "0xf.9f6dec4d59e8f1fp-91"},
    {0.10, 0.50, 500, "0x9.9c318ba05883e11p-220"},
    {0.10, 0.01, 50, "0xb.3302596fb3834fdp-4"},
    {0.10, 0.01, 200, "0xf.6a89d4e4b7e0054p-6"},
    {0.10, 0.01, 500, "0xe.9b0bd7aa53a204bp-9"},
    {0.20, 1.00, 50, "0xb.6202913d76d168cp-17"},
    {0.20, 1.00, 200, "0xe.7a1d749dbbfc9f5p-53"},
    {0.20, 1.00, 500, "0xc.0dbb49a3a6d9ebcp-124"},
    {0.20, 0.50, 50, "0xa.090a55acd0d0c3cp-14"},
    {0.20, 0.50, 200, "0xb.42b54c9c16b2136p-44"},
    {0.20, 0.50, 500, "0xe.3c9e1cf78c49b65p-104"},
    {0.20, 0.01, 50, "0xc.c2904543c3f87f5p-4"},
    {0.20, 0.01, 200, "0xd.0bd66de516d67cbp-5"},
    {0.20, 0.01, 500, "0xd.a35a8340c73b55ap-7"},
    {0.30, 1.00, 50, "0x9.81f8c89fc36d889p-9"},
    {0.30, 1.00, 200, "0xd.6ebe6f06379d3adp-23"},
    {0.30, 1.00, 500, "0xf.0e280550a13f8f4p-50"},
    {0.30, 0.50, 50, "0xa.a0ce8e26ade1cb5p-8"},
    {0.30, 0.50, 200, "0xd.c5f86c8e9612e51p-20"},
    {0.30, 0.50, 500, "0xc.16b949b21e604bap-43"},
    {0.30, 0.01, 50, "0xe.3b2222abfe411c5p-4"},
    {0.30, 0.01, 200, "0xa.25f4b909d090dbfp-4"},
    {0.30, 0.01, 500, "0xa.5247f2b63bb523dp-5"},
    {0.40, 1.00, 50, "0x9.569c71c1cddaebcp-5"},
    {0.40, 1.00, 200, "0x8.9ac7af3201e3e64p-8"},
    {0.40, 1.00, 500, "0x9.366437c9a2dbd4cp-14"},
    {0.40, 0.50, 50, "0xc.2d1071de93631d4p-5"},
    {0.40, 0.50, 200, "0xe.fd5bcba42e49e9ep-8"},
    {0.40, 0.50, 500, "0xd.3bb1521cebf8175p-13"},
    {0.40, 0.01, 50, "0xf.63dc407ef8f05aap-4"},
    {0.40, 0.01, 200, "0xd.f4559b68ca0b23bp-4"},
    {0.40, 0.01, 500, "0xb.7bc82659c804f7fp-4"},
    {0.49, 1.00, 50, "0xe.d8e107643be75cdp-4"},
    {0.49, 1.00, 200, "0xd.f9b86c7d5aa1d95p-4"},
    {0.49, 1.00, 500, "0xc.fc551db088ee9bap-4"},
    {0.49, 0.50, 50, "0xf.1f44b9464e0693bp-4"},
    {0.49, 0.50, 200, "0xe.5ece77ccc0121bbp-4"},
    {0.49, 0.50, 500, "0xd.7e97242fde92679p-4"},
    {0.49, 0.01, 50, "0xf.f70a81570b4db1cp-4"},
    {0.49, 0.01, 200, "0xf.ebc9d08b2733c07p-4"},
    {0.49, 0.01, 500, "0xf.dc721abd68777d9p-4"},
};

TEST(DpKernel, ReferencePathBitIdenticalToSeedKernel) {
  double alpha = -1.0, ratio = -1.0;
  SettlementSeries series;
  for (const Golden& g : kSeriesGolden) {
    if (g.alpha != alpha || g.ratio != ratio) {
      alpha = g.alpha;
      ratio = g.ratio;
      // One DP pass per law covers every golden k for that law.
      series = exact_settlement_series(table1_law(alpha, ratio), 500);
    }
    const long double expected = parse_hex(g.hex);
    EXPECT_EQ(series.violation[g.k], expected)
        << "alpha " << g.alpha << " ratio " << g.ratio << " k " << g.k;
  }
}

struct EventualGolden {
  double alpha;
  std::size_t k;
  const char* hex;
};

constexpr EventualGolden kEventualGolden[] = {
    EventualGolden{0.10, 50, "0xf.15f66d820827d87p-26"},
    EventualGolden{0.10, 200, "0x8.5dc58aa1cf1bf09p-90"},
    EventualGolden{0.30, 50, "0xc.4e90a57eb440b5cp-8"},
    EventualGolden{0.30, 200, "0xf.e1d599a35390a5ap-20"},
    EventualGolden{0.40, 50, "0xe.6c7433783613b1ep-5"},
    EventualGolden{0.40, 200, "0x8.d953d95b67af5f2p-7"},
};

TEST(DpKernel, EventualReferencePathBitIdenticalToSeedKernel) {
  for (const EventualGolden& g : kEventualGolden) {
    const long double value = eventual_settlement_insecurity(table1_law(g.alpha, 0.5), g.k);
    EXPECT_EQ(value, parse_hex(g.hex)) << "alpha " << g.alpha << " k " << g.k;
  }
}

// The retained dense reference: the original scatter DP over the whole
// (K+2) x (2K+2) grid, cleared every step, with no band, no floor and no
// gather. It pushes each nonzero source cell's mass to its three successors
// in ascending (r, s) order, A before h before H — the add order the
// Reference path reproduces.
class DenseGrid {
 public:
  explicit DenseGrid(std::size_t k_max)
      : k_(static_cast<std::ptrdiff_t>(k_max)), sdim_(2 * k_max + 2),
        mass_((k_max + 2) * sdim_, 0.0L) {}

  long double& at(std::ptrdiff_t r, std::ptrdiff_t s) {
    return mass_[static_cast<std::size_t>(r) * sdim_ + static_cast<std::size_t>(s + k_)];
  }
  void clear() { std::fill(mass_.begin(), mass_.end(), 0.0L); }

 private:
  std::ptrdiff_t k_;
  std::size_t sdim_;
  std::vector<long double> mass_;
};

/// Seed s = r = rho(x); mass above K is always violating.
long double dense_seed(DenseGrid& grid, const ReachPmf& initial, std::ptrdiff_t K) {
  long double viol = initial.tail;
  for (std::size_t r = static_cast<std::size_t>(K) + 1; r < initial.mass.size(); ++r)
    viol += initial.mass[r];
  for (std::ptrdiff_t r = 0; r <= K; ++r) grid.at(r, r) = initial.mass[static_cast<std::size_t>(r)];
  return viol;
}

SettlementSeries dense_settlement_series(const SymbolLaw& law, std::size_t k_max,
                                         const ReachPmf& initial) {
  const auto K = static_cast<std::ptrdiff_t>(k_max);
  const auto pA = static_cast<long double>(law.pA);
  const auto ph = static_cast<long double>(law.ph);
  const auto pH = static_cast<long double>(law.pH);
  DenseGrid cur(k_max), nxt(k_max);
  SettlementSeries series;
  series.violation.assign(k_max + 1, 0.0L);
  long double viol = dense_seed(cur, initial, K);
  long double safe = 0.0L;
  for (std::ptrdiff_t t = 0; t <= K; ++t) {
    // Report P(t): the always-violating sink plus all live mass with mu >= 0.
    long double p = viol;
    for (std::ptrdiff_t r = 0; r <= K - t + 1; ++r)
      for (std::ptrdiff_t s = 0; s <= std::min(r, K - t + 1); ++s) p += cur.at(r, s);
    series.violation[static_cast<std::size_t>(t)] = p;
    if (t == K) break;
    // Step to t+1: reach cap K-t, live margins |s'| <= K-t-1.
    const std::ptrdiff_t rcap_next = K - t, band = K - t - 1;
    nxt.clear();
    for (std::ptrdiff_t r = 0; r <= K - t + 1; ++r)
      for (std::ptrdiff_t s = -(K - t); s <= std::min(r, K - t + 1); ++s) {
        const long double q = cur.at(r, s);
        if (q == 0.0L) continue;
        if (s + 1 > band)
          viol += q * pA;
        else
          nxt.at(std::min(r + 1, rcap_next), s + 1) += q * pA;
        const std::ptrdiff_t r2 = r == 0 ? 0 : std::min(r - 1, rcap_next);
        const std::ptrdiff_t sh = (s == 0 && r > 0) ? 0 : s - 1;  // h pins only with rho > 0
        const std::ptrdiff_t sH = s == 0 ? 0 : s - 1;             // H pins whenever mu = 0
        if (sh < -band)
          safe += q * ph;
        else
          nxt.at(r2, sh) += q * ph;
        if (sH < -band)
          safe += q * pH;
        else
          nxt.at(r2, sH) += q * pH;
      }
    std::swap(cur, nxt);
  }
  series.always_violating = viol;
  series.never_violating = safe;
  return series;
}

long double dense_eventual_insecurity(const SymbolLaw& law, std::size_t k,
                                      const ReachPmf& initial) {
  const auto K = static_cast<std::ptrdiff_t>(k);
  const auto pA = static_cast<long double>(law.pA);
  const auto ph = static_cast<long double>(law.ph);
  const auto pH = static_cast<long double>(law.pH);
  DenseGrid cur(k), nxt(k);
  long double viol = dense_seed(cur, initial, K);
  // Phase 1 to step k with no safe sink: a negative margin can still recover.
  for (std::ptrdiff_t t = 0; t < K; ++t) {
    const std::ptrdiff_t rcap_next = K - t;
    nxt.clear();
    for (std::ptrdiff_t r = 0; r <= K - t + 1; ++r)
      for (std::ptrdiff_t s = -t; s <= std::min(r, K - t); ++s) {
        const long double q = cur.at(r, s);
        if (q == 0.0L) continue;
        if (s + 1 > K - t - 1)
          viol += q * pA;
        else
          nxt.at(std::min(r + 1, rcap_next), s + 1) += q * pA;
        const std::ptrdiff_t r2 = r == 0 ? 0 : std::min(r - 1, rcap_next);
        nxt.at(r2, (s == 0 && r > 0) ? 0 : s - 1) += q * ph;
        nxt.at(r2, s == 0 ? 0 : s - 1) += q * pH;
      }
    std::swap(cur, nxt);
  }
  // Phase 2: mu = -m < 0 climbs back to 0 with probability beta^m.
  const long double beta = reach_beta(law);
  std::vector<long double> beta_pow(k + 1, 1.0L);
  for (std::size_t m = 1; m <= k; ++m) beta_pow[m] = beta_pow[m - 1] * beta;
  long double total = viol;
  for (std::ptrdiff_t r = 0; r <= K + 1; ++r)
    for (std::ptrdiff_t s = -K; s <= std::min(r, K); ++s) {
      const long double q = cur.at(r, s);
      if (q == 0.0L) continue;
      total += s >= 0 ? q : q * beta_pow[static_cast<std::size_t>(-s)];
    }
  return total;
}

/// A seeded law with pA < 1/2 (the stationary reach law needs it); every
/// eighth draw zeroes ph, pH, or shrinks ph to ~1e-9.
SymbolLaw fuzz_law(Rng& rng, std::size_t i) {
  const double pA = 0.5 * rng.uniform();
  double ph = (1.0 - pA) * rng.uniform();
  if (i % 8 == 1) ph = 0.0;
  if (i % 8 == 2) ph = 1.0 - pA;
  if (i % 8 == 3) ph = 1e-9 * (1.0 + rng.uniform());
  return SymbolLaw{ph, std::max(0.0, 1.0 - pA - ph), pA};
}

TEST(DpKernel, ReferencePathMatchesRetainedDenseKernelBitForBit) {
  Rng rng(0x19d9);
  for (std::size_t i = 0; i < 300; ++i) {
    const SymbolLaw law = fuzz_law(rng, i);
    const std::size_t k = 1 + static_cast<std::size_t>(rng() % 64);
    // Every law shape of fuzz_law meets both initial reach laws.
    const InitialReach init = (i / 8) % 2 == 0 ? InitialReach::Stationary : InitialReach::Zero;
    ReachPmf initial = stationary_reach_distribution(law, k);
    if (init == InitialReach::Zero) {
      initial.mass.assign(k + 1, 0.0L);
      initial.mass[0] = 1.0L;
      initial.tail = 0.0L;
    }
    const SettlementSeries dense = dense_settlement_series(law, k, initial);
    const SettlementSeries banded = exact_settlement_series(law, k, init);
    const std::string where = "run " + std::to_string(i) + " k " + std::to_string(k) + " pA " +
                              std::to_string(law.pA) + " ph " + std::to_string(law.ph);
    ASSERT_EQ(banded.violation.size(), dense.violation.size()) << where;
    for (std::size_t t = 0; t <= k; ++t)
      ASSERT_EQ(banded.violation[t], dense.violation[t]) << where << " t " << t;
    ASSERT_EQ(banded.always_violating, dense.always_violating) << where;
    ASSERT_EQ(banded.never_violating, dense.never_violating) << where;
    ASSERT_EQ(eventual_settlement_insecurity(law, k, init),
              dense_eventual_insecurity(law, k, initial))
        << where;
  }
}

// ---------------------------------------------------------------------------
// (b) Fast-path accuracy against the Reference path.
// ---------------------------------------------------------------------------

TEST(DpKernel, FastPathTracksReferenceWithin1e12) {
  for (double alpha : {0.01, 0.10, 0.20, 0.30, 0.40, 0.49})
    for (double ratio : {1.0, 0.5, 0.01}) {
      const SymbolLaw law = table1_law(alpha, ratio);
      const SettlementSeries ref = exact_settlement_series(law, 500);
      const SettlementSeries fast =
          exact_settlement_series(law, 500, InitialReach::Stationary, DpPrecision::Fast);
      for (std::size_t k : {50u, 200u, 500u}) {
        const long double r = ref.violation[k];
        // Skip cells too deep for a double to hold with full precision.
        if (r < 1e-250L) continue;
        const long double rel = fabsl(fast.violation[k] - r) / r;
        EXPECT_LT(static_cast<double>(rel), 1e-12)
            << "alpha " << alpha << " ratio " << ratio << " k " << k;
      }
    }
}

TEST(DpKernel, FastPathEventualTracksReference) {
  for (const EventualGolden& g : kEventualGolden) {
    const SymbolLaw law = table1_law(g.alpha, 0.5);
    const long double ref = eventual_settlement_insecurity(law, g.k);
    const long double fast =
        eventual_settlement_insecurity(law, g.k, InitialReach::Stationary, DpPrecision::Fast);
    EXPECT_LT(static_cast<double>(fabsl(fast - ref) / ref), 1e-12)
        << "alpha " << g.alpha << " k " << g.k;
  }
}

// ---------------------------------------------------------------------------
// (c) Sweep determinism: thread count changes wall-clock only, never bits.
// ---------------------------------------------------------------------------

std::vector<SymbolLaw> sweep_grid() {
  std::vector<SymbolLaw> laws;
  for (double alpha : {0.10, 0.30, 0.40})
    for (double ratio : {1.0, 0.25}) laws.push_back(table1_law(alpha, ratio));
  return laws;
}

TEST(Sweep, SeriesInvariantUnderThreadCount) {
  const std::vector<SymbolLaw> laws = sweep_grid();
  for (DpPrecision precision : {DpPrecision::Reference, DpPrecision::Fast}) {
    SweepOptions serial{1, precision};
    SweepOptions pooled{5, precision};
    const auto a = sweep_settlement_series(laws, 120, serial);
    const auto b = sweep_settlement_series(laws, 120, pooled);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      for (std::size_t k = 0; k <= 120; ++k)
        EXPECT_EQ(a[i].violation[k], b[i].violation[k]) << "law " << i << " k " << k;
  }
}

TEST(Sweep, SeriesMatchesDirectCalls) {
  const std::vector<SymbolLaw> laws = sweep_grid();
  SweepOptions opt{4, DpPrecision::Reference};
  const auto swept = sweep_settlement_series(laws, 80, opt);
  for (std::size_t i = 0; i < laws.size(); ++i) {
    const SettlementSeries direct = exact_settlement_series(laws[i], 80);
    for (std::size_t k = 0; k <= 80; ++k)
      EXPECT_EQ(swept[i].violation[k], direct.violation[k]) << "law " << i << " k " << k;
  }
}

// ---------------------------------------------------------------------------
// (d) The reach floor is the exact support.
// ---------------------------------------------------------------------------

using Cells = std::set<std::pair<std::ptrdiff_t, std::ptrdiff_t>>;

/// Restores the metric-recording switch on scope exit.
class ObsGuard {
 public:
  ObsGuard() : was_(obs::enabled()) {}
  ~ObsGuard() { obs::set_enabled(was_); }

 private:
  bool was_;
};

// A boolean copy of the Theorem-5 transitions, with the kernel's own band
// parameters for both drivers (the fixed-horizon series with its safe sink,
// and eventual phase 1 without). With pA, ph and pH all positive and mass on
// every seeded reach, the cells for_each_live visits must be exactly the
// reachable set, each holding mass > 0: a floor set too low visits a cell
// nothing reaches, one set too high misses a reachable cell (and moves the
// bit pins above). dp.cells_touched must count the same cells.
TEST(DpKernel, ReachFloorIsTheExactSupport) {
  ObsGuard guard;
  obs::set_enabled(true);
  obs::Counter& touched = obs::Registry::global().counter("dp.cells_touched");
  const SymbolLaw law{0.3, 0.25, 0.45};
  for (const bool safe_sink : {true, false}) {
    for (std::ptrdiff_t K = 1; K <= 40; ++K) {
      const ReachPmf initial = stationary_reach_distribution(law, static_cast<std::size_t>(K));
      BandedDp<long double> dp(static_cast<std::size_t>(K));
      dp.seed(initial);
      Cells reach;
      for (std::ptrdiff_t r = 0; r <= K; ++r) reach.insert({r, r});
      const std::uint64_t touched_before = touched.value();
      std::size_t expected_touched = 0;
      for (std::ptrdiff_t t = 0; t <= K; ++t) {
        Cells live;
        dp.for_each_live([&](std::ptrdiff_t r, std::ptrdiff_t s, long double q) {
          EXPECT_GT(q, 0.0L) << "K " << K << " t " << t << " cell (" << r << ", " << s << ")";
          live.insert({r, s});
        });
        ASSERT_EQ(live, reach) << "K " << K << " t " << t << " safe_sink " << safe_sink;
        if (t == K) break;
        const std::ptrdiff_t shi_next = K - t - 1, rcap_next = K - t;
        const std::ptrdiff_t slo_next =
            safe_sink ? std::max(dp.slo() - 1, -shi_next) : dp.slo() - 1;
        Cells next;
        for (const auto& [r, s] : reach) {
          if (s + 1 <= shi_next) next.insert({std::min(r + 1, rcap_next), s + 1});
          const std::ptrdiff_t r2 = r == 0 ? 0 : std::min(r - 1, rcap_next);
          for (const std::ptrdiff_t s2 : {(s == 0 && r > 0) ? std::ptrdiff_t{0} : s - 1,
                                          s == 0 ? std::ptrdiff_t{0} : s - 1})
            if (s2 >= slo_next) next.insert({r2, s2});
        }
        dp.step(law.pA, law.ph, law.pH, slo_next, shi_next, rcap_next, safe_sink);
        reach = std::move(next);
        expected_touched += reach.size();
      }
      EXPECT_EQ(touched.value() - touched_before, expected_touched)
          << "K " << K << " safe_sink " << safe_sink;
    }
  }
}

// ---------------------------------------------------------------------------
// The delta-settlement DP rides the same kernel.
// ---------------------------------------------------------------------------

TEST(DeltaSettlementDp, DeltaZeroCollapsesToSynchronousSeries) {
  // With pBot = 0 and Delta = 0 the reduction is the identity, so the
  // delta-series must equal the synchronous series on the same {h,H,A} law.
  const TetraLaw law{0.0, 0.45, 0.25, 0.30};
  const SymbolLaw flat{0.45, 0.25, 0.30};
  const SettlementSeries delta = delta_settlement_series(law, 0, 60);
  const SettlementSeries sync = exact_settlement_series(flat, 60);
  for (std::size_t k = 0; k <= 60; ++k) EXPECT_EQ(delta.violation[k], sync.violation[k]) << k;
}

TEST(DeltaSettlementDp, SharperThanTheorem7Bound) {
  const TetraLaw law = theorem7_law(0.10, 0.015, 0.07);
  for (std::size_t delta : {0u, 4u}) {
    const SettlementSeries series = delta_settlement_series(law, delta, 400);
    const long double bound = theorem7_bound(law, delta, 400);
    EXPECT_LE(static_cast<double>(series.violation[400]), static_cast<double>(bound))
        << "delta " << delta;
  }
}

TEST(DeltaSettlementDp, MonotoneInDelta) {
  // A longer delay makes the reduced law more adversarial, so the exact
  // violation probability can only grow with Delta.
  const TetraLaw law = theorem7_law(0.20, 0.04, 0.12);
  long double prev = -1.0L;
  for (std::size_t delta : {0u, 1u, 2u, 4u, 8u}) {
    const long double p = delta_settlement_violation_probability(law, delta, 100);
    EXPECT_GE(static_cast<double>(p), static_cast<double>(prev)) << "delta " << delta;
    prev = p;
  }
}

TEST(DeltaSettlementDp, DegeneratesWhenReducedMajorityFails) {
  // Huge Delta: every honest slot is distorted to A, eps' <= 0, trivial bound.
  const TetraLaw law = theorem7_law(0.50, 0.20, 0.25);
  const SettlementSeries series = delta_settlement_series(law, 64, 16);
  for (std::size_t k = 0; k <= 16; ++k) EXPECT_EQ(series.violation[k], 1.0L) << k;
}

}  // namespace
}  // namespace mh
