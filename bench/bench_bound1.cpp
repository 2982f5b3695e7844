// E5 — Bound 1: Pr[no uniquely honest Catalan slot in a k-window] decays as
// e^{-Theta(k)} with rate min(eps^3, eps^2 ph) (up to constants). Compares
//   (a) the sharp generating-function tail (the paper's dominating series),
//   (b) a Monte-Carlo estimate of the true event,
//   (c) the exact settlement-DP series (the downstream quantity),
// and fits the decay rates. Expected shape: (a) >= (b) everywhere; all three
// log-linear in k; fitted rates ordered GF <= DP (the Catalan route is the
// looser certificate).
#include <benchmark/benchmark.h>

#include "bench_harness.hpp"

#include <cstdio>
#include <vector>

#include "core/bounds.hpp"
#include "core/catalan.hpp"
#include "core/exact_dp.hpp"
#include "engine/thread_pool.hpp"
#include "genfunc/catalan_gf.hpp"
#include "sim/monte_carlo.hpp"
#include "support/table.hpp"

namespace {

void bound1_report() {
  struct Case {
    double eps, ph;
  };
  for (const Case c : {Case{0.3, 0.4}, Case{0.2, 0.1}, Case{0.5, 0.05}}) {
    const mh::SymbolLaw law = mh::bernoulli_condition(c.eps, c.ph);
    std::printf("Bound 1 at eps = %.2f, ph = %.2f (pH = %.2f, pA = %.2f)\n", c.eps, c.ph,
                law.pH, law.pA);
    std::printf("theorem-1 exponent parameter min(eps^3, eps^2 ph) = %.3e\n",
                mh::theorem1_exponent(law));
    std::printf("GF radius decay rate ln R = %.4e\n",
                static_cast<double>(mh::bound1_decay_rate(law)));

    const std::vector<std::size_t> ks{20, 40, 60, 80, 120, 160};
    const mh::CatalanGF gf(law, 4 * 160 + 64);
    const mh::SettlementSeries dp = mh::exact_settlement_series(law, 160);

    mh::TextTable table({"k", "GF tail (bound)", "MC estimate [lo, hi]", "exact DP P(k)"});
    mh::McOptions opt;
    opt.samples = 40'000;
    opt.seed = 2020;
    opt.threads = mh::engine::threads_from_env();
    std::vector<double> xs, gf_tail, dp_p;
    for (std::size_t k : ks) {
      const mh::Proportion mc = mh::mc_no_unique_catalan(law, k, opt);
      const long double tail = gf.smoothed_tail(k);
      table.add_row({std::to_string(k), mh::paper_scientific(tail),
                     mh::bench::interval(mh::paper_scientific(mc.lo), mh::paper_scientific(mc.hi)),
                     mh::paper_scientific(dp.violation[k])});
      xs.push_back(static_cast<double>(k));
      gf_tail.push_back(static_cast<double>(tail));
      dp_p.push_back(static_cast<double>(dp.violation[k]));
    }
    std::printf("%s", table.render().c_str());
    std::printf("fitted decay rates: GF %.4e, exact DP %.4e\n\n",
                mh::fitted_decay_rate(xs, gf_tail), mh::fitted_decay_rate(xs, dp_p));
  }
}

void BM_CatalanGFConstruction(benchmark::State& state) {
  const auto order = static_cast<std::size_t>(state.range(0));
  const mh::SymbolLaw law = mh::bernoulli_condition(0.3, 0.3);
  for (auto _ : state) {
    const mh::CatalanGF gf(law, order);
    benchmark::DoNotOptimize(gf.smoothed_tail(order / 4));
  }
  state.SetComplexityN(static_cast<std::int64_t>(order));
}
BENCHMARK(BM_CatalanGFConstruction)->Arg(256)->Arg(1024)->Arg(4096)->Complexity();

void BM_CatalanFlagsLinear(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const mh::SymbolLaw law = mh::bernoulli_condition(0.3, 0.3);
  mh::Rng rng(5);
  const mh::CharString w = law.sample_string(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mh::catalan_flags(w).catalan.size());
  }
}
BENCHMARK(BM_CatalanFlagsLinear)->Arg(1024)->Arg(65536);

}  // namespace

int main(int argc, char** argv) {
  return mh::bench::run_main(argc, argv, "bound1",
                             [] { bound1_report(); return true; });
}
