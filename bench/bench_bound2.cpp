// E6 — Bound 2 / Theorem 2: with a consistent longest-chain tie-breaking rule
// (axiom A0'), consistency holds even when ph = 0; the certificate is a pair
// of consecutive Catalan slots, and its absence decays as e^{-Theta(eps^3 k)}.
// Compares the dominating GF tail against Monte-Carlo estimates on bivalent
// strings and reports Theorem 2's exponent parameter eps^3 next to the GF's
// asymptotic decay rate.
#include <benchmark/benchmark.h>

#include "bench_harness.hpp"

#include <cstdio>
#include <vector>

#include "core/bounds.hpp"
#include "engine/thread_pool.hpp"
#include "genfunc/consecutive_gf.hpp"
#include "sim/monte_carlo.hpp"
#include "support/table.hpp"

namespace {

void bound2_report() {
  for (const double eps : {0.4, 0.3, 0.2}) {
    const mh::SymbolLaw law = mh::bernoulli_condition(eps, 0.0);  // ph = 0: all-H honest
    std::printf("Bound 2 at eps = %.2f (bivalent strings: ph = 0, pH = %.2f, pA = %.2f)\n",
                eps, law.pH, law.pA);
    std::printf("theorem-2 exponent parameter eps^3 = %.4e;  GF radius decay rate ln R = %.4e\n",
                mh::theorem2_exponent(law), static_cast<double>(mh::bound2_decay_rate(law)));

    const std::vector<std::size_t> ks{30, 60, 90, 150, 240};
    const mh::ConsecutiveCatalanGF gf(law, 4 * 240 + 64);
    mh::McOptions opt;
    opt.samples = 40'000;
    opt.seed = 2021;
    opt.threads = mh::engine::threads_from_env();

    mh::TextTable table({"k", "GF tail (bound)", "MC estimate [lo, hi]"});
    std::vector<double> xs, tails;
    for (std::size_t k : ks) {
      const mh::Proportion mc = mh::mc_no_consecutive_catalan(law, k, opt);
      const long double tail = gf.smoothed_tail(k);
      table.add_row({std::to_string(k), mh::paper_scientific(tail),
                     mh::bench::interval(mh::paper_scientific(mc.lo),
                                         mh::paper_scientific(mc.hi))});
      xs.push_back(static_cast<double>(k));
      tails.push_back(static_cast<double>(tail));
    }
    std::printf("%s", table.render().c_str());
    std::printf("fitted GF decay rate: %.4e\n\n", mh::fitted_decay_rate(xs, tails));
  }
}

void BM_ConsecutiveGF(benchmark::State& state) {
  const auto order = static_cast<std::size_t>(state.range(0));
  const mh::SymbolLaw law = mh::bernoulli_condition(0.3, 0.0);
  for (auto _ : state) {
    const mh::ConsecutiveCatalanGF gf(law, order);
    benchmark::DoNotOptimize(gf.smoothed_tail(order / 4));
  }
}
BENCHMARK(BM_ConsecutiveGF)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  return mh::bench::run_main(argc, argv, "bound2",
                             [] { bound2_report(); return true; });
}
