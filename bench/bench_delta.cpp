// E9 — Theorem 7: settlement in the Delta-synchronous setting. Sweeps the
// network delay bound Delta and the confirmation depth k, reporting
//   (a) the reduced-law epsilon' (condition (20) health),
//   (b) the Theorem-7 analytic bound (Bound 1 on the reduced string + the
//       Bound-3 walk tail),
//   (c) a Monte-Carlo estimate of the Lemma-2 certificate failing.
// Expected shape: error grows with Delta via the (1+Delta) eps/(1-eps)
// prefactor and collapses exponentially in k while condition (20) holds.
#include <benchmark/benchmark.h>

#include "bench_harness.hpp"

#include <cstdio>

#include "delta/delta_settlement.hpp"
#include "engine/thread_pool.hpp"
#include "sim/monte_carlo.hpp"
#include "support/table.hpp"

namespace {

void delta_sweep() {
  // Praos-flavored parameters: sparse slots (f small) buy Delta-resilience.
  const double f = 0.10, pA_share = 0.25;
  const mh::TetraLaw law = mh::theorem7_law(f, pA_share * f, 0.5 * f);
  std::printf("Theorem 7 sweep: f = %.2f, pA = %.3f, ph = %.3f, pH = %.3f\n\n", f, law.pA,
              law.ph, law.pH);

  std::printf("condition (20) health (reduced-law epsilon'):\n");
  mh::TextTable eps_table({"Delta", "eps'", "reduced pA", "reduced ph"});
  for (std::size_t delta = 0; delta <= 8; delta += 2) {
    const mh::SymbolLaw reduced = mh::reduced_law(law, delta);
    eps_table.add_row({std::to_string(delta), mh::fixed(reduced.epsilon(), 4),
                       mh::fixed(reduced.pA, 4), mh::fixed(reduced.ph, 4)});
  }
  std::printf("%s\n", eps_table.render().c_str());

  mh::McOptions opt;
  opt.samples = 3'000;
  opt.seed = 777;
  opt.threads = mh::engine::threads_from_env();
  mh::TextTable table({"Delta", "k", "Theorem-7 bound", "MC certificate failure [lo, hi]"});
  for (std::size_t delta : {0u, 2u, 4u}) {
    for (std::size_t k : {40u, 80u, 160u}) {
      const mh::Proportion mc = mh::mc_delta_settlement_failure(law, delta, k, opt);
      table.add_row({std::to_string(delta), std::to_string(k),
                     mh::paper_scientific(mh::theorem7_bound(law, delta, k)),
                     mh::bench::interval(mh::paper_scientific(mc.lo),
                                         mh::paper_scientific(mc.hi))});
    }
  }
  std::printf("%s\n", table.render().c_str());
}

void BM_ReductionMap(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const mh::TetraLaw law = mh::theorem7_law(0.2, 0.05, 0.1);
  mh::Rng rng(12);
  const mh::TetraString w = law.sample_string(n, rng);
  for (auto _ : state) benchmark::DoNotOptimize(mh::reduce(w, 4).reduced.size());
}
BENCHMARK(BM_ReductionMap)->Arg(1024)->Arg(65536);

void BM_Theorem7Bound(benchmark::State& state) {
  const mh::TetraLaw law = mh::theorem7_law(0.1, 0.025, 0.05);
  for (auto _ : state) benchmark::DoNotOptimize(mh::theorem7_bound(law, 4, 100));
}
BENCHMARK(BM_Theorem7Bound);

}  // namespace

int main(int argc, char** argv) {
  return mh::bench::run_main(argc, argv, "delta",
                             [] { delta_sweep(); return true; });
}
