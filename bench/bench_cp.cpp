// E10 — Theorem 8: common-prefix violations. A k-CP^slot violation requires a
// length-k window with no UVP slot, so
//   Pr[w violates k-CP^slot] <= T * Bound1-tail(k).
// Reports the union bound next to a Monte-Carlo estimate of the window event
// and the observed CP behaviour of canonical-fork executions.
#include <benchmark/benchmark.h>

#include "bench_harness.hpp"

#include <cstdio>

#include "core/astar.hpp"
#include "core/cp.hpp"
#include "engine/engine.hpp"
#include "sim/monte_carlo.hpp"
#include "support/table.hpp"

namespace {

void cp_report() {
  const mh::SymbolLaw law = mh::bernoulli_condition(0.3, 0.4);
  const std::size_t horizon = 400;
  std::printf("Theorem 8: k-CP^slot over T = %zu slots (eps = 0.3, ph = 0.4)\n\n", horizon);
  mh::McOptions opt;
  opt.samples = 4'000;
  opt.seed = 4040;
  opt.threads = mh::engine::threads_from_env();
  mh::TextTable table(
      {"k", "T x Bound1 tail", "MC bad-window freq [lo, hi]", "A* fork CP violations"});
  for (std::size_t k : {10u, 20u, 30u, 45u, 60u}) {
    const mh::Proportion mc = mh::mc_cp_window_failure(law, horizon, k, opt);

    // Structural: run A* on shorter strings and check the canonical fork,
    // sharded over the engine (same strings for every k via a fixed root seed).
    const std::size_t fork_trials = 150, fork_len = 120;
    mh::engine::EngineOptions fork_opt;
    fork_opt.seed = 515151;
    fork_opt.threads = opt.threads;
    const std::size_t violations = mh::engine::run_sharded<std::size_t>(
        fork_trials, fork_opt, [&](std::uint64_t, mh::Rng& rng, std::size_t& bad) {
          const mh::CharString w = law.sample_string(fork_len, rng);
          const mh::Fork fork = mh::build_canonical_fork(w);
          if (!mh::satisfies_k_cp_slot(fork, w, k)) ++bad;
        });
    table.add_row({std::to_string(k),
                   mh::paper_scientific(mh::theorem8_bound(law, horizon, k)),
                   mh::bench::interval(mh::paper_scientific(mc.lo), mh::paper_scientific(mc.hi)),
                   std::to_string(violations) + "/" + std::to_string(fork_trials)});
  }
  std::printf("%s\n", table.render().c_str());
}

void BM_CpSlotCheck(benchmark::State& state) {
  const mh::SymbolLaw law = mh::bernoulli_condition(0.3, 0.4);
  mh::Rng rng(21);
  const mh::CharString w = law.sample_string(160, rng);
  const mh::Fork fork = mh::build_canonical_fork(w);
  for (auto _ : state) benchmark::DoNotOptimize(mh::satisfies_k_cp_slot(fork, w, 20));
}
BENCHMARK(BM_CpSlotCheck);

void BM_SlotDivergence(benchmark::State& state) {
  const mh::SymbolLaw law = mh::bernoulli_condition(0.3, 0.4);
  mh::Rng rng(22);
  const mh::CharString w = law.sample_string(160, rng);
  const mh::Fork fork = mh::build_canonical_fork(w);
  for (auto _ : state) benchmark::DoNotOptimize(mh::slot_divergence(fork, w));
}
BENCHMARK(BM_SlotDivergence);

}  // namespace

int main(int argc, char** argv) {
  return mh::bench::run_main(argc, argv, "cp",
                             [] { cp_report(); return true; });
}
