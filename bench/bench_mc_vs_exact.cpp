// E8 — cross-validation of the three computational routes to the settlement
// probability:
//   (a) the exact Section-6.6 DP (Table 1 engine);
//   (b) Monte-Carlo simulation of the Theorem-5 scalar recurrence;
//   (c) the fork-level optimal adversary A* (structural margins on sampled
//       strings — the slowest but most faithful route).
// All three must agree within Monte-Carlo confidence intervals.
#include <benchmark/benchmark.h>

#include "bench_harness.hpp"

#include <chrono>
#include <cstdio>

#include "core/astar.hpp"
#include "core/exact_dp.hpp"
#include "core/reach_distribution.hpp"
#include "core/relative_margin.hpp"
#include "engine/engine.hpp"
#include "fork/margin.hpp"
#include "sim/monte_carlo.hpp"
#include "support/table.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

void cross_validation() {
  std::printf("Monte Carlo vs exact DP vs structural A* margins\n\n");
  mh::TextTable table({"alpha", "ratio", "k", "exact DP", "recurrence MC [lo, hi]",
                       "A* fork MC"});
  struct Case {
    double alpha, ratio;
    std::size_t k;
  };
  for (const Case c : {Case{0.40, 1.0, 60}, Case{0.40, 0.25, 40}, Case{0.30, 0.5, 24},
                       Case{0.45, 0.01, 50}}) {
    const mh::SymbolLaw law = mh::table1_law(c.alpha, c.ratio);
    const long double exact = mh::settlement_violation_probability(law, c.k);

    mh::McOptions opt;
    opt.samples = 60'000;
    opt.seed = 31337;
    opt.threads = mh::engine::threads_from_env();
    const mh::Proportion mc = mh::mc_settlement_violation(law, c.k, opt);

    // Fork-level: sample rho(x) ~ X_inf, prepend that many A's (an explicit
    // prefix realizing the reach), run A*, and measure the structural margin.
    // This is the slowest route, so it runs sharded on the engine too.
    const double beta = static_cast<double>(mh::reach_beta(law));
    const std::size_t fork_samples = 2'000;
    mh::engine::EngineOptions fork_opt;
    fork_opt.seed = 606060;
    fork_opt.threads = opt.threads;
    const std::size_t fork_hits = mh::engine::run_sharded<std::size_t>(
        fork_samples, fork_opt, [&](std::uint64_t, mh::Rng& rng, std::size_t& hits) {
          const auto r0 = static_cast<std::size_t>(mh::sample_geometric(rng, beta));
          std::vector<mh::Symbol> symbols(r0, mh::Symbol::A);
          for (std::size_t t = 0; t < c.k; ++t) symbols.push_back(law.sample(rng));
          const mh::CharString w = mh::CharString(symbols);
          const mh::Fork fork = mh::build_canonical_fork(w);
          if (mh::relative_margin(fork, w, r0) >= 0) ++hits;
        });
    const double fork_freq = static_cast<double>(fork_hits) / fork_samples;

    table.add_row({mh::fixed(c.alpha, 2), mh::fixed(c.ratio, 2), std::to_string(c.k),
                   mh::paper_scientific(exact),
                   mh::bench::interval(mh::paper_scientific(mc.lo), mh::paper_scientific(mc.hi)),
                   mh::fixed(fork_freq, 4)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("note: the A* column realizes rho(x) with an explicit run of A's, so it\n");
  std::printf("samples the same law as the DP up to the geometric-prefix realization.\n\n");
}

void BM_RecurrenceMonteCarloSample(benchmark::State& state) {
  const mh::SymbolLaw law = mh::table1_law(0.40, 0.5);
  mh::Rng rng(9);
  const double beta = static_cast<double>(mh::reach_beta(law));
  for (auto _ : state) {
    mh::MarginProcess p(static_cast<std::int64_t>(mh::sample_geometric(rng, beta)));
    for (int t = 0; t < 100; ++t) p.step(law.sample(rng));
    benchmark::DoNotOptimize(p.mu());
  }
}
BENCHMARK(BM_RecurrenceMonteCarloSample);

void BM_ForkLevelSample(benchmark::State& state) {
  const mh::SymbolLaw law = mh::table1_law(0.40, 0.5);
  mh::Rng rng(10);
  for (auto _ : state) {
    const mh::CharString w = law.sample_string(48, rng);
    const mh::Fork fork = mh::build_canonical_fork(w);
    benchmark::DoNotOptimize(mh::relative_margin(fork, w, 0));
  }
}
BENCHMARK(BM_ForkLevelSample);

void game_value_table() {
  std::printf("Table-1 semantics vs full game value (violation at ANY time >= k):\n\n");
  mh::TextTable table({"alpha", "ratio", "k", "P(k) at exactly k", "game value (ever >= k)"});
  struct Case {
    double alpha, ratio;
    std::size_t k;
  };
  for (const Case c : {Case{0.40, 1.0, 100}, Case{0.40, 1.0, 200}, Case{0.30, 0.5, 100},
                       Case{0.20, 0.25, 100}}) {
    const mh::SymbolLaw law = mh::table1_law(c.alpha, c.ratio);
    table.add_row({mh::fixed(c.alpha, 2), mh::fixed(c.ratio, 2), std::to_string(c.k),
                   mh::paper_scientific(mh::settlement_violation_probability(law, c.k)),
                   mh::paper_scientific(mh::eventual_settlement_insecurity(law, c.k))});
  }
  std::printf("%s", table.render().c_str());
  std::printf("(the gambler's-ruin factor beta^{|mu|} prices late reorgs; the gap shows\n");
  std::printf("how much of Definition 5's game value the at-k snapshot captures)\n\n");
}

void engine_speedup_report() {
  // Serial path vs the sharded engine at default sample counts. Counts must
  // match bit-for-bit; wall clock should scale with the core count.
  const std::size_t threads = mh::engine::resolve_threads(mh::engine::threads_from_env());
  std::printf("Sharded engine speedup (mc_settlement_violation, default %zu samples)\n",
              mh::McOptions{}.samples);
  std::printf("engine: %zu thread(s) available (MH_THREADS to override)\n\n", threads);

  const mh::SymbolLaw law = mh::table1_law(0.40, 0.5);
  mh::McOptions opt;  // default sample count
  opt.seed = 31337;

  opt.threads = 1;
  auto start = std::chrono::steady_clock::now();
  const mh::Proportion serial = mh::mc_settlement_violation(law, 100, opt);
  const double serial_s = seconds_since(start);

  opt.threads = threads;
  start = std::chrono::steady_clock::now();
  const mh::Proportion parallel = mh::mc_settlement_violation(law, 100, opt);
  const double parallel_s = seconds_since(start);

  mh::TextTable table({"threads", "wall (s)", "successes", "speedup"});
  table.add_row({"1", mh::fixed(serial_s, 3), std::to_string(serial.successes), "1.00"});
  table.add_row({std::to_string(threads), mh::fixed(parallel_s, 3),
                 std::to_string(parallel.successes),
                 mh::fixed(parallel_s > 0.0 ? serial_s / parallel_s : 0.0, 2)});
  std::printf("%s", table.render().c_str());
  std::printf(serial.successes == parallel.successes
                  ? "counts identical across thread counts (deterministic sharding)\n\n"
                  : "WARNING: counts differ across thread counts!\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  return mh::bench::run_main(argc, argv, "mc_vs_exact",
                             [] { cross_validation(); game_value_table(); engine_speedup_report(); return true; },
                             {.thread_banner = false});
}
