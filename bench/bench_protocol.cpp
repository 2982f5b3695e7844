// E11 — end-to-end protocol experiments: the private-chain and balance
// attackers against the simulated PoS protocol, under both tie-breaking
// regimes (axioms A0 vs A0'), including the ph = 0 corner of Theorem 2.
// Expected shape: observed violation rates never exceed the exact optimal
// probability; the balance attack thrives on concurrent honest leaders under
// A0 and collapses under A0'.
#include <benchmark/benchmark.h>

#include "bench_harness.hpp"

#include <cstdio>

#include "core/exact_dp.hpp"
#include "engine/thread_pool.hpp"
#include "sim/experiments.hpp"
#include "support/table.hpp"

namespace {

void attack_report() {
  std::printf("Protocol-level settlement attacks (slot s = 1, depth k = 20,\n");
  std::printf("horizon 120, 8 honest parties, 250 runs per cell)\n\n");
  mh::TextTable table({"law (ph,pH,pA)", "attack", "tie-break", "violations [lo, hi]",
                       "exact optimal P(k)", "mean divergence"});

  struct LawCase {
    const char* name;
    mh::SymbolLaw law;
  };
  const LawCase laws[] = {
      {"(.40,.25,.35)", mh::SymbolLaw{0.40, 0.25, 0.35}},
      {"(.05,.60,.35)", mh::SymbolLaw{0.05, 0.60, 0.35}},  // ph < pA regime
      {"(.00,.65,.35)", mh::SymbolLaw{0.00, 0.65, 0.35}},  // Theorem-2 corner
  };
  for (const LawCase& lc : laws) {
    const long double exact = mh::settlement_violation_probability(lc.law, 20);
    for (const mh::AttackKind attack :
         {mh::AttackKind::Balance, mh::AttackKind::PrivateChain}) {
      for (const mh::TieBreak rule :
           {mh::TieBreak::AdversarialOrder, mh::TieBreak::ConsistentHash}) {
        mh::ProtocolExperimentConfig config;
        config.runs = 250;
        config.horizon = 120;
        config.honest_parties = 8;
        config.tie_break = rule;
        config.seed = 97;
        config.threads = mh::engine::threads_from_env();
        const mh::ProtocolExperimentResult result =
            mh::run_protocol_experiment(lc.law, attack, 1, 20, config);
        table.add_row(
            {lc.name, attack == mh::AttackKind::Balance ? "balance" : "private-chain",
             rule == mh::TieBreak::AdversarialOrder ? "A0 (adv)" : "A0' (consistent)",
             mh::bench::interval(mh::fixed(result.settlement_violations.lo, 3),
                                 mh::fixed(result.settlement_violations.hi, 3)),
             mh::paper_scientific(exact), mh::fixed(result.mean_slot_divergence, 1)});
      }
    }
  }
  std::printf("%s\n", table.render().c_str());
}

void BM_SimulationSlotLoop(benchmark::State& state) {
  const auto horizon = static_cast<std::size_t>(state.range(0));
  const mh::SymbolLaw law{0.4, 0.25, 0.35};
  mh::Rng rng(61);
  for (auto _ : state) {
    state.PauseTiming();
    const mh::LeaderSchedule schedule =
        mh::LeaderSchedule::from_symbol_law(law, horizon, 8, rng);
    mh::BalanceAttacker adversary;
    mh::Simulation sim(schedule, mh::SimulationConfig{mh::TieBreak::AdversarialOrder, rng()},
                       0, &adversary);
    state.ResumeTiming();
    sim.run();
    benchmark::DoNotOptimize(sim.all_blocks().size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(horizon));
}
BENCHMARK(BM_SimulationSlotLoop)->Arg(100)->Arg(400)->Arg(1600);

}  // namespace

int main(int argc, char** argv) {
  return mh::bench::run_main(argc, argv, "protocol",
                             [] { attack_report(); return true; });
}
