// E16 — the deterministic fault-injection layer under the observed-Delta
// oracle: the chaos band (every fault profile x tie x Delta x strategy x law)
// runs with per-execution sampled FaultPlans and every run is graded — within
// the configured Delta the full domination invariant set must hold, beyond it
// the run must degrade gracefully at its observed Delta ('d'/'u', never '!').
//
// On any oracle violation the report dumps a minimal reproducer — matrix
// seed, cell index, run index, and the serialized FaultPlan — and the process
// exits non-zero (the CI chaos job's gate).
//
// The report also runs the zero-overhead gate: the E14 acceptance cell
// (256 parties x 10^4 slots, balance attack) with an attached empty-plan
// injector must produce the exact bare-probe digest, and the median over
// alternating bare/faulted pairs of the per-pair wall-clock ratio must stay
// within 2%. Env knobs: MH_FAULTS_QUICK shrinks both the band and the
// overhead cell for smoke runs; MH_FAULTS_OVERHEAD_REPS sets the number of
// timed pairs (default 25; 0 skips the gate — sanitizer builds time nothing
// useful).
#include <benchmark/benchmark.h>

#include "bench_harness.hpp"

#include <chrono>
#include <vector>
#include <cstdio>
#include <cstdlib>

#include "engine/seed_sequence.hpp"
#include "engine/thread_pool.hpp"
#include "oracle/scenario.hpp"
#include "protocol/transport_probe.hpp"
#include "support/table.hpp"

namespace {

mh::oracle::MatrixConfig band_config() {
  mh::oracle::MatrixConfig config = mh::oracle::fault_band_config();
  config.threads = mh::engine::threads_from_env();
  if (mh::bench::env_flag("MH_FAULTS_QUICK")) {
    config.runs = 4;
    config.mc_samples = 500;
  }
  return config;
}

const char* tie_name(mh::TieBreak tie) {
  return tie == mh::TieBreak::AdversarialOrder ? "A0" : "A0'";
}

// Report outcomes shared with post_run_clean and the JSON results block.
struct E16Outcome {
  bool band_clean = false;
  std::size_t degraded = 0;
  std::size_t recovery_failures = 0;
  std::size_t resync_blocks = 0;
  std::size_t faults_injected = 0;
  bool overhead_ran = false;
  bool digests_match = true;
  double overhead_ratio = 0.0;
};
E16Outcome g_outcome;
bool g_band_dirty = false;  // set by the timed iterations too

bool chaos_band_report() {
  const mh::oracle::MatrixConfig config = band_config();
  const std::vector<mh::oracle::NamedLaw> laws = mh::oracle::default_matrix_laws();

  const auto start = std::chrono::steady_clock::now();
  const mh::oracle::MatrixResult result = run_scenario_matrix(config);
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf(
      "Chaos band: %zu cells x %zu faulted executions (matrix seed %llu)\n"
      "(within-bound runs must satisfy all domination invariants; out-of-bound\n"
      " runs are flagged degraded and graded at their observed Delta)\n\n",
      result.cells.size(), config.runs, static_cast<unsigned long long>(config.seed));

  mh::TextTable table({"profile", "tie", "Delta", "strategy", "law", "viol", "deg", "unb",
                       "recov-fail", "maxObsD", "resync", "injected"});
  for (const auto& cell : result.cells)
    table.add_row({mh::faults::fault_profile_name(cell.fault_profile), tie_name(cell.tie_break),
                   std::to_string(cell.delta), mh::oracle::strategy_name(cell.strategy),
                   laws[cell.law_index].name, std::to_string(cell.simulated_violations),
                   std::to_string(cell.degraded_runs), std::to_string(cell.degraded_unchecked),
                   std::to_string(cell.recovery_failures),
                   std::to_string(cell.max_observed_delta), std::to_string(cell.resync_blocks),
                   std::to_string(cell.faults_injected)});
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "totals: %zu runs, %zu degraded, %zu recovery failures, %zu re-synced blocks, "
      "all clean = %s  (%.0f ms)\n\n",
      result.total_runs(), result.total_degraded(), result.total_recovery_failures(),
      result.total_resync_blocks(), result.all_clean() ? "yes" : "NO", ms);

  // The minimal reproducer: (matrix seed, cell index, run index, plan)
  // pins the exact execution — rebuild the cell's RunConfig from its echoed
  // axes, draw stream `run` of SeedSequence(derive(cell)), deserialize the
  // plan, and call check_execution.
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const auto& cell = result.cells[i];
    if (cell.clean()) continue;
    std::printf("ORACLE VIOLATION in cell %zu (%s %s Delta=%zu %s %s):\n", i,
                mh::faults::fault_profile_name(cell.fault_profile), tie_name(cell.tie_break),
                cell.delta, mh::oracle::strategy_name(cell.strategy),
                laws[cell.law_index].name.c_str());
    std::printf("  matrix seed : %llu\n", static_cast<unsigned long long>(config.seed));
    std::printf("  cell index  : %zu\n", i);
    if (cell.first_failure_run != SIZE_MAX) {
      std::printf("  run index   : %zu\n", cell.first_failure_run);
      std::printf("  fault plan  : %s\n", cell.first_failure_plan.c_str());
    } else {
      std::printf("  (stochastic cross-check breach: mc_within_band=%d ceiling=%d)\n",
                  cell.mc_within_band ? 1 : 0, cell.protocol_within_ceiling ? 1 : 0);
    }
  }

  g_outcome.band_clean = result.all_clean();
  g_outcome.degraded = result.total_degraded();
  g_outcome.recovery_failures = result.total_recovery_failures();
  g_outcome.resync_blocks = result.total_resync_blocks();
  for (const auto& cell : result.cells) g_outcome.faults_injected += cell.faults_injected;
  return result.all_clean();
}

bool overhead_gate_report() {
  const std::size_t pairs = mh::env::size("MH_FAULTS_OVERHEAD_REPS", 25);
  if (pairs == 0) {
    std::printf("overhead gate: skipped (MH_FAULTS_OVERHEAD_REPS=0)\n\n");
    return true;
  }
  const bool quick = mh::bench::env_flag("MH_FAULTS_QUICK");
  const std::size_t parties = quick ? 64 : 256;
  const std::size_t horizon = quick ? 2000 : 10000;
  const std::uint64_t seed = 8161;
  const mh::faults::FaultPlan empty;

  // Digest equality first: an attached empty-plan injector must not perturb a
  // single delivery, acceptance, or adopted head.
  const mh::TransportProbeOutcome bare = mh::balance_transport_probe(parties, horizon, seed);
  const mh::TransportProbeOutcome faulted =
      mh::faulted_balance_transport_probe(parties, horizon, seed, empty);
  const bool digests_match = bare.digest == faulted.digest;

  // Alternating A/B pairs, not two sequential blocks: machine drift
  // (frequency decay, co-tenants) between blocks dwarfs the effect being
  // measured. Pairing puts both variants under the same drift, and the
  // median of the per-pair ratios compares like with like.
  const auto time_ns = [](auto&& fn) {
    const std::uint64_t begin = mh::obs::now_ns();
    fn();
    return static_cast<double>(mh::obs::now_ns() - begin);
  };
  const mh::bench::PairTiming timing = mh::bench::time_pairs(
      [&] {
        return time_ns([&] {
          benchmark::DoNotOptimize(mh::balance_transport_probe(parties, horizon, seed));
        });
      },
      [&] {
        return time_ns([&] {
          benchmark::DoNotOptimize(
              mh::faulted_balance_transport_probe(parties, horizon, seed, empty));
        });
      },
      pairs);
  const double ratio = timing.ratio;

  std::printf("overhead gate (%zu parties x %zu slots, empty FaultPlan, %zu alternating "
              "pairs):\n",
              parties, horizon, pairs);
  std::printf("  digests     : 0x%016llx vs 0x%016llx -> %s\n",
              static_cast<unsigned long long>(bare.digest),
              static_cast<unsigned long long>(faulted.digest),
              digests_match ? "identical" : "DRIFT");
  std::printf("  wall-clock  : %.1f ms bare, %.1f ms faulted (medians) -> median pair ratio "
              "%.4f (gate <= 1.02)\n\n",
              timing.a / 1e6, timing.b / 1e6, ratio);

  g_outcome.overhead_ran = true;
  g_outcome.digests_match = digests_match;
  g_outcome.overhead_ratio = ratio;
  return digests_match && ratio <= 1.02;
}

// range(0) = executions per cell; MH_THREADS fans the 96 cells.
void BM_FaultBandMatrix(benchmark::State& state) {
  mh::oracle::MatrixConfig config = band_config();
  config.runs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const mh::oracle::MatrixResult result = run_scenario_matrix(config);
    if (!result.all_clean()) {
      g_band_dirty = true;
      state.SkipWithError("fault-band oracle invariant violated");
    }
    benchmark::DoNotOptimize(result.total_degraded());
  }
  state.counters["cells"] = static_cast<double>(96);
  state.counters["runs_per_cell"] = static_cast<double>(config.runs);
}
BENCHMARK(BM_FaultBandMatrix)->Arg(6)->Arg(24)->Unit(benchmark::kMillisecond);

// One faulted oracle execution end to end, per profile: the fault band's unit
// of work (plan sampling + perturbed run + observed-Delta audit + projection).
void BM_FaultedExecution(benchmark::State& state) {
  const auto profile = static_cast<mh::faults::FaultProfile>(state.range(0));
  mh::oracle::RunConfig rc;
  rc.law = mh::oracle::default_matrix_laws()[0].law;
  rc.tie_break = mh::TieBreak::AdversarialOrder;
  rc.strategy = mh::oracle::Strategy::Randomized;
  rc.delta = 2;
  rc.horizon = 160;
  rc.target_slot = 4;
  rc.k = 10;
  const mh::engine::SeedSequence streams(16);
  std::uint64_t i = 0;
  for (auto _ : state) {
    mh::Rng plan_rng = streams.stream(1'000'000 + i);
    const mh::faults::FaultPlan plan = mh::faults::sample_fault_plan(
        profile, rc.honest_parties, rc.horizon, rc.delta, plan_rng);
    mh::Rng rng = streams.stream(i++);
    const mh::oracle::RunVerdict v = mh::oracle::check_execution(rc, rng, &plan);
    if (v.code() == '!') {
      g_band_dirty = true;
      state.SkipWithError("faulted execution broke an invariant");
    }
    benchmark::DoNotOptimize(v.degraded);
  }
  state.SetLabel(mh::faults::fault_profile_name(profile));
}
BENCHMARK(BM_FaultedExecution)
    ->Arg(static_cast<int>(mh::faults::FaultProfile::None))
    ->Arg(static_cast<int>(mh::faults::FaultProfile::PartitionHeal))
    ->Arg(static_cast<int>(mh::faults::FaultProfile::Churn))
    ->Arg(static_cast<int>(mh::faults::FaultProfile::Mixed))
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  mh::bench::MainOptions options;
  options.post_run_clean = [] { return !g_band_dirty; };
  options.results = [] {
    mh::obs::Json results = mh::obs::Json::object();
    results.set("band_clean", g_outcome.band_clean);
    results.set("degraded_runs", static_cast<std::uint64_t>(g_outcome.degraded));
    results.set("recovery_failures",
                static_cast<std::uint64_t>(g_outcome.recovery_failures));
    results.set("resync_blocks", static_cast<std::uint64_t>(g_outcome.resync_blocks));
    results.set("faults_injected", static_cast<std::uint64_t>(g_outcome.faults_injected));
    results.set("overhead_ran", g_outcome.overhead_ran);
    results.set("overhead_digests_match", g_outcome.digests_match);
    results.set("overhead_ratio", g_outcome.overhead_ratio);
    return results;
  };
  return mh::bench::run_main(argc, argv, "faults", [] {
    const bool band_ok = chaos_band_report();
    const bool overhead_ok = overhead_gate_report();
    return band_ok && overhead_ok;
  }, options);
}
