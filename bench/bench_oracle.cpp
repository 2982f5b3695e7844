// E13 — the differential consistency oracle at scale: the full
// {A0, A0'} x {Delta 0,1,2} x {3 strategies} x {2 laws} scenario matrix with
// large cells (hundreds of executions each, deeper horizons than the ctest
// cells), cross-validated run by run against the fork-theoretic analytics.
//
// The report prints one row per cell: simulated violation counts, the
// analytic allowance, the exact DP value with the Monte-Carlo
// Clopper-Pearson band, and the invariant counters - all of which must be
// zero. The registered benchmarks time the matrix itself (MH_THREADS fans
// the cells), producing BENCH_oracle.json in CI.
#include <benchmark/benchmark.h>

#include "bench_harness.hpp"

#include <chrono>
#include <cstdio>

#include "engine/seed_sequence.hpp"
#include "engine/thread_pool.hpp"
#include "oracle/scenario.hpp"
#include "support/table.hpp"

namespace {

mh::oracle::MatrixConfig large_matrix(std::size_t threads) {
  mh::oracle::MatrixConfig config;
  config.runs = 200;
  config.horizon = 160;
  config.target_slot = 4;
  config.k = 10;
  config.mc_samples = 20000;
  config.threads = threads;
  return config;
}

const char* tie_name(mh::TieBreak tie) {
  return tie == mh::TieBreak::AdversarialOrder ? "A0" : "A0'";
}

bool print_matrix_report() {
  const mh::oracle::MatrixConfig config = large_matrix(mh::engine::threads_from_env());
  const std::vector<mh::oracle::NamedLaw> laws = mh::oracle::default_matrix_laws();

  const auto start = std::chrono::steady_clock::now();
  const mh::oracle::MatrixResult result = run_scenario_matrix(config);
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf(
      "Differential consistency oracle: %zu cells x %zu executions\n"
      "(horizon %zu, target slot %zu, k = %zu; invariants must all be 0)\n\n",
      result.cells.size(), config.runs, config.horizon, config.target_slot, config.k);

  mh::TextTable table({"tie", "Delta", "strategy", "law", "viol", "allowed", "exact P(k)",
                       "MC band", "dom", "fork", "margin"});
  for (const auto& cell : result.cells) {
    std::vector<std::string> row;
    row.push_back(tie_name(cell.tie_break));
    row.push_back(std::to_string(cell.delta));
    row.push_back(mh::oracle::strategy_name(cell.strategy));
    row.push_back(laws[cell.law_index].name);
    row.push_back(std::to_string(cell.simulated_violations));
    row.push_back(std::to_string(cell.analytic_allowed));
    row.push_back(mh::paper_scientific(cell.exact_pk));
    row.push_back(cell.mc_checked
                      ? mh::bench::interval(mh::fixed(cell.recurrence_mc.lo, 4),
                                            mh::fixed(cell.recurrence_mc.hi, 4))
                      : std::string("(skipped)"));
    row.push_back(std::to_string(cell.domination_failures));
    row.push_back(std::to_string(cell.fork_invalid));
    row.push_back(std::to_string(cell.margin_breaches));
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "totals: %zu executions, %zu violations, %zu domination failures, "
      "%zu invalid forks, %zu margin breaches, all clean = %s  (%.0f ms)\n\n",
      result.total_runs(), result.total_violations(), result.total_domination_failures(),
      result.total_fork_invalid(), result.total_margin_breaches(),
      result.all_clean() ? "yes" : "NO", ms);
  return result.all_clean();
}

// A dirty matrix anywhere (report or timed iterations) must fail the process.
bool g_matrix_dirty = false;

// range(0) = executions per cell; MH_THREADS fans the 36 cells.
void BM_ScenarioMatrix(benchmark::State& state) {
  mh::oracle::MatrixConfig config = large_matrix(mh::engine::threads_from_env());
  config.runs = static_cast<std::size_t>(state.range(0));
  config.mc_samples = 2000;
  for (auto _ : state) {
    const mh::oracle::MatrixResult result = run_scenario_matrix(config);
    if (!result.all_clean()) {
      g_matrix_dirty = true;
      state.SkipWithError("oracle invariant violated");
    }
    benchmark::DoNotOptimize(result.total_violations());
  }
  state.counters["cells"] = static_cast<double>(36);
  state.counters["runs_per_cell"] = static_cast<double>(config.runs);
}
BENCHMARK(BM_ScenarioMatrix)->Arg(25)->Arg(100)->Unit(benchmark::kMillisecond);

// One cell end to end (execution + projection + fork checks), the oracle's
// unit of work.
void BM_OracleExecution(benchmark::State& state) {
  mh::oracle::RunConfig rc;
  rc.law = mh::oracle::default_matrix_laws()[0].law;
  rc.delta = static_cast<std::size_t>(state.range(0));
  rc.strategy = mh::oracle::Strategy::Randomized;
  rc.horizon = 160;
  rc.target_slot = 4;
  rc.k = 10;
  const mh::engine::SeedSequence streams(7);
  std::uint64_t i = 0;
  for (auto _ : state) {
    mh::Rng rng = streams.stream(i++);
    const mh::oracle::RunVerdict v = mh::oracle::check_execution(rc, rng);
    benchmark::DoNotOptimize(v.simulated_violation);
  }
}
BENCHMARK(BM_OracleExecution)->Arg(0)->Arg(2)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  mh::bench::MainOptions options;
  // A dirty matrix anywhere (report or timed iterations) fails the CI bench job.
  options.post_run_clean = [] { return !g_matrix_dirty; };
  return mh::bench::run_main(argc, argv, "oracle", print_matrix_report, options);
}
