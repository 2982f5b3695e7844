// settlement_dp: the Table-1 grid (36 laws from table1_law) through
// sweep_settlement_series at k <= 300, DpPrecision::Reference, fanned over
// engine::for_each_index at kEngineThreads threads. The seed draws
// kOrdersPerRun orders of the laws in the cell list, and the sweeps of a run
// cycle through them: an order changes which thread claims which law (so
// the load balance) but no value.
//
// Every law's series is checked against the Table-1 digits bench_table1
// prints (3 significant digits, rows k = 100, 200, 300).
//
// The traced pass splits each law into stationary_reach_distribution (init)
// and exact_settlement_series over that initial law (kernel), and checks the
// split series against the sweep's, value for value.
#include <array>
#include <cstdio>
#include <string>

#include "analysis/sweep.hpp"
#include "engine/seed_sequence.hpp"
#include "engine/thread_pool.hpp"
#include "support/table.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxDepth = 300;
constexpr double kAlphas[] = {0.01, 0.10, 0.20, 0.30, 0.40, 0.49};
constexpr double kRatios[] = {1.0, 0.9, 0.8, 0.5, 0.25, 0.01};
constexpr std::size_t kCheckedDepths[] = {100, 200, 300};

// Table 1 as bench_table1 prints it: kTable1[ratio block][k row][alpha].
constexpr const char* kTable1[6][3][6] = {
    {{"5.70E-054", "5.10E-018", "2.28E-008", "8.00E-004", "1.37E-001", "9.05E-001"},
     {"1.64E-106", "9.82E-035", "1.61E-015", "1.60E-006", "3.36E-002", "8.73E-001"},
     {"4.70E-159", "1.89E-051", "1.14E-022", "3.25E-009", "8.52E-003", "8.50E-001"}},
    {{"9.75E-052", "1.24E-017", "3.24E-008", "9.27E-004", "1.44E-001", "9.08E-001"},
     {"3.04E-102", "4.95E-034", "2.96E-015", "2.03E-006", "3.60E-002", "8.77E-001"},
     {"9.46E-153", "1.98E-050", "2.71E-022", "4.50E-009", "9.30E-003", "8.53E-001"}},
    {{"6.16E-048", "4.13E-017", "5.10E-008", "1.11E-003", "1.53E-001", "9.11E-001"},
     {"7.58E-095", "4.61E-033", "6.58E-015", "2.73E-006", "3.91E-002", "8.81E-001"},
     {"9.32E-142", "5.14E-049", "8.48E-022", "6.78E-009", "1.04E-002", "8.57E-001"}},
    {{"4.80E-028", "6.53E-014", "6.21E-007", "2.80E-003", "1.99E-001", "9.26E-001"},
     {"2.46E-055", "6.31E-027", "6.40E-013", "1.31E-005", "5.86E-002", "8.98E-001"},
     {"1.26E-082", "6.10E-040", "6.60E-019", "6.19E-008", "1.76E-002", "8.77E-001"}},
    {{"1.22E-012", "3.13E-008", "8.94E-005", "1.65E-002", "3.17E-001", "9.48E-001"},
     {"1.51E-024", "1.06E-015", "9.36E-009", "3.36E-004", "1.25E-001", "9.27E-001"},
     {"1.86E-036", "3.62E-023", "9.80E-013", "6.86E-006", "4.94E-002", "9.10E-001"}},
    {{"3.77E-001", "4.91E-001", "6.38E-001", "7.95E-001", "9.31E-001", "9.97E-001"},
     {"1.42E-001", "2.41E-001", "4.08E-001", "6.34E-001", "8.72E-001", "9.95E-001"},
     {"5.37E-002", "1.18E-001", "2.61E-001", "5.06E-001", "8.17E-001", "9.94E-001"}},
};

constexpr std::size_t kLaws = std::size(kRatios) * std::size(kAlphas);
constexpr std::size_t kOrdersPerRun = 8;

/// The cell list: Table-1 law indices (ratio-major, as bench_table1 orders
/// them) in the seed's order number `order`, and the laws in that order.
struct Grid {
  std::array<std::size_t, kLaws> order{};
  std::vector<mh::SymbolLaw> laws;
};

Grid build_grid(std::uint64_t seed, std::size_t order) {
  Grid grid;
  for (std::size_t i = 0; i < kLaws; ++i) grid.order[i] = i;
  mh::Rng rng = mh::engine::SeedSequence(seed).stream(order);
  for (std::size_t i = kLaws - 1; i > 0; --i) std::swap(grid.order[i], grid.order[rng() % (i + 1)]);
  grid.laws.reserve(kLaws);
  for (const std::size_t law : grid.order)
    grid.laws.push_back(
        mh::table1_law(kAlphas[law % std::size(kAlphas)], kRatios[law / std::size(kAlphas)]));
  return grid;
}

/// Does the series of Table-1 law `law` print bench_table1's digits?
bool matches_table1(std::size_t law, const mh::SettlementSeries& series) {
  for (std::size_t row = 0; row < std::size(kCheckedDepths); ++row) {
    const std::string printed = mh::paper_scientific(series.violation[kCheckedDepths[row]]);
    if (printed != kTable1[law / std::size(kAlphas)][row][law % std::size(kAlphas)]) return false;
  }
  return true;
}

mh::SweepOptions sweep_options() {
  mh::SweepOptions opt;
  opt.threads = kEngineThreads;
  opt.precision = mh::DpPrecision::Reference;
  return opt;
}

Result run_untraced(const Args& args) {
  Result result;
  std::vector<double> setup_s, wall_s;
  double timed_s = 0.0;  // sweeps after the first, which makes the first allocations
  const Clock::time_point budget_start = Clock::now();
  while (wall_s.size() < 3 || seconds_since(budget_start) < args.seconds) {
    const Clock::time_point setup_start = Clock::now();
    const Grid grid = build_grid(args.seed, wall_s.size() % kOrdersPerRun);
    setup_s.push_back(seconds_since(setup_start));
    const Clock::time_point start = Clock::now();
    const std::vector<mh::SettlementSeries> series =
        mh::sweep_settlement_series(grid.laws, kMaxDepth, sweep_options());
    wall_s.push_back(seconds_since(start));
    if (wall_s.size() > 1) timed_s += wall_s.back();
    for (std::size_t i = 0; i < kLaws; ++i) {
      ++result.attempted;
      if (!matches_table1(grid.order[i], series[i])) ++result.failed;
    }
  }
  const double series_per_s = static_cast<double>(kLaws * (wall_s.size() - 1)) / timed_s;
  std::printf("settlement_dp: %zu laws x k<=%zu, %zu sweeps, %zu threads\n", kLaws, kMaxDepth,
              wall_s.size(), kEngineThreads);
  std::printf("settlement_dp: series_per_s %.2f (sweep s: q1 %.4f median %.4f q3 %.4f), "
              "setup_s %.7f\n",
              series_per_s, percentile(wall_s, 0.25), median(wall_s), percentile(wall_s, 0.75),
              median(setup_s));
  add_end_to_end(result, series_per_s, median(setup_s));
  return result;
}

Result run_traced(const Args& args) {
  Result result;
  const Grid grid = build_grid(args.seed, 0);
  std::vector<double> untraced_s, traced_s, init_ms, kernel_ms, law_ms_max, busy_frac, tail_ms;
  bool guard_ok = true;
  const Clock::time_point budget_start = Clock::now();
  do {
    const Clock::time_point sweep_start = Clock::now();
    const std::vector<mh::SettlementSeries> reference =
        mh::sweep_settlement_series(grid.laws, kMaxDepth, sweep_options());
    untraced_s.push_back(seconds_since(sweep_start));

    std::vector<mh::SettlementSeries> split(kLaws);
    std::vector<std::uint64_t> init_ns(kLaws), kernel_ns(kLaws);
    const Clock::time_point start = Clock::now();
    mh::engine::for_each_index(kLaws, kEngineThreads, [&](std::size_t i) {
      Clock::time_point span = Clock::now();
      const mh::ReachPmf initial = mh::stationary_reach_distribution(grid.laws[i], kMaxDepth);
      init_ns[i] = ns_since(span);
      span = Clock::now();
      split[i] = mh::exact_settlement_series(grid.laws[i], kMaxDepth, initial,
                                             mh::DpPrecision::Reference);
      kernel_ns[i] = ns_since(span);
    });
    const double wall = seconds_since(start);
    traced_s.push_back(wall);

    std::uint64_t busy_ns = 0, init_total = 0, kernel_total = 0, slowest = 0;
    for (std::size_t i = 0; i < kLaws; ++i) {
      ++result.attempted;
      if (!matches_table1(grid.order[i], split[i])) ++result.failed;
      guard_ok = guard_ok && split[i].violation == reference[i].violation;
      init_total += init_ns[i];
      kernel_total += kernel_ns[i];
      busy_ns += init_ns[i] + kernel_ns[i];
      slowest = std::max(slowest, init_ns[i] + kernel_ns[i]);
    }
    const double threads = static_cast<double>(kEngineThreads);
    init_ms.push_back(1e-6 * static_cast<double>(init_total) / kLaws);
    kernel_ms.push_back(1e-6 * static_cast<double>(kernel_total) / kLaws);
    law_ms_max.push_back(1e-6 * static_cast<double>(slowest));
    busy_frac.push_back(1e-9 * static_cast<double>(busy_ns) / (threads * wall));
    tail_ms.push_back(1e3 * (wall - 1e-9 * static_cast<double>(busy_ns) / threads));
  } while (seconds_since(budget_start) < args.seconds);

  if (!report_guard("split_series == sweep_settlement_series", guard_ok)) ++result.failed;
  report_tracing_overhead(median(untraced_s), median(traced_s));
  std::printf("settlement_dp: %zu traced sweeps\n", untraced_s.size());

  LayerMetrics layers;
  if (guard_ok) {
    layers.set("dp.init_ms_per_law", median(init_ms));
    layers.set("dp.kernel_ms_per_law", median(kernel_ms));
    layers.set("dp.law_ms_max", median(law_ms_max));
  }
  layers.set("engine.busy_frac", median(busy_frac));
  layers.set("engine.tail_ms", median(tail_ms));
  layers.append_to(result);
  return result;
}

}  // namespace

Result run_settlement_dp(const Args& args) {
  return args.trace ? run_traced(args) : run_untraced(args);
}

}  // namespace perfbench
