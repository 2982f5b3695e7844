#include "oracle/scenario.hpp"

#include <algorithm>

#include "delta/delta_settlement.hpp"
#include "engine/seed_sequence.hpp"
#include "engine/thread_pool.hpp"
#include "obs/obs.hpp"
#include "sim/monte_carlo.hpp"
#include "support/check.hpp"

namespace mh::oracle {

namespace {

// MC<->DP slack: how far the exact value sits from the nearer band edge, in
// parts-per-million of the band width (0 = touching an edge; a persistently
// tiny slack flags a band about to break).
void record_band_slack(const CellVerdict& cell) {
  const double width = cell.recurrence_mc.hi - cell.recurrence_mc.lo;
  if (width <= 0.0) return;
  const double exact = static_cast<double>(cell.exact_pk);
  const double edge = std::min(exact - cell.recurrence_mc.lo, cell.recurrence_mc.hi - exact);
  MH_OBS_HIST("oracle.mc_band_slack_ppm", static_cast<std::uint64_t>(1e6 * edge / width));
}

CellVerdict run_cell(const MatrixConfig& config, const NamedLaw& named, std::size_t tie_i,
                     std::size_t delta_i, std::size_t strategy_i, std::size_t law_i,
                     faults::FaultProfile profile, std::uint64_t cell_seed) {
  MH_OBS_TIMER("oracle.cell_ns");
  MH_OBS_COUNT("oracle.cells", 1);
  RunConfig rc;
  rc.law = named.law;
  rc.tie_break = config.tie_breaks[tie_i];
  rc.strategy = config.strategies[strategy_i];
  rc.delta = config.deltas[delta_i];
  rc.target_slot = config.target_slot;
  rc.k = config.k;
  rc.horizon = config.horizon;
  rc.honest_parties = config.honest_parties;

  CellVerdict out;
  out.tie_break = rc.tie_break;
  out.delta = rc.delta;
  out.strategy = rc.strategy;
  out.law_index = law_i;
  out.fault_profile = profile;
  out.runs = config.runs;

  const bool faulted_cell = profile != faults::FaultProfile::None;
  const engine::SeedSequence streams(cell_seed);
  // Plans draw from their own derived stream, never from the run's rng: a
  // None cell consumes exactly the draws of the pre-fault matrix, keeping the
  // golden pins, and a plan is a pure function of (cell seed, run index).
  const engine::SeedSequence plan_streams(cell_seed ^ 0xfa01c0defa01c0deULL);
  for (std::size_t r = 0; r < config.runs; ++r) {
    Rng rng = streams.stream(r);
    MH_OBS_COUNT("oracle.executions", 1);
    faults::FaultPlan plan;
    if (faulted_cell) {
      Rng plan_rng = plan_streams.stream(r);
      plan = faults::sample_fault_plan(profile, rc.honest_parties, rc.horizon, rc.delta,
                                       plan_rng);
    }
    const RunVerdict v = check_execution(rc, rng, faulted_cell ? &plan : nullptr);
    if (r == 0) out.first_run = v.code();
    if (v.simulated_violation) ++out.simulated_violations;
    if (v.analytic_allows) ++out.analytic_allowed;
    bool run_dirty = false;
    if (v.degraded) {
      // Out-of-bound run: flagged, and graded against its observed Delta.
      ++out.degraded_runs;
      if (!v.recovery_checked) ++out.degraded_unchecked;
      else if (!v.dominated()) {
        ++out.recovery_failures;
        run_dirty = true;
      }
    } else {
      // Within the configured bound (faulted or not) the full invariant set
      // applies unchanged.
      if (v.simulated_violation && !v.analytic_allows) ++out.domination_failures;
      if (!v.fork_valid) ++out.fork_invalid;
      if (!v.margin_dominated) ++out.margin_breaches;
      run_dirty = !v.dominated();
    }
    if (!v.delta_unbounded)
      out.max_observed_delta = std::max(out.max_observed_delta,
                                        static_cast<std::size_t>(v.observed_delta));
    out.resync_blocks += v.resync_blocks;
    out.faults_injected += v.faults_injected;
    if (faulted_cell && run_dirty && out.first_failure_run == SIZE_MAX) {
      // The minimal reproducer: (matrix seed, cell index, run index, plan)
      // rebuilds this exact execution anywhere.
      out.first_failure_run = r;
      out.first_failure_plan = plan.serialize();
    }
  }

  // Stochastic cross-validation on the cell's reduced law. Below honest
  // majority the DP saturates at 1 and X_inf diverges, so the bands carry no
  // information; the ceiling stays at the trivial 1. Faulted cells skip the
  // checks entirely: crashes thin the realized leader law, so neither the
  // MC band nor the un-faulted analytic ceiling bounds what they simulate.
  if (faulted_cell) return out;
  const SymbolLaw reduced = reduced_law(named.law, rc.delta);
  out.reduced_epsilon = reduced.epsilon();
  if (reduced.epsilon() > 0.0) {
    out.exact_pk = delta_settlement_violation_probability(named.law, rc.delta, rc.k);
    out.analytic_ceiling = eventual_settlement_insecurity(reduced, 1);

    McOptions mopt;
    mopt.samples = config.mc_samples;
    mopt.seed = cell_seed ^ 0x5eedf00dULL;
    mopt.threads = 1;  // the matrix parallelizes over cells, not inside them
    const Proportion mc = mc_settlement_violation(reduced, rc.k, mopt);
    out.recurrence_mc = clopper_pearson_interval(mc.successes, mc.trials, kBandConfidence);
    out.mc_checked = true;
    out.mc_within_band = out.recurrence_mc.lo <= static_cast<double>(out.exact_pk) &&
                         static_cast<double>(out.exact_pk) <= out.recurrence_mc.hi;
    if (obs::enabled() && out.mc_within_band) record_band_slack(out);
  }

  const Proportion protocol =
      clopper_pearson_interval(out.simulated_violations, out.runs, kBandConfidence);
  out.protocol_within_ceiling = protocol.lo <= static_cast<double>(out.analytic_ceiling);
  return out;
}

}  // namespace

std::size_t MatrixResult::total_runs() const noexcept {
  std::size_t n = 0;
  for (const CellVerdict& c : cells) n += c.runs;
  return n;
}

std::size_t MatrixResult::total_violations() const noexcept {
  std::size_t n = 0;
  for (const CellVerdict& c : cells) n += c.simulated_violations;
  return n;
}

std::size_t MatrixResult::total_domination_failures() const noexcept {
  std::size_t n = 0;
  for (const CellVerdict& c : cells) n += c.domination_failures;
  return n;
}

std::size_t MatrixResult::total_fork_invalid() const noexcept {
  std::size_t n = 0;
  for (const CellVerdict& c : cells) n += c.fork_invalid;
  return n;
}

std::size_t MatrixResult::total_margin_breaches() const noexcept {
  std::size_t n = 0;
  for (const CellVerdict& c : cells) n += c.margin_breaches;
  return n;
}

std::size_t MatrixResult::total_degraded() const noexcept {
  std::size_t n = 0;
  for (const CellVerdict& c : cells) n += c.degraded_runs;
  return n;
}

std::size_t MatrixResult::total_recovery_failures() const noexcept {
  std::size_t n = 0;
  for (const CellVerdict& c : cells) n += c.recovery_failures;
  return n;
}

std::size_t MatrixResult::total_resync_blocks() const noexcept {
  std::size_t n = 0;
  for (const CellVerdict& c : cells) n += c.resync_blocks;
  return n;
}

bool MatrixResult::all_clean() const noexcept {
  for (const CellVerdict& c : cells)
    if (!c.clean()) return false;
  return true;
}

std::vector<NamedLaw> default_matrix_laws() {
  return {
      // Sparse slots (f = 0.2) keep the reduced law honest-majority through
      // Delta = 2, so the semi-synchronous analytic path is exercised
      // non-trivially on every Delta axis value.
      {"semi-sync-honest", theorem7_law(0.2, 0.03, 0.12)},
      // Dense multiply-honest-heavy law (pH = 0.9, no adversarial stake):
      // the Theorem-2 workload where tie-breaking alone decides settlement.
      {"mh-heavy", theorem7_law(1.0, 0.0, 0.10)},
  };
}

std::size_t cell_index(const MatrixConfig& config, std::size_t tie_i, std::size_t delta_i,
                       std::size_t strategy_i, std::size_t law_i, std::size_t fault_i) {
  const std::size_t n_laws =
      config.laws.empty() ? default_matrix_laws().size() : config.laws.size();
  return (((fault_i * config.tie_breaks.size() + tie_i) * config.deltas.size() + delta_i) *
              config.strategies.size() +
          strategy_i) *
             n_laws +
         law_i;
}

MatrixConfig fault_band_config() {
  MatrixConfig config;
  config.tie_breaks = {TieBreak::AdversarialOrder, TieBreak::ConsistentHash};
  config.deltas = {1, 2};
  config.strategies = {Strategy::Balance, Strategy::Randomized};
  config.fault_profiles = {faults::FaultProfile::None,       faults::FaultProfile::PartitionHeal,
                           faults::FaultProfile::Churn,      faults::FaultProfile::LossyLinks,
                           faults::FaultProfile::Asynchrony, faults::FaultProfile::Mixed};
  config.runs = 12;
  config.mc_samples = 500;
  config.seed = 6101;
  return config;
}

MatrixResult run_scenario_matrix(const MatrixConfig& config) {
  MH_REQUIRE(!config.tie_breaks.empty() && !config.deltas.empty() &&
             !config.strategies.empty());
  MH_REQUIRE(config.runs >= 1);
  const std::vector<NamedLaw> laws =
      config.laws.empty() ? default_matrix_laws() : config.laws;
  for (const NamedLaw& named : laws) named.law.validate();

  // An empty profile list degenerates to the single un-faulted band.
  const std::vector<faults::FaultProfile> profiles =
      config.fault_profiles.empty()
          ? std::vector<faults::FaultProfile>{faults::FaultProfile::None}
          : config.fault_profiles;

  const std::size_t n_cells = profiles.size() * config.tie_breaks.size() *
                              config.deltas.size() * config.strategies.size() * laws.size();
  MatrixResult result;
  result.cells.resize(n_cells);

  const engine::SeedSequence cell_seeds(config.seed);
  engine::for_each_index(n_cells, config.threads, [&](std::size_t idx) {
    // Invert the row-major (fault, tie, delta, strategy, law) index.
    std::size_t rest = idx;
    const std::size_t law_i = rest % laws.size();
    rest /= laws.size();
    const std::size_t strategy_i = rest % config.strategies.size();
    rest /= config.strategies.size();
    const std::size_t delta_i = rest % config.deltas.size();
    rest /= config.deltas.size();
    const std::size_t tie_i = rest % config.tie_breaks.size();
    const std::size_t fault_i = rest / config.tie_breaks.size();
    result.cells[idx] = run_cell(config, laws[law_i], tie_i, delta_i, strategy_i, law_i,
                                 profiles[fault_i], cell_seeds.derive(idx));
  });
  return result;
}

std::string first_run_codes(const MatrixResult& result) {
  std::string codes;
  codes.reserve(result.cells.size());
  for (const CellVerdict& c : result.cells) codes.push_back(c.first_run);
  return codes;
}

}  // namespace mh::oracle
