#include "oracle/oracle.hpp"

#include <algorithm>
#include <optional>

#include "delta/delta_fork.hpp"
#include "fork/margin.hpp"
#include "fork/validate.hpp"
#include "obs/obs.hpp"
#include "oracle/epoch.hpp"
#include "protocol/bridge.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace mh::oracle {

const char* strategy_name(Strategy s) noexcept {
  switch (s) {
    case Strategy::PrivateChain: return "private-chain";
    case Strategy::Balance: return "balance";
    case Strategy::Randomized: return "randomized";
  }
  return "?";
}

char RunVerdict::code() const noexcept {
  if (degraded) {
    if (!recovery_checked) return 'u';
    return dominated() ? 'd' : '!';
  }
  if (!dominated()) return '!';
  if (simulated_violation) return 'V';
  return analytic_allows ? 'a' : '.';
}

std::unique_ptr<Adversary> make_strategy(Strategy strategy, const RunRecipe& recipe,
                                         std::uint64_t seed) {
  switch (strategy) {
    case Strategy::PrivateChain:
      return std::make_unique<PrivateChainAdversary>(recipe.target_slot, recipe.k);
    case Strategy::Balance: return std::make_unique<BalanceAttacker>();
    case Strategy::Randomized: return std::make_unique<RandomizedAdversary>(seed);
  }
  return nullptr;
}

namespace {

/// The analytic tail: project `schedule` at `delta` against the target
/// decomposition, run the Theorem-5 recurrence, relabel the execution's block
/// set through the reduction bijection, and fill the verdict's
/// analytic_allows / string_margin / fork_valid / fork_margin /
/// margin_dominated fields.
void grade_projection(const LeaderSchedule& schedule, std::size_t delta,
                      const RunRecipe& recipe, const std::vector<Block>& blocks,
                      RunVerdict& verdict) {
  // --- analytic side: reduce, decompose, run the Theorem-5 recurrence ------
  const AnalyticProjection view = [&] {
    MH_OBS_TIMER("oracle.phase.project");
    AnalyticProjection v = project_schedule(schedule, delta, recipe.target_slot);
    // The margin trajectory covers every observation with at least one reduced
    // suffix symbol; when the whole confirmation window is empty the first
    // observation sees x' alone, and the allowance is the distinct-balance
    // condition on x' (Fact 6 at every divergence point).
    verdict.analytic_allows =
        margin_allows_violation(v) ||
        (empty_observation_window(v, recipe.k) && prefix_admits_distinct_balance(v));
    verdict.string_margin = v.margin.back();  // mu_{x'}(y') over the full suffix
    return v;
  }();

  // --- refinement: the execution relabels into a valid fork for w' ---------
  const Fork projected = [&] {
    MH_OBS_TIMER("oracle.phase.validate");
    const ExecutionFork execution = fork_from_blocks(blocks);
    Fork p = project_to_synchronous(execution.fork, view.reduction.inverse);
    verdict.fork_valid = validate_fork(p, view.reduction.reduced).ok;
    return p;
  }();
  {
    MH_OBS_TIMER("oracle.phase.reduce");
    verdict.fork_margin =
        relative_margin(projected, view.reduction.reduced, view.x_len);
    verdict.margin_dominated = verdict.fork_margin <= verdict.string_margin;
  }
}

/// The one execution recipe of both oracle faces. The caller has drawn
/// `schedule` from `rng`; the recipe draws the strategy seed and then the
/// simulation seed, runs the settlement watch, turns the delivery audit into
/// the projection's Delta and schedule, and grades the projection.
/// `realized()` yields the schedule the run drew; it is called after the run,
/// because an epoch-managed source materializes as the chain grows.
template <typename Realized>
RunVerdict run_and_grade(const RunRecipe& recipe, const ScheduleSource& schedule,
                         Realized&& realized, Rng& rng,
                         const faults::FaultPlan* plan = nullptr,
                         const net::NetConfig& net = {}) {
  MH_REQUIRE(recipe.target_slot >= 1 && recipe.k >= 1);
  MH_REQUIRE(recipe.target_slot + recipe.k <= recipe.horizon);
  RunVerdict verdict;

  // --- protocol side: one seeded execution under the chosen strategy --------
  const std::unique_ptr<Adversary> adversary = make_strategy(recipe.strategy, recipe, rng());
  std::optional<faults::FaultInjector> injector;
  if (plan != nullptr) injector.emplace(*plan, schedule.honest_parties(), schedule.horizon());
  Simulation sim(schedule, SimulationConfig{recipe.tie_break, rng()}, recipe.delta,
                 adversary.get(), injector ? &*injector : nullptr, net);
  {
    MH_OBS_TIMER("oracle.phase.simulate");
    sim.watch_settlement(recipe.target_slot, recipe.k);
    sim.run_until(recipe.target_slot + recipe.k);
    const bool tied = sim.observed_settlement_violation(recipe.target_slot);
    sim.run_until(recipe.horizon);
    verdict.simulated_violation = tied || sim.settlement_watch_violated(recipe.target_slot);
  }

  // --- delivery audit: realized synchrony decides the projection's Delta ---
  const DeliveryAudit audit = sim.delivery_audit();
  verdict.faulted = audit.faulted;
  verdict.heterogeneous = audit.heterogeneous;
  verdict.observed_delta = static_cast<std::uint32_t>(audit.observed_delta);
  verdict.delta_unbounded = audit.delivery_unbounded;
  verdict.degraded = audit.delivery_unbounded || audit.observed_delta > recipe.delta;
  verdict.resync_blocks = static_cast<std::uint32_t>(audit.stats.resync_blocks);
  verdict.faults_injected = static_cast<std::uint32_t>(audit.stats.injected());
  if (audit.faulted) {
    MH_OBS_COUNT("oracle.faulted_runs", 1);
    MH_OBS_COUNT("protocol.faults.injected", audit.stats.injected());
  }
  if (audit.heterogeneous) MH_OBS_COUNT("oracle.hetero_runs", 1);
  std::size_t project_delta = recipe.delta;
  if (verdict.degraded) {
    MH_OBS_COUNT("oracle.degraded_runs", 1);
    // Never a silent pass: the run is flagged, then — when a finite observed
    // Delta exists — held to the invariants AT that Delta (the graceful-
    // degradation contract). Unbounded non-delivery admits no finite
    // projection; the flag alone stands ('u').
    if (verdict.delta_unbounded) return verdict;
    project_delta = audit.observed_delta;
    verdict.recovery_checked = true;
  }
  // Down leaders forged nothing: the realized block set matches the schedule
  // with those leaderships removed, and the projection must relabel against
  // THAT characteristic string (else F1 fails on honest indices with no
  // vertex).
  if (audit.stats.leaderships_skipped != 0)
    grade_projection(injector->effective_schedule(schedule), project_delta, recipe,
                     sim.all_blocks(), verdict);
  else
    grade_projection(realized(), project_delta, recipe, sim.all_blocks(), verdict);
  return verdict;
}

}  // namespace

RunVerdict check_execution(const RunConfig& config, Rng& rng, const faults::FaultPlan* plan) {
  const LeaderSchedule schedule =
      LeaderSchedule::from_tetra_law(config.law, config.horizon, config.honest_parties, rng);
  return run_and_grade(
      config, schedule, [&]() -> const LeaderSchedule& { return schedule; }, rng, plan,
      config.net);
}

EpochVerdict check_epoch_execution(const EpochRunConfig& config, Rng& rng) {
  consensus::StakeRegistry registry =
      config.honest_stakes.empty()
          ? consensus::StakeRegistry::uniform(config.honest_parties, config.adversarial_stake)
          : consensus::StakeRegistry(config.honest_stakes, config.adversarial_stake);
  for (const consensus::StakeShiftSpec& spec : config.shifts) registry.add_shift(spec);
  const consensus::EpochSchedule schedule(config.consensus, std::move(registry),
                                          config.horizon, rng());

  // --- global grade: the realized schedule (the run materialized every
  // epoch, so realized() covers the horizon) through the shared recipe ------
  EpochVerdict verdict;
  verdict.run = run_and_grade(config, schedule, [&] { return schedule.realized(); }, rng);

  // --- per-epoch grade: realized frequencies vs the stake-induced law ------
  verdict.cells.reserve(schedule.materialized_epochs());
  for (std::size_t e = 0; e < schedule.materialized_epochs(); ++e) {
    EpochCell cell;
    cell.epoch = e;
    cell.nonce = schedule.epoch_nonce(e);
    const std::size_t lo = schedule.epochs().epoch_start(e);
    const std::size_t hi = std::min(schedule.epochs().epoch_end(e), config.horizon);
    cell.slots = hi - lo + 1;
    for (std::size_t slot = lo; slot <= hi; ++slot)
      ++cell.counts[static_cast<std::size_t>(slot_symbol(schedule.leaders(slot)))];
    cell.induced = schedule.epoch_induced_law(e);
    cell.reduced = reduced_law(cell.induced, config.delta);
    const double masses[4] = {cell.induced.pBot, cell.induced.ph, cell.induced.pH,
                              cell.induced.pA};
    cell.law_within_band = true;
    for (std::size_t s = 0; s < 4; ++s)
      if (!clopper_pearson_covers(cell.counts[s], cell.slots, masses[s],
                                  config.band_confidence))
        cell.law_within_band = false;
    verdict.laws_within_band = verdict.laws_within_band && cell.law_within_band;
    verdict.cells.push_back(cell);
  }
  verdict.all_graded = schedule.materialized_epochs() == schedule.epoch_count();
  MH_OBS_COUNT("oracle.epoch_runs", 1);
  if (!verdict.all_graded) MH_OBS_COUNT("oracle.epoch_ungraded", 1);
  return verdict;
}

}  // namespace mh::oracle
