// oracle_band: one batch of short graded executions over the four oracle
// faces, fanned over engine::for_each_index at kEngineThreads threads.
//
//   * scenario-matrix cells: both tie-break axioms x Delta {0,1,2} x the
//     three strategies x the two stock matrix laws (check_execution);
//   * fault-band cells: five sampled FaultPlan profiles x both axioms x
//     Delta {1,2} x {balance, randomized} x both laws;
//   * heterogeneous-net cells: the E18 band shapes (ring, random-k and
//     two-cluster topologies with latency laws and bandwidth caps);
//   * epoch cells: the E19 stake/shift/grinding band at a 160-slot horizon
//     (check_epoch_execution).
//
// Setup is the job-list build, fault plans included. A repetition grades the
// whole batch once; the verdict string must not change between repetitions.
// Worker threads keep their BlockTree storage arenas warm from one execution
// to the next, as any batch of short executions does.
//
// The traced pass re-runs check_execution phase by phase (schedule draw,
// simulation through TimedSchedule, projection, fork validation, margin
// reduction) and checks each phase-split verdict against check_execution's
// own RunVerdict.
#include <cstdio>
#include <optional>
#include <string>

#include "delta/delta_fork.hpp"
#include "engine/seed_sequence.hpp"
#include "engine/thread_pool.hpp"
#include "fork/margin.hpp"
#include "fork/validate.hpp"
#include "oracle/epoch.hpp"
#include "oracle/scenario.hpp"
#include "probes.hpp"
#include "protocol/bridge.hpp"
#include "protocol/faults/injector.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mh::oracle::EpochRunConfig;
using mh::oracle::RunConfig;
using mh::oracle::RunVerdict;
using mh::oracle::Strategy;

enum class Face : std::uint8_t { Matrix, Fault, Hetero, Epoch };

struct Job {
  Face face = Face::Matrix;
  RunConfig run{};           ///< Matrix / Fault / Hetero
  EpochRunConfig epoch{};    ///< Epoch
  mh::faults::FaultPlan plan{};  ///< Fault
  std::uint64_t stream_seed = 0;
};

constexpr std::size_t kMatrixRuns = 24;
constexpr std::size_t kFaultRuns = 6;
constexpr std::size_t kHeteroRuns = 60;
constexpr std::size_t kEpochRuns = 64;
/// An execution makes a few hundred eligible() calls; replaying its sampled
/// queries this often makes one replay span long against a clock read.
constexpr std::size_t kEligibleReplays = 64;

const mh::TieBreak kTieBreaks[] = {mh::TieBreak::AdversarialOrder,
                                   mh::TieBreak::ConsistentHash};

RunConfig matrix_run(const mh::TetraLaw& law, mh::TieBreak tie, std::size_t delta,
                     Strategy strategy) {
  RunConfig rc;  // MatrixConfig's geometry: P = 6, T = 48, target 2, k = 6
  rc.law = law;
  rc.tie_break = tie;
  rc.strategy = strategy;
  rc.delta = delta;
  return rc;
}

RunConfig hetero_run(mh::net::TopologyKind topology, mh::net::LatencyLaw latency,
                     std::size_t bandwidth, Strategy strategy) {
  RunConfig rc;  // the E18 band geometry
  rc.law = mh::theorem7_law(1.0, 0.25, 0.45);
  rc.strategy = strategy;
  rc.delta = 1;
  rc.horizon = 96;
  rc.target_slot = 4;
  rc.k = 8;
  rc.honest_parties = 8;
  rc.net.topology = topology;
  rc.net.k = 2;
  rc.net.latency = latency;
  rc.net.bandwidth = bandwidth;
  return rc;
}

EpochRunConfig epoch_run(std::vector<double> honest_stakes, double adversarial_stake,
                         std::vector<mh::consensus::StakeShiftSpec> shifts,
                         std::size_t nonce_window, std::size_t delta, Strategy strategy) {
  EpochRunConfig config;  // the E19 band geometry, 160 slots = five epochs
  config.consensus.f = 0.5;
  config.consensus.epoch.epoch_length = 32;
  config.consensus.epoch.nonce_window = nonce_window;
  config.honest_stakes = std::move(honest_stakes);
  config.honest_parties = 6;
  config.adversarial_stake = adversarial_stake;
  config.shifts = std::move(shifts);
  config.strategy = strategy;
  config.delta = delta;
  config.horizon = 160;
  return config;
}

std::vector<Job> build_jobs(std::uint64_t seed) {
  const mh::engine::SeedSequence root(seed);
  const mh::engine::SeedSequence streams(root.derive(1));
  const mh::engine::SeedSequence plan_streams(root.derive(2));
  std::vector<Job> jobs;
  const auto add = [&](Face face, std::size_t runs, const auto& fill) {
    for (std::size_t r = 0; r < runs; ++r) {
      Job job;
      job.face = face;
      job.stream_seed = streams.derive(jobs.size());
      fill(job);
      jobs.push_back(std::move(job));
    }
  };
  const std::vector<mh::oracle::NamedLaw> laws = mh::oracle::default_matrix_laws();

  for (const mh::TieBreak tie : kTieBreaks)
    for (const std::size_t delta : {0, 1, 2})
      for (const Strategy strategy :
           {Strategy::PrivateChain, Strategy::Balance, Strategy::Randomized})
        for (const mh::oracle::NamedLaw& named : laws)
          add(Face::Matrix, kMatrixRuns,
              [&](Job& job) { job.run = matrix_run(named.law, tie, delta, strategy); });

  using mh::faults::FaultProfile;
  for (const FaultProfile profile :
       {FaultProfile::PartitionHeal, FaultProfile::Churn, FaultProfile::LossyLinks,
        FaultProfile::Asynchrony, FaultProfile::Mixed})
    for (const mh::TieBreak tie : kTieBreaks)
      for (const std::size_t delta : {1, 2})
        for (const Strategy strategy : {Strategy::Balance, Strategy::Randomized})
          for (const mh::oracle::NamedLaw& named : laws)
            add(Face::Fault, kFaultRuns, [&](Job& job) {
              job.run = matrix_run(named.law, tie, delta, strategy);
              mh::Rng plan_rng = plan_streams.stream(jobs.size());
              job.plan = mh::faults::sample_fault_plan(profile, job.run.honest_parties,
                                                       job.run.horizon, delta, plan_rng);
            });

  using mh::net::LatencyKind;
  using mh::net::TopologyKind;
  const struct {
    TopologyKind topology;
    mh::net::LatencyLaw latency;
    std::size_t bandwidth;
    Strategy strategy;
  } hetero_cells[] = {
      {TopologyKind::FullMesh, {LatencyKind::Uniform, 0, 2, 0.5}, 0, Strategy::Balance},
      {TopologyKind::Ring, {LatencyKind::Degenerate, 0, 0, 0.5}, 0, Strategy::Balance},
      {TopologyKind::Ring, {LatencyKind::Uniform, 0, 2, 0.5}, 0, Strategy::Randomized},
      {TopologyKind::RandomK, {LatencyKind::Geometric, 0, 3, 0.4}, 0, Strategy::Balance},
      {TopologyKind::RandomK, {LatencyKind::Uniform, 0, 2, 0.5}, 0, Strategy::PrivateChain},
      {TopologyKind::TwoClusterBridge, {LatencyKind::Uniform, 0, 2, 0.5}, 0, Strategy::Balance},
      {TopologyKind::TwoClusterBridge, {LatencyKind::Degenerate, 1, 0, 0.5}, 2,
       Strategy::Randomized},
      {TopologyKind::FullMesh, {LatencyKind::Geometric, 0, 2, 0.5}, 1, Strategy::Balance},
  };
  for (const auto& cell : hetero_cells)
    add(Face::Hetero, kHeteroRuns, [&](Job& job) {
      job.run = hetero_run(cell.topology, cell.latency, cell.bandwidth, cell.strategy);
    });

  const std::vector<EpochRunConfig> epoch_cells = {
      epoch_run({}, 0.25, {}, 0, 0, Strategy::PrivateChain),
      epoch_run({}, 0.25, {}, 0, 0, Strategy::Balance),
      epoch_run({0.40, 0.12, 0.08, 0.08, 0.05, 0.02}, 0.25, {}, 0, 0, Strategy::PrivateChain),
      epoch_run({}, 0.25, {{1, 0, 0.0625}, {1, mh::kAdversary, 0.3125}}, 0, 0,
                Strategy::PrivateChain),
      epoch_run({}, 0.2, {{1, 0, 0.30}, {1, 1, 0.05}, {2, 2, 0.25}, {2, 3, 0.05}}, 0, 0,
                Strategy::Randomized),
      epoch_run({}, 0.25, {}, 4, 0, Strategy::PrivateChain),
      epoch_run({}, 0.25, {}, 0, 1, Strategy::Balance),
  };
  for (const EpochRunConfig& cell : epoch_cells)
    add(Face::Epoch, kEpochRuns, [&](Job& job) { job.epoch = cell; });
  return jobs;
}

/// The untraced unit of work: one graded execution, reduced to its code.
/// '!' marks a failure: an invariant breach, or an epoch verdict that is not
/// clean() (a faulted run's 'u' is a legitimate grade, not a failure).
char grade(const Job& job) {
  mh::Rng rng(job.stream_seed);
  if (job.face == Face::Epoch) {
    const mh::oracle::EpochVerdict v = mh::oracle::check_epoch_execution(job.epoch, rng);
    return v.clean() ? v.code() : '!';
  }
  return mh::oracle::check_execution(job.run, rng, job.face == Face::Fault ? &job.plan : nullptr)
      .code();
}

/// Grades the whole batch; returns the verdict string and its wall time.
std::string grade_batch(const std::vector<Job>& jobs, double* wall_s,
                        std::vector<std::uint64_t>* job_ns = nullptr) {
  std::string codes(jobs.size(), '?');
  const Clock::time_point start = Clock::now();
  mh::engine::for_each_index(jobs.size(), kEngineThreads, [&](std::size_t i) {
    const Clock::time_point job_start = Clock::now();
    codes[i] = grade(jobs[i]);
    if (job_ns != nullptr) (*job_ns)[i] = ns_since(job_start);
  });
  *wall_s = seconds_since(start);
  return codes;
}

// --- the traced pass ---------------------------------------------------------

struct PhaseTimes {
  std::uint64_t schedule_ns = 0, simulate_ns = 0, project_ns = 0, validate_ns = 0,
                reduce_ns = 0;
  std::uint64_t eligible_calls = 0, epochs = 0;
  SpanTotal eligible_replay, advance;
};

/// detail::grade_projection, one timed span per phase.
void grade_projection_phases(const mh::LeaderSchedule& schedule, std::size_t delta,
                             std::size_t target_slot, std::size_t k,
                             const std::vector<mh::Block>& blocks, RunVerdict& verdict,
                             PhaseTimes& times) {
  Clock::time_point start = Clock::now();
  const mh::oracle::AnalyticProjection view =
      mh::oracle::project_schedule(schedule, delta, target_slot);
  verdict.analytic_allows =
      mh::oracle::margin_allows_violation(view) ||
      (mh::oracle::empty_observation_window(view, k) &&
       mh::oracle::prefix_admits_distinct_balance(view));
  verdict.string_margin = view.margin.back();
  times.project_ns += ns_since(start);

  start = Clock::now();
  const mh::ExecutionFork execution = mh::fork_from_blocks(blocks);
  const mh::Fork projected = mh::project_to_synchronous(execution.fork, view.reduction.inverse);
  verdict.fork_valid = mh::validate_fork(projected, view.reduction.reduced).ok;
  times.validate_ns += ns_since(start);

  start = Clock::now();
  verdict.fork_margin = mh::relative_margin(projected, view.reduction.reduced, view.x_len);
  verdict.margin_dominated = verdict.fork_margin <= verdict.string_margin;
  times.reduce_ns += ns_since(start);
}

/// Simulates with the settlement watch exactly as both oracle faces do.
void simulate(mh::Simulation& sim, std::size_t target_slot, std::size_t k, std::size_t horizon,
              RunVerdict& verdict) {
  sim.watch_settlement(target_slot, k);
  sim.run_until(target_slot + k);
  const bool tied = sim.observed_settlement_violation(target_slot);
  sim.run_until(horizon);
  verdict.simulated_violation = tied || sim.settlement_watch_violated(target_slot);
}

/// check_execution, phase by phase.
RunVerdict grade_run_phases(const Job& job, PhaseTimes& times) {
  const RunConfig& rc = job.run;
  mh::Rng rng(job.stream_seed);
  RunVerdict verdict;

  Clock::time_point start = Clock::now();
  const mh::LeaderSchedule schedule =
      mh::LeaderSchedule::from_tetra_law(rc.law, rc.horizon, rc.honest_parties, rng);
  times.schedule_ns += ns_since(start);

  start = Clock::now();
  const std::unique_ptr<mh::Adversary> adversary = mh::oracle::make_strategy(rc.strategy, rc, rng());
  std::optional<mh::faults::FaultInjector> injector;
  if (job.face == Face::Fault) injector.emplace(job.plan, rc.honest_parties, rc.horizon);
  const TimedSchedule timed(schedule);
  mh::Simulation sim(timed, mh::SimulationConfig{rc.tie_break, rng()}, rc.delta, adversary.get(),
                     injector ? &*injector : nullptr, rc.net);
  simulate(sim, rc.target_slot, rc.k, rc.horizon, verdict);

  // The fault / network audit picks the projection's Delta and schedule.
  std::size_t project_delta = rc.delta;
  std::optional<mh::LeaderSchedule> effective;
  const mh::LeaderSchedule* projected_schedule = &schedule;
  const auto take_fault_stats = [&](const mh::FaultReport& report) {
    verdict.faulted = true;
    verdict.resync_blocks = static_cast<std::uint32_t>(report.stats.resync_blocks);
    verdict.faults_injected = static_cast<std::uint32_t>(report.stats.injected());
    if (report.leaderships_skipped != 0) {
      effective = injector->effective_schedule(schedule);
      projected_schedule = &*effective;
    }
  };
  bool unbounded = false;
  if (rc.net.heterogeneous()) {
    const mh::NetReport net = sim.net_report();
    verdict.heterogeneous = true;
    verdict.observed_delta = static_cast<std::uint32_t>(net.observed_delta);
    if (injector) take_fault_stats(sim.fault_report());
    verdict.degraded = net.observed_delta > rc.delta;
    if (verdict.degraded) {
      project_delta = net.observed_delta;
      verdict.recovery_checked = true;
    }
  } else if (injector) {
    const mh::FaultReport report = sim.fault_report();
    take_fault_stats(report);
    verdict.observed_delta = static_cast<std::uint32_t>(report.observed_delta);
    verdict.delta_unbounded = report.delivery_unbounded;
    verdict.degraded = report.delivery_unbounded || report.observed_delta > rc.delta;
    if (verdict.degraded) {
      unbounded = verdict.delta_unbounded;
      project_delta = report.observed_delta;
      verdict.recovery_checked = !unbounded;
    }
  }
  times.simulate_ns += ns_since(start);
  times.eligible_calls += timed.eligible_calls();
  times.eligible_replay += timed.replay_sampled_eligible(kEligibleReplays);
  if (unbounded) return verdict;  // no finite Delta to project at: the 'u' grade

  grade_projection_phases(*projected_schedule, project_delta, rc.target_slot, rc.k,
                          sim.all_blocks(), verdict, times);
  return verdict;
}

/// The global grade of check_epoch_execution, phase by phase (the per-epoch
/// frequency bands are not re-derived: the guard compares the run verdict).
RunVerdict grade_epoch_phases(const Job& job, PhaseTimes& times) {
  const EpochRunConfig& config = job.epoch;
  mh::Rng rng(job.stream_seed);
  RunVerdict verdict;

  Clock::time_point start = Clock::now();
  mh::consensus::StakeRegistry registry =
      config.honest_stakes.empty()
          ? mh::consensus::StakeRegistry::uniform(config.honest_parties, config.adversarial_stake)
          : mh::consensus::StakeRegistry(config.honest_stakes, config.adversarial_stake);
  for (const mh::consensus::StakeShiftSpec& spec : config.shifts) registry.add_shift(spec);
  const mh::consensus::EpochSchedule schedule(config.consensus, std::move(registry),
                                              config.horizon, rng());
  times.schedule_ns += ns_since(start);

  start = Clock::now();
  RunConfig proxy;
  proxy.target_slot = config.target_slot;
  proxy.k = config.k;
  const std::unique_ptr<mh::Adversary> adversary =
      mh::oracle::make_strategy(config.strategy, proxy, rng());
  const TimedSchedule timed(schedule);
  mh::Simulation sim(timed, mh::SimulationConfig{config.tie_break, rng()}, config.delta,
                     adversary.get());
  simulate(sim, config.target_slot, config.k, config.horizon, verdict);
  const mh::LeaderSchedule realized = schedule.realized();
  times.simulate_ns += ns_since(start);
  times.eligible_calls += timed.eligible_calls();
  times.eligible_replay += timed.replay_sampled_eligible(kEligibleReplays);
  times.advance += timed.advance();
  times.epochs += schedule.materialized_epochs();

  grade_projection_phases(realized, config.delta, config.target_slot, config.k, sim.all_blocks(),
                          verdict, times);
  return verdict;
}

/// The library's own verdict for the same job and stream.
RunVerdict library_verdict(const Job& job) {
  mh::Rng rng(job.stream_seed);
  if (job.face == Face::Epoch) return mh::oracle::check_epoch_execution(job.epoch, rng).run;
  return mh::oracle::check_execution(job.run, rng, job.face == Face::Fault ? &job.plan : nullptr);
}

Result run_untraced(const Args& args) {
  Result result;
  std::vector<double> setup_s, wall_s;
  std::string first_codes;
  std::size_t jobs_per_batch = 0;
  double timed_s = 0.0;  // batches after the first, which warms the arenas
  const Clock::time_point budget_start = Clock::now();
  while (wall_s.size() < 3 || seconds_since(budget_start) < args.seconds) {
    const Clock::time_point setup_start = Clock::now();
    const std::vector<Job> jobs = build_jobs(args.seed);
    setup_s.push_back(seconds_since(setup_start));
    double wall = 0.0;
    const std::string codes = grade_batch(jobs, &wall);
    if (!wall_s.empty()) timed_s += wall;
    wall_s.push_back(wall);
    if (first_codes.empty()) first_codes = codes;
    jobs_per_batch = jobs.size();
    result.attempted += jobs.size();
    for (std::size_t i = 0; i < codes.size(); ++i)
      if (codes[i] == '!' || codes[i] != first_codes[i]) ++result.failed;
  }
  std::size_t tally[256] = {};
  for (const char c : first_codes) ++tally[static_cast<unsigned char>(c)];
  const double verdicts_per_s =
      static_cast<double>(jobs_per_batch * (wall_s.size() - 1)) / timed_s;
  std::printf("oracle_band: %zu graded executions per batch, %zu batches, %zu threads\n",
              jobs_per_batch, wall_s.size(), kEngineThreads);
  std::printf("oracle_band: codes . %zu  a %zu  V %zu  d %zu  u %zu  ! %zu\n", tally['.'],
              tally['a'], tally['V'], tally['d'], tally['u'], tally['!']);
  std::printf("oracle_band: verdicts_per_s %.1f (batch s: q1 %.4f median %.4f q3 %.4f), "
              "setup_s %.6f\n",
              verdicts_per_s, percentile(wall_s, 0.25), median(wall_s), percentile(wall_s, 0.75),
              median(setup_s));
  add_end_to_end(result, verdicts_per_s, median(setup_s));
  return result;
}

Result run_traced(const Args& args) {
  Result result;
  const std::vector<Job> jobs = build_jobs(args.seed);
  const std::size_t n = jobs.size();
  std::vector<double> untraced_s, traced_s, busy_frac, tail_ms;
  PhaseTimes total;
  std::uint64_t degraded = 0, unbounded = 0, faulted = 0, injected = 0, resync = 0;
  bool guard_ok = true;
  std::size_t batches = 0;
  const Clock::time_point budget_start = Clock::now();
  do {
    // Untraced batch with one span per job: engine utilisation and the
    // tracing-overhead reference.
    std::vector<std::uint64_t> job_ns(n, 0);
    double wall = 0.0;
    const std::string codes = grade_batch(jobs, &wall, &job_ns);
    for (const char c : codes)
      if (c == '!') ++result.failed;
    std::uint64_t busy_ns = 0;
    for (const std::uint64_t ns : job_ns) busy_ns += ns;
    const double threads = static_cast<double>(kEngineThreads);
    busy_frac.push_back(1e-9 * static_cast<double>(busy_ns) / (threads * wall));
    tail_ms.push_back(1e3 * (wall - 1e-9 * static_cast<double>(busy_ns) / threads));
    untraced_s.push_back(wall);

    // Phase-split batch.
    std::vector<PhaseTimes> times(n);
    std::vector<RunVerdict> verdicts(n);
    const Clock::time_point start = Clock::now();
    mh::engine::for_each_index(n, kEngineThreads, [&](std::size_t i) {
      verdicts[i] = jobs[i].face == Face::Epoch ? grade_epoch_phases(jobs[i], times[i])
                                                : grade_run_phases(jobs[i], times[i]);
    });
    traced_s.push_back(seconds_since(start));

    // Guard batch: the library's verdicts for the same streams.
    std::vector<char> equal(n, 0);
    mh::engine::for_each_index(n, kEngineThreads, [&](std::size_t i) {
      equal[i] = library_verdict(jobs[i]) == verdicts[i] ? 1 : 0;
    });
    for (std::size_t i = 0; i < n; ++i) {
      guard_ok = guard_ok && equal[i] == 1;
      const PhaseTimes& t = times[i];
      total.schedule_ns += t.schedule_ns;
      total.simulate_ns += t.simulate_ns;
      total.project_ns += t.project_ns;
      total.validate_ns += t.validate_ns;
      total.reduce_ns += t.reduce_ns;
      total.eligible_calls += t.eligible_calls;
      total.eligible_replay += t.eligible_replay;
      total.advance += t.advance;
      total.epochs += t.epochs;
      const RunVerdict& v = verdicts[i];
      degraded += v.degraded ? 1 : 0;
      unbounded += v.delta_unbounded ? 1 : 0;
      if (v.faulted) {
        ++faulted;
        injected += v.faults_injected;
        resync += v.resync_blocks;
      }
    }
    result.attempted += n;
    ++batches;
  } while (seconds_since(budget_start) < args.seconds);

  if (!report_guard("phase_split_verdict == check_execution_verdict", guard_ok)) ++result.failed;
  report_tracing_overhead(median(untraced_s), median(traced_s));
  std::printf("oracle_band: %zu traced batches of %zu executions\n", batches, n);

  LayerMetrics layers;
  const auto per_run_us = [&](std::uint64_t ns) {
    return 1e-3 * static_cast<double>(ns) / static_cast<double>(result.attempted);
  };
  const auto per_batch = [&](std::uint64_t count) {
    return static_cast<double>(count) / static_cast<double>(batches);
  };
  const auto per_faulted = [&](std::uint64_t count) {
    return faulted == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(faulted);
  };
  if (guard_ok) {
    layers.set("oracle.schedule_us", per_run_us(total.schedule_ns));
    layers.set("oracle.simulate_us", per_run_us(total.simulate_ns));
    layers.set("oracle.project_us", per_run_us(total.project_ns));
    layers.set("oracle.validate_us", per_run_us(total.validate_ns));
    layers.set("oracle.reduce_us", per_run_us(total.reduce_ns));
    layers.set("oracle.degraded_runs", per_batch(degraded));
    layers.set("oracle.unbounded_runs", per_batch(unbounded));
    layers.set("faults.injected_per_run", per_faulted(injected));
    layers.set("faults.resync_blocks_per_run", per_faulted(resync));
    layers.set("schedule.eligible_calls", per_batch(total.eligible_calls));
    layers.set("schedule.ns_per_eligible", total.eligible_replay.ns_per_call());
    layers.set("schedule.advance_us_per_epoch",
               total.epochs == 0 ? 0.0
                                 : 1e-3 * static_cast<double>(total.advance.ns) /
                                       static_cast<double>(total.epochs));
  }
  layers.set("engine.busy_frac", median(busy_frac));
  layers.set("engine.tail_ms", median(tail_ms));
  layers.append_to(result);
  return result;
}

}  // namespace

Result run_oracle_band(const Args& args) {
  return args.trace ? run_traced(args) : run_untraced(args);
}

}  // namespace perfbench
