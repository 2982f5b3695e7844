// The oracle scenario matrix: every combination of tie-breaking axiom,
// network delay, adversarial strategy, and stake law runs as an independent
// cell, fanned across the experiment engine's pool. A cell is a pure function
// of (matrix seed, cell index): its executions draw from counter-based
// streams of the cell's derived seed, so every verdict - counts, bands, the
// pinned first-run code - is bit-for-bit identical for any thread count.
//
// Besides the per-execution domination invariants (oracle.hpp), each cell
// cross-validates the stochastic layer:
//
//   * the Monte-Carlo of the Theorem-5 recurrence on the cell's reduced law
//     must contain the exact Section-6.6 DP value P(k) within its
//     Clopper-Pearson band (exact coverage, no normal approximation);
//   * the protocol-level violation frequency must stay below the analytic
//     ceiling Pr[exists j >= 1: mu >= 0] (the optimal adversary's eventual
//     insecurity), again by Clopper-Pearson lower bound.
#pragma once

#include <string>
#include <vector>

#include "oracle/oracle.hpp"
#include "support/stats.hpp"

namespace mh::oracle {

struct NamedLaw {
  std::string name;
  TetraLaw law;
};

/// The axes of a matrix; its laws are always default_matrix_laws().
struct MatrixConfig {
  std::vector<TieBreak> tie_breaks{TieBreak::AdversarialOrder, TieBreak::ConsistentHash};
  std::vector<std::size_t> deltas{0, 1, 2};
  std::vector<Strategy> strategies{Strategy::PrivateChain, Strategy::Balance,
                                   Strategy::Randomized};
  /// The fault band: one matrix copy per profile, outermost axis. The default
  /// single None keeps the pre-fault index geometry, cell seeds and golden
  /// pins bit-identical. Faulted cells draw one FaultPlan per run from a
  /// stream disjoint from the execution's, so a None cell consumes exactly
  /// the draws it always did.
  std::vector<faults::FaultProfile> fault_profiles{faults::FaultProfile::None};

  std::size_t target_slot = 2;
  std::size_t k = 6;
  std::size_t horizon = 48;
  std::size_t honest_parties = 6;
  std::size_t runs = 24;          ///< executions per cell
  std::size_t mc_samples = 2000;  ///< recurrence Monte-Carlo per cell
  std::uint64_t seed = 2027;
  std::size_t threads = 0;  ///< engine parallelism over cells; 0 = hardware
};

/// One cell's aggregated verdict; all counts are over `runs` executions.
struct CellVerdict {
  // Axes (echoed so a verdict is self-describing).
  TieBreak tie_break = TieBreak::AdversarialOrder;
  std::size_t delta = 0;
  Strategy strategy = Strategy::PrivateChain;
  std::size_t law_index = 0;
  faults::FaultProfile fault_profile = faults::FaultProfile::None;

  // Execution tallies.
  std::size_t runs = 0;
  std::size_t simulated_violations = 0;  ///< protocol-level k-settlement breaches
  std::size_t analytic_allowed = 0;      ///< strings whose margin permits one
  std::size_t domination_failures = 0;   ///< violation on a margin-forbidden string
  std::size_t fork_invalid = 0;          ///< relabeled fork failed (F1)-(F4)
  std::size_t margin_breaches = 0;       ///< fork margin above the recurrence
  char first_run = '?';                  ///< RunVerdict::code() of execution 0

  // Stochastic cross-checks (skipped when the reduced law loses honest
  // majority: the DP is trivially 1 there and the MC start diverges).
  double reduced_epsilon = 0.0;
  long double exact_pk = 1.0L;          ///< exact DP violation probability at k
  long double analytic_ceiling = 1.0L;  ///< eventual insecurity, j >= 1
  Proportion recurrence_mc;             ///< Clopper-Pearson band of the MC at k
  bool mc_checked = false;
  bool mc_within_band = true;
  bool protocol_within_ceiling = true;

  // Fault-band tallies (all zero in a None cell). Degraded runs leave the
  // domination buckets above (which then cover exactly the within-bound runs)
  // and land here: flagged, and — when a finite observed Delta exists — held
  // to the invariants at that Delta instead.
  std::size_t degraded_runs = 0;       ///< observed Delta pushed past the bound
  std::size_t degraded_unchecked = 0;  ///< unbounded observed Delta: flag only
  std::size_t recovery_failures = 0;   ///< observed-Delta projection failed
  std::size_t max_observed_delta = 0;  ///< max finite observed Delta over runs
  std::size_t resync_blocks = 0;       ///< total re-sync re-ships over runs
  std::size_t faults_injected = 0;     ///< total perturbations over runs
  std::size_t first_failure_run = SIZE_MAX;  ///< run index of the reproducer below
  std::string first_failure_plan;      ///< serialized FaultPlan of the first dirty run

  [[nodiscard]] bool clean() const noexcept {
    return domination_failures == 0 && fork_invalid == 0 && margin_breaches == 0 &&
           recovery_failures == 0 && mc_within_band && protocol_within_ceiling;
  }

  friend bool operator==(const CellVerdict&, const CellVerdict&) = default;
};

struct MatrixResult {
  /// Row-major in (fault, tie, delta, strategy, law); with the default single
  /// None profile this is the historical (tie, delta, strategy, law) layout.
  std::vector<CellVerdict> cells;

  [[nodiscard]] std::size_t total_runs() const noexcept;
  [[nodiscard]] std::size_t total_violations() const noexcept;
  [[nodiscard]] std::size_t total_domination_failures() const noexcept;
  [[nodiscard]] std::size_t total_fork_invalid() const noexcept;
  [[nodiscard]] std::size_t total_margin_breaches() const noexcept;
  [[nodiscard]] std::size_t total_degraded() const noexcept;
  [[nodiscard]] std::size_t total_recovery_failures() const noexcept;
  [[nodiscard]] std::size_t total_resync_blocks() const noexcept;
  [[nodiscard]] bool all_clean() const noexcept;
};

/// The two stock laws of the default matrix: a sparse semi-synchronous
/// honest-majority law (non-trivial at every Delta in {0,1,2}) and a dense
/// multiply-honest-heavy law (the Theorem-2 separation workload).
std::vector<NamedLaw> default_matrix_laws();

/// Flat index of a cell in MatrixResult::cells (`fault_i` indexes
/// config.fault_profiles; the default band has only index 0).
std::size_t cell_index(const MatrixConfig& config, std::size_t tie_i, std::size_t delta_i,
                       std::size_t strategy_i, std::size_t law_i, std::size_t fault_i = 0);

/// The chaos band: every fault profile (None baseline included) over a
/// trimmed axis set sized for CI sanitizer runs — partitions and churn need
/// Delta >= 1 to have a within-bound side, and two strategies suffice to
/// exercise both the dedicated attacker and the fuzzing adversary.
MatrixConfig fault_band_config();

/// Runs the full matrix; cells fan across engine::for_each_index.
MatrixResult run_scenario_matrix(const MatrixConfig& config);

/// The concatenated first-run codes of all cells (the golden seed-stability
/// fingerprint: any RNG or simulator drift shows up here immediately).
std::string first_run_codes(const MatrixResult& result);

}  // namespace mh::oracle
