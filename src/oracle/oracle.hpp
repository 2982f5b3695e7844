// The differential consistency oracle: run one protocol execution and one
// analytic replay of the same leader schedule, and check the paper's
// domination invariants between them.
//
// Per execution the oracle asserts, in order of strength:
//
//   1. refinement   - the execution's block set, relabeled through the
//                     Delta-reduction bijection (Proposition 3), is a valid
//                     synchronous fork for the reduced string (axioms F1-F4);
//   2. margin       - the relative margin of that fork at the target
//                     decomposition never exceeds the Theorem-5 recurrence
//                     value (the recurrence is the max over ALL valid forks);
//   3. domination   - if the simulated adversary achieved a k-settlement
//                     violation, the analytic margin trajectory permits one
//                     (mu_{x'}(y'_j) >= 0 somewhere); a string whose margin
//                     forbids violations can never produce a simulated one.
//
// All three are exact statements (no tolerance, no sampling error), so a
// single counterexample is a genuine bug in either the simulator or the
// analytic stack - which is precisely what a differential oracle is for.
//
// Faulted and heterogeneous executions (a FaultPlan, or a non-degenerate
// RunConfig.net: gossip topology, per-link latency, bandwidth caps) grade
// through the Simulation's DeliveryAudit. The projection runs at the
// execution's OBSERVED Delta (the max realized honest adoption delay outside
// crash shadows; on gossip shapes inflated for honest blocks still undelivered
// when the run ends, so the projection window stays open) against the
// EFFECTIVE schedule (down leaders forge nothing, so their leaderships leave
// the characteristic string):
//
//   * observed Delta <= configured Delta: the run is a legitimate
//     Delta-execution and every invariant above must hold unchanged;
//   * observed Delta beyond the bound: the run is flagged `degraded` (never a
//     silent pass) and re-projected at the observed Delta — the reduction is
//     defined for every finite Delta, so graceful degradation is itself an
//     invariant (code 'd' when it holds, '!' when it does not);
//   * some honest block never delivered at all (an unhealed lockstep
//     partition): no finite Delta describes the run; it is flagged unchecked
//     (code 'u'). Gossip shapes are strongly connected by construction, so
//     there non-delivery is lateness, not partition, and never 'u'.
//
// Both oracle faces (this one and the epoch face in oracle/epoch) run one
// recipe: the caller draws the schedule, then the strategy seed and the
// simulation seed follow from the same stream, and the audit and the
// projection above grade the run.
#pragma once

#include <cstdint>
#include <memory>

#include "oracle/characteristic.hpp"
#include "protocol/adversary.hpp"
#include "protocol/faults/plan.hpp"
#include "protocol/net/config.hpp"

namespace mh::oracle {

/// The simulated strategies the oracle drives against the analytic side.
enum class Strategy : std::uint8_t { PrivateChain = 0, Balance = 1, Randomized = 2 };

const char* strategy_name(Strategy s) noexcept;

/// The attack geometry both oracle faces share.
struct RunRecipe {
  TieBreak tie_break = TieBreak::AdversarialOrder;
  Strategy strategy = Strategy::PrivateChain;
  std::size_t delta = 0;
  std::size_t target_slot = 2;  ///< the slot whose settlement is attacked
  std::size_t k = 6;            ///< confirmation depth of the settlement watch
  std::size_t horizon = 48;
  std::size_t honest_parties = 6;
};

/// One scenario-cell execution; `law` draws the leader schedule.
struct RunConfig : RunRecipe {
  TetraLaw law;
  net::NetConfig net{};  ///< network shape; default = degenerate lockstep
};

/// The oracle's verdict on a single execution. All fields are pure functions
/// of (config, rng stream), so verdicts are bit-identical across thread
/// counts when the streams are counter-based.
struct RunVerdict {
  bool simulated_violation = false;  ///< watch fired or public fork tied
  bool analytic_allows = false;      ///< margin >= 0 somewhere in the window
  bool fork_valid = false;           ///< relabeled execution fork passes F1-F4
  bool margin_dominated = false;     ///< fork margin <= recurrence margin
  std::int64_t fork_margin = 0;      ///< mu_{x'} of the relabeled execution fork
  std::int64_t string_margin = 0;    ///< mu_{x'}(y') of the recurrence, full suffix

  // Fault / network audit (all false/0 for un-faulted degenerate executions).
  bool faulted = false;           ///< a FaultPlan perturbed this execution
  bool heterogeneous = false;     ///< a non-degenerate NetConfig shaped the transport
  bool degraded = false;          ///< observed Delta exceeded the configured bound
  bool delta_unbounded = false;   ///< an honest block was never delivered at all
  bool recovery_checked = false;  ///< degraded run re-projected at observed Delta
  std::uint32_t observed_delta = 0;   ///< max realized honest delay (counted)
  std::uint32_t resync_blocks = 0;    ///< blocks re-shipped by heal/restart re-sync
  std::uint32_t faults_injected = 0;  ///< drops + dups + delays + crash/restart events

  /// The domination invariant: no violation on a margin-forbidden string.
  /// For a degraded (recovery-checked) run the fields hold the observed-Delta
  /// projection, so this doubles as the graceful-degradation invariant.
  [[nodiscard]] bool dominated() const noexcept {
    return (!simulated_violation || analytic_allows) && fork_valid && margin_dominated;
  }

  /// Compact encoding for golden pinning: '.' quiet, 'a' margin allows but no
  /// simulated violation, 'V' simulated violation (analytic side agrees),
  /// '!' any invariant breach; faulted out-of-bound runs report 'd' (degraded
  /// gracefully: observed-Delta projection holds) or 'u' (unbounded observed
  /// Delta, projection undefined) — never a silent pass.
  [[nodiscard]] char code() const noexcept;

  friend bool operator==(const RunVerdict&, const RunVerdict&) = default;
};

/// Instantiates the simulated strategy for a cell (seed feeds Randomized).
std::unique_ptr<Adversary> make_strategy(Strategy strategy, const RunRecipe& recipe,
                                         std::uint64_t seed);

/// Runs one seeded execution of `config` and both sides of the oracle. With a
/// FaultPlan the execution is perturbed and audited as documented above; a
/// null plan leaves every code path (and every rng draw) exactly as before.
RunVerdict check_execution(const RunConfig& config, Rng& rng,
                           const faults::FaultPlan* plan = nullptr);

}  // namespace mh::oracle
