// The runtime query side of a FaultPlan: Network and Simulation consult a
// FaultInjector at every transport decision point. All link-level randomness
// is counter-based (an engine::SeedSequence stream in the LinkFault domain,
// keyed on (slot, sender, recipient)), so a verdict is a pure function of the
// plan — independent of query order, repetition, and thread count.
//
// The injector also owns the execution's fault accounting (FaultStats): the
// transport and the driver report drops, wipes and re-ships here so the
// oracle and the benches can audit recovery with metric recording off.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/seed_sequence.hpp"
#include "protocol/faults/plan.hpp"
#include "protocol/leader.hpp"

namespace mh::faults {

/// The per-ship decision for one honest (sender, recipient, slot) link.
struct LinkVerdict {
  bool drop = false;
  bool duplicate = false;
  std::size_t extra_delay = 0;  ///< slots beyond the adversarial hold-back
};

/// Execution-wide fault accounting (plain counters, kept whether or not obs
/// recording is switched on). One injector serves one execution, so these
/// are that execution's totals.
struct FaultStats {
  std::size_t ships_dropped = 0;      ///< chain-ships lost to partitions/links/down
  std::size_t ships_duplicated = 0;   ///< duplicated tip deliveries
  std::size_t ships_delayed = 0;      ///< deliveries pushed past the hold-back
  std::size_t crashes = 0;            ///< crash events applied
  std::size_t restarts = 0;           ///< restart events applied
  std::size_t partitions_healed = 0;  ///< heal events applied
  std::size_t resync_blocks = 0;      ///< blocks re-shipped by heal/restart re-sync
  std::size_t coverage_invalidated = 0;  ///< transport coverage entries wiped by crashes
  std::size_t leaderships_skipped = 0;   ///< honest leaderships lost to down-time

  /// Total perturbations actually applied to the execution.
  [[nodiscard]] std::size_t injected() const noexcept {
    return ships_dropped + ships_duplicated + ships_delayed + crashes + restarts;
  }

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

class FaultInjector {
 public:
  /// Validates the plan against (parties, horizon) on construction.
  FaultInjector(const FaultPlan& plan, std::size_t parties, std::size_t horizon);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }
  [[nodiscard]] std::size_t horizon() const noexcept { return horizon_; }

  /// Is any fault able to touch slot `slot`? While true the transport sends
  /// link by link and never advances its all-recipient coverage bound (a
  /// round whose ships may be dropped or delayed per link covers no one for
  /// sure).
  [[nodiscard]] bool window_active(std::size_t slot) const noexcept;

  /// Is `party` crashed at `slot` (some down-window [crash, restart) covers it)?
  [[nodiscard]] bool is_down(PartyId party, std::size_t slot) const noexcept;

  /// Is some party crashed at `slot`?
  [[nodiscard]] bool any_down(std::size_t slot) const noexcept;

  /// Number of slots in [lo, hi] (inclusive) during which `party` is down.
  /// Observed-Delta discounts exactly these: a crashed endpoint cannot
  /// receive, but every UP slot the block went undelivered is the network's.
  [[nodiscard]] std::size_t down_slots_in(PartyId party, std::size_t lo,
                                          std::size_t hi) const noexcept;

  /// Is the honest link sender->recipient severed by an active partition?
  /// Adversarial channels (sender == kAdversary) are never severed: the
  /// coalition keeps links into every component (the conservative model).
  [[nodiscard]] bool severed(PartyId sender, PartyId recipient, std::size_t slot) const noexcept;

  /// The loss/dup/extra-delay draw for one honest chain-ship. Pure in
  /// (plan.seed, slot, sender, recipient).
  [[nodiscard]] LinkVerdict link_verdict(PartyId sender, PartyId recipient,
                                         std::size_t slot) const noexcept;

  /// Parties whose crash window begins exactly at `slot`.
  void crashes_at(std::size_t slot, std::vector<PartyId>* out) const;
  /// Parties whose restart lands exactly at `slot`.
  void restarts_at(std::size_t slot, std::vector<PartyId>* out) const;
  /// Number of partitions healing exactly at `slot`.
  [[nodiscard]] std::size_t heals_at(std::size_t slot) const noexcept;
  /// Partitions active at `slot` (the obs gauge).
  [[nodiscard]] std::size_t partitions_active(std::size_t slot) const noexcept;

  /// The schedule actually realizable under this plan: honest leaders whose
  /// slot falls inside a down-window are removed (they never forge), so the
  /// characteristic string the oracle projects matches the realized block
  /// set. Adversarial leaderships are untouched.
  [[nodiscard]] LeaderSchedule effective_schedule(const ScheduleSource& schedule) const;

  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }
  [[nodiscard]] FaultStats& stats() noexcept { return stats_; }

 private:
  FaultPlan plan_;
  std::size_t parties_;
  std::size_t horizon_;
  engine::SeedSequence link_streams_;
  FaultStats stats_;
};

}  // namespace mh::faults
