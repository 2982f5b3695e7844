// EpochSchedule: the epoch-managed, stake-weighted ScheduleSource that
// replaces the pre-drawn characteristic string with production-style leader
// election.
//
// Slots are revealed one epoch at a time. When the driver's slot loop first
// reaches an epoch boundary (ScheduleSource::advance_to, called at the slot
// onset BEFORE deliveries), the schedule
//
//   1. folds the epoch nonce from the public view's canonical chain
//      (EpochManager::fold_nonce — genesis mix for epoch 0, the previous
//      epoch's nonce-window blocks afterwards);
//   2. advances the stake registry across the boundary, applying the
//      declarative StakeShiftSpecs due at this epoch;
//   3. draws every slot of the epoch through SlotLeaderSelection — one
//      counter-based stream per (nonce, slot, party), so the epoch's slots
//      are a pure function of (seed, nonce, stake snapshot) no matter who
//      asks, in what order, on how many threads.
//
// The schedule is logically immutable — everything it reveals is determined
// by (seed, chain feedback) — so materialization memoizes behind const
// (single-writer: the driver's slot loop is serial; one Simulation is never
// shared across threads).
//
// Grading surface: every materialized epoch records its nonce and stake
// snapshot; epoch_induced_law projects the snapshot to the i.i.d. TetraLaw
// the oracle cross-validates (induced_law, the repo's one analytic law of the
// party-level lottery), and realized() snapshots the
// materialized prefix as a plain LeaderSchedule for the Definition-22
// projection and the fault layer.
#pragma once

#include <cstdint>
#include <vector>

#include "protocol/consensus/epoch.hpp"
#include "protocol/consensus/leader_select.hpp"
#include "protocol/consensus/stake.hpp"
#include "protocol/leader.hpp"

namespace mh::consensus {

struct ConsensusConfig {
  double f = 0.5;  ///< active-slot coefficient of the lottery
  EpochConfig epoch{};

  void validate() const;

  friend bool operator==(const ConsensusConfig&, const ConsensusConfig&) = default;
};

/// The i.i.d. characteristic law induced by one stake snapshot: every honest
/// party wins independently at phi(share), the coalition at
/// phi(adversarial_share). Evaluated in log space (the products of per-party
/// survival probabilities collapse to exp(sum shares * log1p(-f))), so
/// committee-scale share vectors keep full precision.
[[nodiscard]] TetraLaw induced_law(double f, const std::vector<double>& honest_shares,
                                   double adversarial_share);

class EpochSchedule final : public ScheduleSource {
 public:
  /// The registry is taken by value: the schedule owns its stake trajectory
  /// (shifts included), keeping a run's consensus state self-contained.
  EpochSchedule(ConsensusConfig config, StakeRegistry registry, std::size_t horizon,
                std::uint64_t seed);

  // --- ScheduleSource ------------------------------------------------------
  [[nodiscard]] std::size_t horizon() const noexcept override { return horizon_; }
  [[nodiscard]] std::size_t honest_parties() const noexcept override {
    return registry_.honest_parties();
  }
  /// Leaders of a materialized slot; slot 0 is genesis (empty leader set),
  /// slots past the horizon throw, and slots of an epoch that has not been
  /// revealed yet throw naming the frontier (epoch-driven schedules cannot be
  /// read ahead of the chain that seeds them).
  [[nodiscard]] const SlotLeaders& leaders(std::size_t slot) const override;
  [[nodiscard]] bool eligible(PartyId party, std::size_t slot) const override;
  void advance_to(std::size_t slot, const BlockTree& public_view) const override;

  // --- grading surface -----------------------------------------------------
  [[nodiscard]] const ConsensusConfig& config() const noexcept { return config_; }
  [[nodiscard]] const EpochManager& epochs() const noexcept { return manager_; }
  [[nodiscard]] const StakeRegistry& registry() const noexcept { return registry_; }
  /// Epochs intersecting [1, horizon] (the grading cell count).
  [[nodiscard]] std::size_t epoch_count() const noexcept {
    return manager_.epochs_covering(horizon_);
  }
  [[nodiscard]] std::size_t materialized_epochs() const noexcept { return records_.size(); }
  [[nodiscard]] std::size_t materialized_slots() const noexcept { return slots_.size(); }

  /// Nonce / stake snapshot / induced law of a materialized epoch.
  [[nodiscard]] std::uint64_t epoch_nonce(std::size_t epoch) const;
  [[nodiscard]] const std::vector<double>& epoch_honest_shares(std::size_t epoch) const;
  [[nodiscard]] TetraLaw epoch_induced_law(std::size_t epoch) const;

  /// The materialized prefix as a pre-drawn schedule (for project_schedule,
  /// effective_schedule, and everything else written against LeaderSchedule).
  [[nodiscard]] LeaderSchedule realized() const;

 private:
  struct EpochRecord {
    std::uint64_t nonce = 0;
    std::vector<double> honest_shares;
    double adversarial_share = 0.0;
  };

  void open_epoch(const BlockTree& public_view) const;
  const EpochRecord& record(std::size_t epoch) const;

  ConsensusConfig config_;
  mutable StakeRegistry registry_;
  std::size_t horizon_;
  EpochManager manager_;
  SlotLeaderSelection selection_;
  mutable std::vector<EpochRecord> records_;  ///< one per materialized epoch
  mutable std::vector<SlotLeaders> slots_;    ///< materialized prefix, index 0 <-> slot 1
};

}  // namespace mh::consensus
