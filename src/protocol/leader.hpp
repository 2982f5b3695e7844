// Leader schedules. A LeaderSchedule is drawn at the symbol level: one
// characteristic symbol per slot from a SymbolLaw / TetraLaw, materialized as
// leaders (h -> one honest party, H -> several, A -> the adversarial
// coalition). It is a fully pre-drawn, public (full-information) schedule the
// adversary reads in its entirety.
//
// The party-level Praos lottery, in which every party independently wins a
// slot with probability phi(stake) = 1 - (1 - f)^stake, lives in the
// epoch-managed consensus layer (protocol/consensus): SlotLeaderSelection
// draws it and consensus::induced_law gives its analytic (pBot, ph, pH, pA)
// law. Its EpochSchedule is a ScheduleSource whose slots are revealed per
// epoch, with the epoch nonce folded from the chain itself, behind the
// interface below, so the execution driver is agnostic to where leaderships
// come from.
#pragma once

#include <vector>

#include "chars/bernoulli.hpp"
#include "delta/semi_sync.hpp"
#include "protocol/block.hpp"
#include "support/random.hpp"

namespace mh {

class BlockTree;

struct SlotLeaders {
  std::vector<PartyId> honest;  ///< honest leaders of the slot (possibly several)
  bool adversarial = false;     ///< the coalition holds at least one leadership

  /// Does `party` (kAdversary for the coalition) lead this slot?
  [[nodiscard]] bool includes(PartyId party) const noexcept;
};

/// The slot's Definition-20 symbol: A when the coalition leads, else Bot, h
/// or H by the number of honest leaders.
[[nodiscard]] TetraSymbol slot_symbol(const SlotLeaders& leaders) noexcept;

/// Slot 0 is genesis: it is never issued, so it has no leaders. Shared by
/// every schedule implementation so leaders(0) and eligible(party, 0) agree.
[[nodiscard]] const SlotLeaders& genesis_slot_leaders() noexcept;

/// Where the execution driver reads leaderships from. A source is logically
/// immutable — the slots it reveals are a pure function of its construction
/// seed (and, for epoch-driven sources, of the chain feedback the driver
/// supplies via advance_to) — so all queries are const; lazily-materializing
/// implementations memoize behind that interface.
class ScheduleSource {
 public:
  virtual ~ScheduleSource() = default;

  [[nodiscard]] virtual std::size_t horizon() const noexcept = 0;
  [[nodiscard]] virtual std::size_t honest_parties() const noexcept = 0;

  /// Leaders of `slot`. Slot 0 is genesis and returns the empty leader set
  /// (matching eligible(party, 0) == false); slots past the horizon throw.
  [[nodiscard]] virtual const SlotLeaders& leaders(std::size_t slot) const = 0;

  /// Is `party` an eligible issuer for `slot`? (The simulated signature
  /// check.) False for slot 0 (genesis) and past the horizon.
  [[nodiscard]] virtual bool eligible(PartyId party, std::size_t slot) const = 0;

  /// Chain feedback for epoch-driven sources: the driver calls this at every
  /// slot onset BEFORE the slot's deliveries, handing over the public view,
  /// so an epoch opening at `slot` folds its nonce from the chain exactly as
  /// of the previous slot's close. Pre-drawn schedules ignore it.
  virtual void advance_to(std::size_t /*slot*/, const BlockTree& /*public_view*/) const {}
};

class LeaderSchedule : public ScheduleSource {
 public:
  LeaderSchedule(std::vector<SlotLeaders> slots, std::size_t honest_parties);

  /// Symbol-level generation: multiply honest slots elect exactly two distinct
  /// honest parties (the minimal realization of H; more leaders only help the
  /// adversary, cf. the settlement game granting A the choice of multiplicity).
  /// Laws with pH > 0 require honest_parties >= 2, checked here (naming the
  /// law and the party count) rather than aborting mid-generation.
  static LeaderSchedule from_tetra_law(const TetraLaw& law, std::size_t horizon,
                                       std::size_t honest_parties, Rng& rng);
  /// from_tetra_law with pBot = 0: the same draws, slot for slot.
  static LeaderSchedule from_symbol_law(const SymbolLaw& law, std::size_t horizon,
                                        std::size_t honest_parties, Rng& rng);

  [[nodiscard]] std::size_t horizon() const noexcept override { return slots_.size(); }
  [[nodiscard]] std::size_t honest_parties() const noexcept override { return honest_parties_; }
  [[nodiscard]] const SlotLeaders& leaders(std::size_t slot) const override;

  /// Is `party` an eligible issuer for `slot`? (The simulated signature check.)
  [[nodiscard]] bool eligible(PartyId party, std::size_t slot) const override;

  /// The characteristic string of the schedule (Definition 20 view).
  [[nodiscard]] TetraString characteristic() const;
  /// The synchronous {h,H,A} view; requires no empty slots.
  [[nodiscard]] CharString characteristic_sync() const;

 private:
  std::vector<SlotLeaders> slots_;  // index 0 <-> slot 1
  std::size_t honest_parties_;
};

}  // namespace mh
