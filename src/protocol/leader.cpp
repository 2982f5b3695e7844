#include "protocol/leader.hpp"

#include <cstdio>

#include "support/check.hpp"

namespace mh {

TetraSymbol slot_symbol(const SlotLeaders& leaders) noexcept {
  if (leaders.adversarial) return TetraSymbol::A;
  if (leaders.honest.empty()) return TetraSymbol::Bot;
  return leaders.honest.size() == 1 ? TetraSymbol::h : TetraSymbol::H;
}

bool SlotLeaders::includes(PartyId party) const noexcept {
  if (party == kAdversary) return adversarial;
  for (PartyId p : honest)
    if (p == party) return true;
  return false;
}

const SlotLeaders& genesis_slot_leaders() noexcept {
  static const SlotLeaders kGenesis{};
  return kGenesis;
}

LeaderSchedule::LeaderSchedule(std::vector<SlotLeaders> slots, std::size_t honest_parties)
    : slots_(std::move(slots)), honest_parties_(honest_parties) {
  MH_REQUIRE(honest_parties_ >= 1);
}

namespace {

PartyId random_party(std::size_t honest_parties, Rng& rng) {
  return static_cast<PartyId>(rng.below(honest_parties));
}

std::string law_text(double ph, double pH, double pA) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "law (ph=%g, pH=%g, pA=%g)", ph, pH, pA);
  return buf;
}

/// Entry-point check of the generator: a law that can draw H slots
/// needs two distinct honest parties to materialize them. Checked up front —
/// naming the law and the party count — instead of aborting mid-generation
/// when the first H happens to be sampled.
void require_parties_for(double ph, double pH, double pA, std::size_t honest_parties) {
  MH_REQUIRE_MSG(honest_parties >= 1,
                 law_text(ph, pH, pA) + " needs at least one honest party, got 0");
  if (pH > 0.0)
    MH_REQUIRE_MSG(honest_parties >= 2,
                   law_text(ph, pH, pA) +
                       " draws multiply-honest (H) slots, which need two distinct honest "
                       "parties; got honest_parties = " +
                       std::to_string(honest_parties));
}

SlotLeaders materialize(TetraSymbol symbol, std::size_t honest_parties, Rng& rng) {
  SlotLeaders leaders;
  switch (symbol) {
    case TetraSymbol::Bot: break;
    case TetraSymbol::A: leaders.adversarial = true; break;
    case TetraSymbol::h: leaders.honest.push_back(random_party(honest_parties, rng)); break;
    case TetraSymbol::H: {
      MH_REQUIRE_MSG(honest_parties >= 2, "an H slot needs two distinct honest parties");
      const PartyId first = random_party(honest_parties, rng);
      PartyId second = first;
      while (second == first) second = random_party(honest_parties, rng);
      leaders.honest.push_back(first);
      leaders.honest.push_back(second);
      break;
    }
  }
  return leaders;
}

}  // namespace

LeaderSchedule LeaderSchedule::from_tetra_law(const TetraLaw& law, std::size_t horizon,
                                              std::size_t honest_parties, Rng& rng) {
  law.validate();
  require_parties_for(law.ph, law.pH, law.pA, honest_parties);
  std::vector<SlotLeaders> slots;
  slots.reserve(horizon);
  for (std::size_t t = 0; t < horizon; ++t)
    slots.push_back(materialize(law.sample(rng), honest_parties, rng));
  return LeaderSchedule(std::move(slots), honest_parties);
}

LeaderSchedule LeaderSchedule::from_symbol_law(const SymbolLaw& law, std::size_t horizon,
                                               std::size_t honest_parties, Rng& rng) {
  // With pBot = 0 both samplers compare one uniform against the same sums in
  // the same order, so the schedule and the generator state are unchanged.
  return from_tetra_law(TetraLaw{0.0, law.ph, law.pH, law.pA}, horizon, honest_parties, rng);
}

const SlotLeaders& LeaderSchedule::leaders(std::size_t slot) const {
  if (slot == 0) return genesis_slot_leaders();  // genesis is not issued
  MH_REQUIRE_MSG(slot <= slots_.size(), "slot " + std::to_string(slot) +
                                            " is past the horizon " +
                                            std::to_string(slots_.size()));
  return slots_[slot - 1];
}

bool LeaderSchedule::eligible(PartyId party, std::size_t slot) const {
  // Genesis is not issued, and nothing past the horizon is.
  return slot != 0 && slot <= slots_.size() && slots_[slot - 1].includes(party);
}

TetraString LeaderSchedule::characteristic() const {
  TetraString out;
  for (const SlotLeaders& l : slots_) out.push_back(slot_symbol(l));
  return out;
}

CharString LeaderSchedule::characteristic_sync() const {
  CharString out;
  for (const SlotLeaders& l : slots_) {
    if (l.adversarial) {
      out.push_back(Symbol::A);
    } else {
      MH_REQUIRE_MSG(!l.honest.empty(), "synchronous view requires no empty slots");
      out.push_back(l.honest.size() == 1 ? Symbol::h : Symbol::H);
    }
  }
  return out;
}

}  // namespace mh
