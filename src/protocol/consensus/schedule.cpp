#include "protocol/consensus/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace mh::consensus {

void ConsensusConfig::validate() const {
  MH_REQUIRE_MSG(f > 0.0 && f < 1.0,
                 "active-slot coefficient must lie in (0, 1), got " + std::to_string(f));
  epoch.validate();
}

TetraLaw induced_law(double f, const std::vector<double>& honest_shares,
                     double adversarial_share) {
  MH_REQUIRE_MSG(f > 0.0 && f < 1.0,
                 "active-slot coefficient must lie in (0, 1), got " + std::to_string(f));
  MH_REQUIRE_MSG(!honest_shares.empty(), "induced law needs at least one honest party");
  // Work in log space throughout. With L = log1p(-f):
  //   P[party i loses]      = (1-f)^{s_i}            = exp(s_i L)
  //   P[no honest winner]   = prod_i (1-f)^{s_i}     = exp(S L),  S = sum s_i
  //   P[only party i wins]  = p_i * exp((S - s_i) L) = exp(S L) * expm1(-s_i L)
  // so the exactly-one-winner mass is exp(S L) * sum_i expm1(-s_i L), and no
  // intermediate passes through the cancellation-prone 1 - pow form.
  const double L = std::log1p(-f);
  double total_share = 0.0;
  double one_sum = 0.0;
  for (double s : honest_shares) {
    MH_REQUIRE_MSG(s >= 0.0 && s <= 1.0,
                   "relative stake must lie in [0, 1], got " + std::to_string(s));
    total_share += s;
    one_sum += std::expm1(-s * L);
  }
  const double p_adv = phi(f, adversarial_share);
  const double no_honest = std::exp(total_share * L);
  const double one_honest = no_honest * one_sum;

  TetraLaw law;
  law.pA = p_adv;
  law.pBot = (1.0 - p_adv) * no_honest;
  law.ph = (1.0 - p_adv) * one_honest;
  // Residual, clamped: the three masses above are each accurate to ulps, so
  // the remainder is the multi-winner mass up to the same error; the clamp
  // absorbs the degenerate one-party case where it is an exact zero.
  double pH = (1.0 - p_adv) - law.pBot - law.ph;
  law.pH = pH > 0.0 ? pH : 0.0;
  law.validate();
  return law;
}

EpochSchedule::EpochSchedule(ConsensusConfig config, StakeRegistry registry, std::size_t horizon,
                             std::uint64_t seed)
    : config_(config),
      registry_(std::move(registry)),
      horizon_(horizon),
      manager_(config.epoch, seed),
      selection_(config.f, seed) {
  config_.validate();
  MH_REQUIRE_MSG(horizon_ >= 1, "epoch schedules need a horizon of at least one slot");
}

void EpochSchedule::open_epoch(const BlockTree& public_view) const {
  const std::size_t epoch = records_.size();
  EpochRecord rec;
  rec.nonce = manager_.fold_nonce(epoch, public_view);
  registry_.advance_to_epoch(epoch);
  rec.honest_shares = registry_.honest_shares();
  rec.adversarial_share = registry_.adversarial_share();

  const std::size_t lo = manager_.epoch_start(epoch);
  const std::size_t hi = std::min(manager_.epoch_end(epoch), horizon_);
  for (std::size_t slot = lo; slot <= hi; ++slot)
    slots_.push_back(selection_.draw_slot(rec.nonce, slot, registry_));
  records_.push_back(std::move(rec));
}

void EpochSchedule::advance_to(std::size_t slot, const BlockTree& public_view) const {
  if (slot == 0) return;
  const std::size_t target = std::min(slot, horizon_);
  while (records_.size() < epoch_count() && manager_.epoch_start(records_.size()) <= target)
    open_epoch(public_view);
}

const SlotLeaders& EpochSchedule::leaders(std::size_t slot) const {
  if (slot == 0) return genesis_slot_leaders();  // genesis is not issued
  MH_REQUIRE_MSG(slot <= horizon_, "slot " + std::to_string(slot) + " is past the horizon " +
                                       std::to_string(horizon_));
  return revealed(slot);
}

bool EpochSchedule::eligible(PartyId party, std::size_t slot) const {
  if (slot == 0 || slot > horizon_) return false;  // genesis / beyond the run
  return revealed(slot).includes(party);
}

const SlotLeaders& EpochSchedule::revealed(std::size_t slot) const {
  MH_REQUIRE_MSG(slot <= slots_.size(),
                 "slot " + std::to_string(slot) +
                     " is not materialized yet (epoch-driven schedules reveal slots per "
                     "epoch; frontier is slot " +
                     std::to_string(slots_.size()) + ")");
  return slots_[slot - 1];
}

const EpochSchedule::EpochRecord& EpochSchedule::record(std::size_t epoch) const {
  MH_REQUIRE_MSG(epoch < records_.size(),
                 "epoch " + std::to_string(epoch) + " is not materialized (frontier is epoch " +
                     std::to_string(records_.size()) + ")");
  return records_[epoch];
}

std::uint64_t EpochSchedule::epoch_nonce(std::size_t epoch) const { return record(epoch).nonce; }

const std::vector<double>& EpochSchedule::epoch_honest_shares(std::size_t epoch) const {
  return record(epoch).honest_shares;
}

TetraLaw EpochSchedule::epoch_induced_law(std::size_t epoch) const {
  const EpochRecord& rec = record(epoch);
  return induced_law(config_.f, rec.honest_shares, rec.adversarial_share);
}

LeaderSchedule EpochSchedule::realized() const {
  return LeaderSchedule(slots_, registry_.honest_parties());
}

}  // namespace mh::consensus
