#include "protocol/faults/injector.hpp"

#include "protocol/net/link_key.hpp"
#include "support/check.hpp"

namespace mh::faults {

FaultInjector::FaultInjector(const FaultPlan& plan, std::size_t parties, std::size_t horizon)
    : plan_(plan), parties_(parties), horizon_(horizon), link_streams_(plan.seed) {
  plan_.validate(parties, horizon);
}

bool FaultInjector::window_active(std::size_t slot) const noexcept {
  for (const PartitionSpec& p : plan_.partitions)
    if (p.start <= slot && slot < p.heal) return true;
  for (const CrashSpec& c : plan_.churn)
    if (c.crash <= slot && slot < c.restart) return true;
  for (const LinkFaultSpec& l : plan_.links)
    if (l.start <= slot && slot < l.end) return true;
  return false;
}

bool FaultInjector::is_down(PartyId party, std::size_t slot) const noexcept {
  for (const CrashSpec& c : plan_.churn)
    if (c.party == party && c.crash <= slot && slot < c.restart) return true;
  return false;
}

bool FaultInjector::any_down(std::size_t slot) const noexcept {
  for (const CrashSpec& c : plan_.churn)
    if (c.crash <= slot && slot < c.restart) return true;
  return false;
}

std::size_t FaultInjector::down_slots_in(PartyId party, std::size_t lo,
                                         std::size_t hi) const noexcept {
  std::size_t down = 0;
  for (const CrashSpec& c : plan_.churn) {
    if (c.party != party || c.restart <= lo || c.crash > hi) continue;
    const std::size_t from = c.crash > lo ? c.crash : lo;
    const std::size_t to = c.restart - 1 < hi ? c.restart - 1 : hi;
    down += to - from + 1;
  }
  return down;
}

bool FaultInjector::severed(PartyId sender, PartyId recipient, std::size_t slot) const noexcept {
  if (sender == kAdversary || sender == recipient) return false;
  for (const PartitionSpec& p : plan_.partitions)
    if (p.start <= slot && slot < p.heal) return p.group[sender] != p.group[recipient];
  return false;
}

LinkVerdict FaultInjector::link_verdict(PartyId sender, PartyId recipient,
                                        std::size_t slot) const {
  LinkVerdict verdict;
  if (sender == kAdversary || sender == recipient) return verdict;
  for (const LinkFaultSpec& l : plan_.links) {
    if (slot < l.start || slot >= l.end) continue;
    // One counter-based stream per (slot, sender, recipient): draws do not
    // depend on how many links faulted before this one, so any evaluation
    // order reproduces the same execution.
    Rng rng = link_streams_.stream(net::link_stream_key(slot, sender, recipient, parties_));
    if (rng.bernoulli(l.drop)) {
      verdict.drop = true;
      return verdict;  // a lost ship has no duplicate and no delay
    }
    if (rng.bernoulli(l.dup)) verdict.duplicate = true;
    if (l.extra_prob > 0.0 && rng.bernoulli(l.extra_prob))
      verdict.extra_delay = 1 + rng.below(l.extra_max);
    return verdict;  // windows do not overlap meaningfully: first match wins
  }
  return verdict;
}

void FaultInjector::crashes_at(std::size_t slot, std::vector<PartyId>* out) const {
  out->clear();
  for (const CrashSpec& c : plan_.churn)
    if (c.crash == slot) out->push_back(c.party);
}

void FaultInjector::restarts_at(std::size_t slot, std::vector<PartyId>* out) const {
  out->clear();
  for (const CrashSpec& c : plan_.churn)
    if (c.restart == slot) out->push_back(c.party);
}

std::size_t FaultInjector::heals_at(std::size_t slot) const noexcept {
  std::size_t n = 0;
  for (const PartitionSpec& p : plan_.partitions)
    if (p.heal == slot) ++n;
  return n;
}

std::size_t FaultInjector::partitions_active(std::size_t slot) const noexcept {
  std::size_t n = 0;
  for (const PartitionSpec& p : plan_.partitions)
    if (p.start <= slot && slot < p.heal) ++n;
  return n;
}

LeaderSchedule FaultInjector::effective_schedule(const ScheduleSource& schedule) const {
  std::vector<SlotLeaders> slots;
  slots.reserve(schedule.horizon());
  for (std::size_t t = 1; t <= schedule.horizon(); ++t) {
    SlotLeaders effective = schedule.leaders(t);
    std::erase_if(effective.honest, [&](PartyId p) { return is_down(p, t); });
    slots.push_back(std::move(effective));
  }
  return LeaderSchedule(std::move(slots), schedule.honest_parties());
}

}  // namespace mh::faults
