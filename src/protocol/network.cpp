#include "protocol/network.hpp"

#include <algorithm>
#include <string>

#include "obs/obs.hpp"
#include "protocol/faults/injector.hpp"
#include "protocol/net/link_key.hpp"
#include "support/check.hpp"

namespace mh {

Network::Network(std::size_t parties, std::size_t delta, net::NetConfig config)
    : parties_(parties),
      delta_(delta),
      config_(config),
      hetero_(config.heterogeneous()),
      topology_(net::Topology::build(config.topology, parties, config.k, config.seed)),
      link_seeds_(config.seed),
      events_(parties),
      sent_(parties) {
  MH_REQUIRE_MSG(parties >= 1, "a network needs at least one party, got " +
                                   std::to_string(parties));
  config_.validate(parties);
  if (config_.bandwidth != 0) egress_.resize(parties);
}

// --- the coverage rule -------------------------------------------------------

bool Network::covered_all(BlockHash hash, std::size_t due) const {
  if (hash == genesis_block().hash) return true;
  if (sent_all_.empty()) return false;  // the common case on a gossip network
  const auto it = sent_all_.find(hash);
  return it != sent_all_.end() && it->second <= due;
}

bool Network::covered(PartyId recipient, BlockHash hash, std::size_t due) const {
  const Coverage& sent = sent_[recipient];
  const auto it = sent.find(hash);
  return (it != sent.end() && it->second <= due) || covered_all(hash, due);
}

void Network::record(PartyId recipient, BlockHash hash, std::size_t due) {
  if (covered_all(hash, due)) return;  // the bound already answers for everyone
  const auto [it, inserted] = sent_[recipient].try_emplace(hash, due);
  if (inserted)
    ++recipient_entries_;
  else
    it->second = std::min(it->second, due);
}

void Network::record_all(BlockHash hash, std::size_t due) {
  const auto [it, inserted] = sent_all_.try_emplace(hash, due);
  if (!inserted) it->second = std::min(it->second, due);
  // The bound now answers for every recipient: a per-recipient entry adds at
  // most a tighter due, and dropping it costs at most a duplicate re-ship,
  // which first arrivals never see.
  if (recipient_entries_ != 0)
    for (Coverage& sent : sent_) recipient_entries_ -= sent.erase(hash);
}

void Network::fold(const BlockTree& tree, const Block& block, std::size_t due) {
  for (BlockHash h = block.parent; !covered_all(h, due); h = tree.block(h).parent)
    record_all(h, due);
  record_all(block.hash, due);
}

void Network::require_party(PartyId party, const char* action) const {
  MH_REQUIRE_MSG(party < parties_, std::string(action) + " for unknown party " +
                                       std::to_string(party) + " (network has " +
                                       std::to_string(parties_) + " parties)");
}

// --- faults, bandwidth and latency -------------------------------------------

bool Network::fault_window(std::size_t slot) const noexcept {
  return faults_ != nullptr && faults_->window_active(slot);
}

void Network::count_drop() {
  ++faults_->stats().ships_dropped;
  MH_OBS_COUNT("protocol.faults.ships_dropped", 1);
}

// The drop/dup/extra-delay decision for one honest ship; returns false when
// the ship is lost entirely (down recipient, severed link, or link drop).
bool Network::faulted_link(PartyId sender, PartyId recipient, std::size_t slot,
                           faults::LinkVerdict* verdict) {
  if (faults_->is_down(recipient, slot) || faults_->severed(sender, recipient, slot))
    verdict->drop = true;
  else
    *verdict = faults_->link_verdict(sender, recipient, slot);
  if (verdict->drop) {
    count_drop();
    return false;
  }
  if (verdict->extra_delay != 0) {
    ++faults_->stats().ships_delayed;
    MH_OBS_COUNT("protocol.faults.ships_delayed", 1);
  }
  if (verdict->duplicate) {
    ++faults_->stats().ships_duplicated;
    MH_OBS_COUNT("protocol.faults.ships_duplicated", 1);
  }
  return true;
}

std::size_t Network::egress_first(PartyId sender, std::size_t slot) const {
  if (config_.bandwidth == 0) return slot;
  const Egress& egress = egress_[sender];
  if (egress.slot < slot) return slot;
  return egress.used < config_.bandwidth ? egress.slot : egress.slot + 1;
}

std::size_t Network::egress_take(PartyId sender, std::size_t slot, std::size_t blocks) {
  const std::size_t cap = config_.bandwidth;
  if (cap == 0) return slot;
  Egress& egress = egress_[sender];
  // A counter behind the request slot is stale history; one at or past it is
  // spillover from this slot's (or an earlier slot's) over-cap sends.
  if (egress.slot < slot) egress = Egress{slot, 0};
  const std::size_t spills = (egress.used + blocks - 1) / cap;
  egress.slot += spills;
  egress.used += blocks - spills * cap;
  if (spills != 0) MH_OBS_COUNT("protocol.net.bandwidth_spills", spills);
  return egress.slot;
}

std::size_t Network::link_extra(std::size_t slot, PartyId sender, PartyId recipient) const {
  if (config_.latency.kind == net::LatencyKind::Degenerate) return config_.latency.fixed;
  // One draw per (slot, link): the link's delay at that slot, pure in the
  // scenario spec (same keying as the fault layer's link verdicts).
  Rng rng = link_seeds_.stream(net::link_stream_key(slot, sender, recipient, parties_));
  return config_.latency.draw(rng);
}

// --- the one send path -------------------------------------------------------
//
// Shipping counters are aggregated per round, not per scheduled delivery:
// deliveries are scheduled millions of times per execution, and a hook on
// each alone costs ~2% wall-clock on the E14 acceptance cell.

std::size_t Network::send_link(const BlockTree& tree, const Block& block, PartyId sender,
                               PartyId recipient, std::size_t slot, std::size_t hold,
                               bool faulted) {
  // The bundle leaves no earlier than the sender's first free departure, so
  // a block covered by then needs no latency draw (the usual relay case: the
  // neighbor already has it).
  const std::size_t depart = egress_first(sender, slot);
  if (covered(recipient, block.hash, depart + 1 + hold)) return 0;
  // The bundle lands no earlier than `earliest` (all of it leaving at once,
  // no fault delay): whatever is covered by then is covered by its real due
  // too, so the suffix walked here keeps the bundle chain-complete.
  const std::size_t earliest = depart + 1 + hold + link_extra(depart, sender, recipient);
  if (covered(recipient, block.hash, earliest)) return 0;
  lift_scratch_.clear();
  BlockHash h = block.parent;
  for (; !covered(recipient, h, earliest); h = tree.block(h).parent) lift_scratch_.push_back(h);
  faults::LinkVerdict link{};
  // A lost ship records nothing: the next send on this chain walks past the
  // gap and re-ships the missing suffix.
  if (faulted && !faulted_link(sender, recipient, slot, &link)) return 0;
  MH_OBS_HIST("protocol.net.chain_sync_depth", lift_scratch_.size());
  // The walk stopping short of genesis means coverage answered it.
  if (h != genesis_block().hash) MH_OBS_COUNT("protocol.net.coverage_hits", 1);
  const std::size_t blocks = lift_scratch_.size() + 1;
  // One due for the whole bundle: its last departure plus the link's draw at
  // its first, so no ancestor lands after the block.
  const std::size_t due =
      earliest + (egress_take(sender, slot, blocks) - depart) + link.extra_delay;
  for (std::size_t i = lift_scratch_.size(); i-- > 0;) {
    events_.schedule(recipient, due, tree.block(lift_scratch_[i]));
    record(recipient, lift_scratch_[i], due);
  }
  events_.schedule(recipient, due, block);
  if (link.duplicate) events_.schedule(recipient, due, block);
  record(recipient, block.hash, due);
  return blocks;
}

std::size_t Network::send_round(const BlockTree& tree, const Block& block, PartyId sender,
                                std::size_t slot,
                                const std::vector<std::size_t>& per_recipient_delay) {
  const bool faulted = fault_window(slot);
  record(sender, block.hash, slot);  // the sender holds what it sends
  std::size_t shipped = 0;
  topology_.for_each_neighbor(sender, [&](PartyId r) {
    const std::size_t hold = per_recipient_delay.empty() ? 0 : per_recipient_delay[r];
    shipped += send_link(tree, block, sender, r, slot, hold, faulted);
  });
  // A lockstep round outside a fault window reached every party, so by its
  // latest due everyone holds the block with its whole ancestry.
  if (!hetero_ && !faulted) {
    std::size_t due = slot + 1;
    for (const std::size_t hold : per_recipient_delay) due = std::max(due, slot + 1 + hold);
    fold(tree, block, due);
  }
  return shipped;
}

// --- entry points ------------------------------------------------------------

void Network::broadcast_chain(const BlockTree& tree, const Block& block, std::size_t sent_slot,
                              const std::vector<std::size_t>& per_recipient_delay) {
  MH_REQUIRE_MSG(per_recipient_delay.empty() || per_recipient_delay.size() == parties_,
                 "delay vector covers " + std::to_string(per_recipient_delay.size()) +
                     " parties, network has " + std::to_string(parties_));
  MH_REQUIRE_MSG(block.slot <= sent_slot,
                 "non-monotone broadcast: party " + std::to_string(block.issuer) +
                     "'s slot-" + std::to_string(block.slot) +
                     " block cannot be sent at slot " + std::to_string(sent_slot));
  MH_REQUIRE_MSG(block.issuer < parties_,
                 "broadcast_chain needs an honest issuer, got party " +
                     std::to_string(block.issuer) + " at slot " + std::to_string(sent_slot));
  // An all-equal delay vector (adversaries often return all-zeros) in
  // lockstep outside a fault window is the batched form.
  bool uniform = !hetero_ && !fault_window(sent_slot);
  for (PartyId r = 0; r < per_recipient_delay.size(); ++r) {
    MH_REQUIRE_MSG(per_recipient_delay[r] <= delta_,
                   "adversary delay " + std::to_string(per_recipient_delay[r]) + " for party " +
                       std::to_string(r) + " at slot " + std::to_string(sent_slot) +
                       " exceeds Delta = " + std::to_string(delta_));
    uniform = uniform && per_recipient_delay[r] == per_recipient_delay.front();
  }
  if (!uniform) {
    const std::size_t shipped =
        send_round(tree, block, block.issuer, sent_slot, per_recipient_delay);
    MH_OBS_COUNT("protocol.net.blocks_shipped", shipped);
    return;
  }
  // One due for every recipient: one walk against the all-recipient bound
  // covers them all, and each shipped block gets one all-recipient entry.
  const std::size_t due =
      sent_slot + 1 + (per_recipient_delay.empty() ? 0 : per_recipient_delay.front());
  lift_scratch_.clear();
  BlockHash h = block.parent;
  for (; !covered_all(h, due); h = tree.block(h).parent) lift_scratch_.push_back(h);
  MH_OBS_HIST("protocol.net.chain_sync_depth", lift_scratch_.size());
  MH_OBS_COUNT("protocol.net.blocks_shipped", (lift_scratch_.size() + 1) * (parties_ - 1));
  if (h != genesis_block().hash) MH_OBS_COUNT("protocol.net.coverage_hits", 1);
  const auto ship_to_all = [&](const Block& b) {
    for (PartyId r = 0; r < parties_; ++r)
      if (r != block.issuer) events_.schedule(r, due, b);
  };
  for (std::size_t i = lift_scratch_.size(); i-- > 0;) ship_to_all(tree.block(lift_scratch_[i]));
  ship_to_all(block);
  fold(tree, block, due);
}

void Network::relay(const BlockTree& tree, const Block& block, PartyId relayer,
                    std::size_t slot) {
  require_party(relayer, "relay");
  const std::size_t relayed = send_round(tree, block, relayer, slot, {});
  MH_OBS_COUNT("protocol.net.blocks_relayed", relayed);
}

void Network::inject(const Block& block, PartyId recipient, std::size_t visible_slot) {
  require_party(recipient, "injection");
  MH_REQUIRE_MSG(visible_slot >= block.slot,
                 "non-monotone injection: a slot-" + std::to_string(block.slot) +
                     " block cannot be visible at slot " + std::to_string(visible_slot));
  // Partitions never sever adversarial channels (the coalition keeps links
  // into every component), but a crashed endpoint receives nothing.
  if (faults_ != nullptr && faults_->is_down(recipient, visible_slot)) {
    count_drop();
    return;
  }
  MH_OBS_COUNT("protocol.net.blocks_shipped", 1);
  events_.schedule(recipient, visible_slot, block);
  // Coverage must stay chain-complete: a partial disclosure (parent not
  // covered) is NOT recorded, so later honest sends re-ship the prefix.
  if (covered(recipient, block.parent, visible_slot))
    record(recipient, block.hash, visible_slot);
}

void Network::inject_all(const Block& block, std::size_t visible_slot) {
  // Unless the parent is covered for everyone outside a fault window (where
  // a down recipient's ship is dropped), this is one injection per party.
  if (fault_window(visible_slot) || !covered_all(block.parent, visible_slot)) {
    for (PartyId r = 0; r < parties_; ++r) inject(block, r, visible_slot);
    return;
  }
  MH_REQUIRE_MSG(visible_slot >= block.slot,
                 "non-monotone injection: a slot-" + std::to_string(block.slot) +
                     " block cannot be visible at slot " + std::to_string(visible_slot));
  MH_OBS_COUNT("protocol.net.blocks_shipped", parties_);
  for (PartyId r = 0; r < parties_; ++r) events_.schedule(r, visible_slot, block);
  record_all(block.hash, visible_slot);  // one entry carries everyone's coverage
}

void Network::crash_recipient(PartyId recipient) {
  require_party(recipient, "crash");
  // Volatile endpoint state is lost: queued deliveries and the coverage that
  // claimed they would land. The all-recipient bound covers this recipient's
  // wiped in-flight messages too, so it is cleared — conservatively for
  // everyone, which only costs re-ships.
  Coverage& sent = sent_[recipient];
  const std::size_t invalidated = sent.size() + sent_all_.size();
  if (faults_ != nullptr) faults_->stats().coverage_invalidated += invalidated;
  MH_OBS_COUNT("protocol.faults.coverage_invalidated", invalidated);
  events_.wipe(recipient);
  recipient_entries_ -= sent.size();
  sent.clear();
  sent_all_.clear();
}

void Network::resync_ship(const Block& block, PartyId recipient, std::size_t slot) {
  require_party(recipient, "re-sync");
  events_.schedule(recipient, slot, block);
  record(recipient, block.hash, slot);
  if (faults_ != nullptr) ++faults_->stats().resync_blocks;
  MH_OBS_COUNT("protocol.faults.resync_blocks", 1);
}

void Network::collect_into(PartyId recipient, std::size_t slot, std::vector<Block>* out) {
  require_party(recipient, "collect");
  out->clear();
  events_.collect_due(recipient, slot, out);
}

}  // namespace mh
