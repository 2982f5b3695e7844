#include "protocol/network.hpp"

#include <algorithm>
#include <string>

#include "obs/obs.hpp"
#include "protocol/faults/injector.hpp"
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
      queues_(parties) {
  MH_REQUIRE_MSG(parties >= 1, "a network needs at least one party, got " +
                                   std::to_string(parties));
  config_.validate(parties);
  if (hetero_) egress_.resize(parties);
}

void Network::record(std::unordered_map<BlockHash, std::size_t>& sent, BlockHash hash,
                     std::size_t due) {
  const auto [it, inserted] = sent.try_emplace(hash, due);
  if (!inserted) it->second = std::min(it->second, due);
}

bool Network::covered(PartyId recipient, BlockHash hash, std::size_t due) const {
  if (covered_all(hash, due)) return true;
  const auto& sent = queues_[recipient].sent;
  const auto it = sent.find(hash);
  return it != sent.end() && it->second <= due;
}

bool Network::covered_all(BlockHash hash, std::size_t due) const {
  if (hash == genesis_block().hash) return true;
  const auto all = sent_all_.find(hash);
  return all != sent_all_.end() && all->second <= due;
}

// Shipping counters are aggregated at the broadcast/inject call sites (one
// add per round, not per push): push() runs millions of times per execution
// and a per-push hook alone costs ~2% wall-clock on the E14 acceptance cell.
void Network::push(PartyId recipient, const Block& block, std::size_t due) {
  events_.schedule(recipient, due, block);
}

void Network::record_recipient(PartyId recipient, BlockHash hash, std::size_t due) {
  RecipientQueue& queue = queues_[recipient];
  const auto [it, inserted] = queue.sent.try_emplace(hash, due);
  if (!inserted) {
    if (due >= it->second) return;  // no tightening: nothing new to expire
    it->second = due;
  }
  queue.sent_log.emplace_back(hash, due);
}

void Network::expire_watermarks(PartyId recipient, std::size_t slot) {
  // A per-recipient entry only beats sent_all_ for dues below the round's
  // maximum, and every query after `slot` uses a due past it; delta + 1 slots
  // after an entry's due it can no longer answer differently than a fresh
  // re-ship would, so dropping it is safe (worst case: a duplicate re-ship at
  // a position the seed transport always shipped).
  RecipientQueue& queue = queues_[recipient];
  while (!queue.sent_log.empty() && queue.sent_log.front().second + delta_ + 1 <= slot) {
    const auto [hash, due] = queue.sent_log.front();
    queue.sent_log.pop_front();
    const auto it = queue.sent.find(hash);
    if (it != queue.sent.end() && it->second == due) {
      queue.sent.erase(it);
      MH_OBS_COUNT("protocol.net.watermarks_expired", 1);
    }
  }
}

std::size_t Network::checked_delay(const std::vector<std::size_t>& per_recipient_delay,
                                   PartyId recipient, std::size_t slot) const {
  const std::size_t delay = per_recipient_delay.empty() ? 0 : per_recipient_delay[recipient];
  MH_REQUIRE_MSG(delay <= delta_, "adversary delay " + std::to_string(delay) + " for party " +
                                      std::to_string(recipient) + " at slot " +
                                      std::to_string(slot) +
                                      " exceeds Delta = " + std::to_string(delta_));
  return delay;
}

// A send during an active fault window may lose or skew individual links, so
// it must never advance sent_all_ (the all-recipient bound would overclaim
// coverage for a recipient whose ship was dropped); per-recipient watermarks
// record exactly what was actually scheduled.
bool Network::fault_window(std::size_t slot) const noexcept {
  return faults_ != nullptr && faults_->window_active(slot);
}

// The drop/dup/extra-delay decision for one honest ship; returns false when
// the ship is lost entirely (down recipient, severed link, or link drop).
bool Network::faulted_link(PartyId sender, PartyId recipient, std::size_t slot,
                           faults::LinkVerdict* verdict) {
  if (faults_->is_down(recipient, slot) || faults_->severed(sender, recipient, slot)) {
    ++faults_->stats().ships_dropped;
    MH_OBS_COUNT("protocol.faults.ships_dropped", 1);
    return false;
  }
  *verdict = faults_->link_verdict(sender, recipient, slot);
  if (verdict->drop) {
    ++faults_->stats().ships_dropped;
    MH_OBS_COUNT("protocol.faults.ships_dropped", 1);
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

// --- heterogeneous (event-core gossip) path --------------------------------

std::size_t Network::egress_depart(PartyId sender, std::size_t slot) {
  const std::size_t cap = config_.bandwidth;
  if (cap == 0) return slot;
  Egress& egress = egress_[sender];
  // A counter behind the request slot is stale history; one at or past it is
  // spillover from this slot's (or an earlier slot's) over-cap sends.
  if (egress.slot < slot) {
    egress.slot = slot;
    egress.used = 0;
  }
  while (egress.used >= cap) {
    ++egress.slot;
    egress.used = 0;
    MH_OBS_COUNT("protocol.net.bandwidth_spills", 1);
  }
  ++egress.used;
  return egress.slot;
}

std::size_t Network::link_extra(std::size_t slot, PartyId sender, PartyId recipient) const {
  if (config_.latency.kind == net::LatencyKind::Degenerate) return config_.latency.fixed;
  // One draw per (slot, link): the link's delay at that slot, pure in the
  // scenario spec (same keying as the fault layer's link verdicts).
  Rng rng = link_seeds_.stream((slot * parties_ + sender) * parties_ + recipient);
  return config_.latency.draw(rng);
}

void Network::hetero_send(PartyId sender, PartyId recipient, const Block& block,
                          std::size_t slot, std::size_t adversary_delay,
                          std::size_t fault_extra, bool duplicate) {
  const std::size_t depart = egress_depart(sender, slot);
  const std::size_t due =
      depart + 1 + adversary_delay + fault_extra + link_extra(depart, sender, recipient);
  push(recipient, block, due);
  if (duplicate) push(recipient, block, due);
  queues_[recipient].scheduled.insert(block.hash);
}

void Network::hetero_broadcast_chain(const BlockTree& tree, const Block& block,
                                     std::size_t sent_slot,
                                     const std::vector<std::size_t>& per_recipient_delay) {
  const PartyId sender = block.issuer;
  MH_REQUIRE_MSG(sender < parties_,
                 "heterogeneous broadcast_chain needs an honest issuer, got party " +
                     std::to_string(sender) + " at slot " + std::to_string(sent_slot));
  // The forger self-accepts: its own coverage gains the block immediately, so
  // a neighbor's later relay back to it deduplicates.
  queues_[sender].scheduled.insert(block.hash);
  const bool faulted = fault_window(sent_slot);
  std::size_t shipped = 0;
  topology_.for_each_neighbor(sender, [&](PartyId r) {
    const std::size_t delay = checked_delay(per_recipient_delay, r, sent_slot);
    faults::LinkVerdict link{};
    // A lost ship schedules nothing: the recipient's scheduled-set keeps the
    // gap, so the next broadcast or relay on this chain re-walks past it.
    if (faulted && !faulted_link(sender, r, sent_slot, &link)) return;
    auto& scheduled = queues_[r].scheduled;
    lift_scratch_.clear();
    BlockHash h = block.parent;
    for (; h != genesis_block().hash && scheduled.find(h) == scheduled.end();
         h = tree.block(h).parent)
      lift_scratch_.push_back(h);
    MH_OBS_HIST("protocol.net.chain_sync_depth", lift_scratch_.size());
    shipped += lift_scratch_.size() + 1;
    for (std::size_t i = lift_scratch_.size(); i-- > 0;)
      hetero_send(sender, r, tree.block(lift_scratch_[i]), sent_slot, delay,
                  faulted ? link.extra_delay : 0, false);
    hetero_send(sender, r, block, sent_slot, delay, faulted ? link.extra_delay : 0,
                faulted && link.duplicate);
  });
  MH_OBS_COUNT("protocol.net.blocks_shipped", shipped);
}

void Network::hetero_relay(PartyId relayer, const Block& block, std::size_t slot) {
  const bool faulted = fault_window(slot);
  std::size_t relayed = 0;
  topology_.for_each_neighbor(relayer, [&](PartyId neighbor) {
    auto& scheduled = queues_[neighbor].scheduled;
    if (scheduled.find(block.hash) != scheduled.end()) return;
    faults::LinkVerdict link{};
    if (faulted && !faulted_link(relayer, neighbor, slot, &link)) return;
    ++relayed;
    hetero_send(relayer, neighbor, block, slot, 0, faulted ? link.extra_delay : 0,
                faulted && link.duplicate);
  });
  MH_OBS_COUNT("protocol.net.blocks_relayed", relayed);
}

// --- broadcast entry point -------------------------------------------------

void Network::broadcast_chain(const BlockTree& tree, const Block& block, std::size_t sent_slot,
                              const std::vector<std::size_t>& per_recipient_delay) {
  MH_REQUIRE_MSG(per_recipient_delay.empty() || per_recipient_delay.size() == parties_,
                 "delay vector covers " + std::to_string(per_recipient_delay.size()) +
                     " parties, network has " + std::to_string(parties_));
  MH_REQUIRE_MSG(block.slot <= sent_slot,
                 "non-monotone broadcast: party " + std::to_string(block.issuer) +
                     "'s slot-" + std::to_string(block.slot) +
                     " block cannot be sent at slot " + std::to_string(sent_slot));
  if (hetero_) {
    hetero_broadcast_chain(tree, block, sent_slot, per_recipient_delay);
    return;
  }
  const bool faulted = fault_window(sent_slot);
  // An all-equal delay vector (adversaries often return all-zeros) is a
  // uniform broadcast: handle it on the fast path so the per-recipient
  // watermark maps stay empty — sent_all_ alone carries the coverage. Inside
  // a fault window the round is never uniform: individual links may drop.
  const bool uniform =
      !faulted &&
      (per_recipient_delay.empty() ||
       std::all_of(per_recipient_delay.begin(), per_recipient_delay.end(),
                   [&](std::size_t d) { return d == per_recipient_delay.front(); }));
  if (uniform) {
    // One watermark walk covers every recipient (party 0's delay is everyone's).
    const std::size_t due = sent_slot + 1 + checked_delay(per_recipient_delay, 0, sent_slot);
    lift_scratch_.clear();
    BlockHash h = block.parent;
    for (; !covered_all(h, due); h = tree.block(h).parent) lift_scratch_.push_back(h);
    MH_OBS_HIST("protocol.net.chain_sync_depth", lift_scratch_.size());
    MH_OBS_COUNT("protocol.net.blocks_shipped", (lift_scratch_.size() + 1) * parties_);
    // The walk stopping short of genesis means a watermark answered it.
    if (h != genesis_block().hash) MH_OBS_COUNT("protocol.net.watermark_hits", 1);
    for (std::size_t i = lift_scratch_.size(); i-- > 0;) {
      const Block& ancestor = tree.block(lift_scratch_[i]);
      for (PartyId r = 0; r < parties_; ++r) push(r, ancestor, due);
      record(sent_all_, ancestor.hash, due);
    }
    for (PartyId r = 0; r < parties_; ++r) push(r, block, due);
    record(sent_all_, block.hash, due);
    return;
  }

  std::size_t due_max = sent_slot + 1;
  std::size_t shipped = 0;
  for (PartyId r = 0; r < parties_; ++r) {
    std::size_t due = sent_slot + 1 + checked_delay(per_recipient_delay, r, sent_slot);
    faults::LinkVerdict link;
    if (faulted) {
      // A lost ship records nothing: the next broadcast on this chain walks
      // past the gap and re-ships the whole missing suffix to this recipient.
      if (!faulted_link(block.issuer, r, sent_slot, &link)) continue;
      due += link.extra_delay;
    }
    due_max = std::max(due_max, due);
    lift_scratch_.clear();
    BlockHash h = block.parent;
    for (; h != genesis_block().hash && !covered(r, h, due); h = tree.block(h).parent)
      lift_scratch_.push_back(h);
    MH_OBS_HIST("protocol.net.chain_sync_depth", lift_scratch_.size());
    shipped += lift_scratch_.size() + 1;
    if (h != genesis_block().hash) MH_OBS_COUNT("protocol.net.watermark_hits", 1);
    for (std::size_t i = lift_scratch_.size(); i-- > 0;) {
      push(r, tree.block(lift_scratch_[i]), due);
      record_recipient(r, lift_scratch_[i], due);
    }
    push(r, block, due);
    if (faulted && link.duplicate) push(r, block, due);
    record_recipient(r, block.hash, due);
  }
  MH_OBS_COUNT("protocol.net.blocks_shipped", shipped);
  // After the round every recipient holds the block with full ancestry by the
  // latest due, so the all-recipient bound tightens (and future walks stop on
  // it instead of consulting per-recipient state). Not during a fault window:
  // dropped links mean the round did NOT cover every recipient.
  if (faulted) return;
  for (BlockHash h = block.parent; !covered_all(h, due_max); h = tree.block(h).parent)
    record(sent_all_, h, due_max);
  record(sent_all_, block.hash, due_max);
}

void Network::inject(const Block& block, PartyId recipient, std::size_t visible_slot) {
  MH_REQUIRE_MSG(recipient < parties_,
                 "injection for unknown party " + std::to_string(recipient) +
                     " (network has " + std::to_string(parties_) + " parties)");
  MH_REQUIRE_MSG(visible_slot >= block.slot,
                 "non-monotone injection: a slot-" + std::to_string(block.slot) +
                     " block cannot be visible at slot " + std::to_string(visible_slot));
  // Partitions never sever adversarial channels (the coalition keeps links
  // into every component), but a crashed endpoint receives nothing.
  if (faults_ != nullptr && faults_->is_down(recipient, visible_slot)) {
    ++faults_->stats().ships_dropped;
    MH_OBS_COUNT("protocol.faults.ships_dropped", 1);
    return;
  }
  MH_OBS_COUNT("protocol.net.blocks_shipped", 1);
  push(recipient, block, visible_slot);
  if (hetero_) {
    queues_[recipient].scheduled.insert(block.hash);
    return;
  }
  // Watermarks must stay chain-complete: a partial disclosure (parent not
  // covered) is NOT recorded, so later honest broadcasts re-ship the prefix.
  if (covered(recipient, block.parent, visible_slot))
    record_recipient(recipient, block.hash, visible_slot);
}

void Network::inject_all(const Block& block, std::size_t visible_slot) {
  MH_REQUIRE_MSG(visible_slot >= block.slot,
                 "non-monotone injection: a slot-" + std::to_string(block.slot) +
                     " block cannot be visible at slot " + std::to_string(visible_slot));
  MH_OBS_COUNT("protocol.net.blocks_shipped", parties_);
  const bool faulted = fault_window(visible_slot);
  if (hetero_) {
    for (PartyId r = 0; r < parties_; ++r) {
      if (faulted && faults_->is_down(r, visible_slot)) {
        ++faults_->stats().ships_dropped;
        MH_OBS_COUNT("protocol.faults.ships_dropped", 1);
        continue;
      }
      push(r, block, visible_slot);
      queues_[r].scheduled.insert(block.hash);
    }
    return;
  }
  // When the parent is covered for everyone, the all-recipient record alone
  // carries the coverage — per-recipient entries would be strictly redundant.
  // A fault window disables it: a down recipient's ship is dropped.
  const bool all_covered = !faulted && covered_all(block.parent, visible_slot);
  for (PartyId r = 0; r < parties_; ++r) {
    if (faulted && faults_->is_down(r, visible_slot)) {
      ++faults_->stats().ships_dropped;
      MH_OBS_COUNT("protocol.faults.ships_dropped", 1);
      continue;
    }
    push(r, block, visible_slot);
    if (!all_covered && covered(r, block.parent, visible_slot))
      record_recipient(r, block.hash, visible_slot);
  }
  if (all_covered) record(sent_all_, block.hash, visible_slot);
}

void Network::crash_recipient(PartyId recipient) {
  MH_REQUIRE_MSG(recipient < parties_,
                 "crash for unknown party " + std::to_string(recipient) +
                     " (network has " + std::to_string(parties_) + " parties)");
  RecipientQueue& queue = queues_[recipient];
  // Volatile endpoint state is lost: queued deliveries and the coverage that
  // claimed they were scheduled. The all-recipient bound covers this
  // recipient's wiped in-flight messages too, so it must be invalidated —
  // conservatively for everyone, which only costs re-ships.
  const std::size_t invalidated =
      queue.sent.size() + sent_all_.size() + queue.scheduled.size();
  if (faults_ != nullptr) faults_->stats().watermarks_invalidated += invalidated;
  MH_OBS_COUNT("protocol.faults.watermarks_invalidated", invalidated);
  events_.wipe(recipient);
  queue.sent.clear();
  queue.sent_log.clear();
  queue.scheduled.clear();
  sent_all_.clear();
}

void Network::resync_ship(const Block& block, PartyId recipient, std::size_t slot) {
  MH_REQUIRE_MSG(recipient < parties_,
                 "re-sync for unknown party " + std::to_string(recipient) +
                     " (network has " + std::to_string(parties_) + " parties)");
  push(recipient, block, slot);
  if (hetero_)
    queues_[recipient].scheduled.insert(block.hash);
  else
    record_recipient(recipient, block.hash, slot);
  if (faults_ != nullptr) ++faults_->stats().resync_blocks;
  MH_OBS_COUNT("protocol.faults.resync_blocks", 1);
}

void Network::collect_into(PartyId recipient, std::size_t slot, std::vector<Block>* out) {
  MH_REQUIRE_MSG(recipient < parties_,
                 "collect for unknown party " + std::to_string(recipient) +
                     " (network has " + std::to_string(parties_) + " parties)");
  if (!hetero_) expire_watermarks(recipient, slot);
  out->clear();
  events_.collect_due(recipient, slot, out);
  // Gossip forwarding: every pop is this recipient's first sight of the
  // block (the scheduled-set deduplicated earlier copies), so it relays to
  // the neighbors that still lack it. Relay dues are >= slot + 1, so the
  // cascade never re-enters this slot's collect.
  if (hetero_)
    for (const Block& block : *out) hetero_relay(recipient, block, slot);
}

}  // namespace mh
