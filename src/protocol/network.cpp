#include "protocol/network.hpp"

#include <algorithm>
#include <string>
#include <utility>

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
      sent_(parties) {
  MH_REQUIRE_MSG(parties >= 1, "a network needs at least one party, got " +
                                   std::to_string(parties));
  config_.validate(parties);
  if (config_.bandwidth != 0) egress_.resize(parties);
}

void Network::bind_store(const BlockTree& store) {
  if (store_ == nullptr) store_ = &store;
  MH_REQUIRE_MSG(store_ == &store, "a network resolves every send against one block store");
}

// --- refs --------------------------------------------------------------------

net::Ref Network::ref_of(const Block& block) {
  if (store_ != nullptr) {
    const std::uint32_t entry = store_->find_entry(block.hash);
    if (entry != BlockTree::kNoEntry && store_->entry_block(entry) == block) {
      MH_REQUIRE_MSG(entry < net::kForeignTag, "store entry " + std::to_string(entry) +
                                                   " is past the 31-bit ref range");
      return entry;
    }
  }
  MH_REQUIRE_MSG(foreign_.size() < net::kForeignTag, "the side table of blocks is full");
  foreign_.push_back(block);
  return net::kForeignTag | static_cast<net::Ref>(foreign_.size() - 1);
}

std::uint32_t Network::sent_entry(const BlockTree& tree, const Block& block, std::size_t slot) {
  bind_store(tree);
  const std::uint32_t entry = tree.find_entry(block.hash);
  MH_REQUIRE_MSG(entry != BlockTree::kNoEntry && tree.entry_block(entry) == block,
                 "party " + std::to_string(block.issuer) + "'s slot-" +
                     std::to_string(block.slot) + " block, sent at slot " +
                     std::to_string(slot) + ", is not in the network's block store");
  MH_REQUIRE_MSG(entry < net::kForeignTag, "store entry " + std::to_string(entry) +
                                               " is past the 31-bit ref range");
  return entry;
}

const Block& Network::block(net::Ref ref) const {
  return net::is_foreign(ref) ? foreign_[ref & ~net::kForeignTag] : store_->entry_block(ref);
}

// --- the coverage rule -------------------------------------------------------

void Network::EntryTable::lower(PartyId recipient, std::uint32_t entry, std::uint32_t due) {
  if (entry >= row_of_.size()) row_of_.resize(entry + 1, kNever);
  std::uint32_t& row = row_of_[entry];
  if (row == kNever) {
    if (free_.empty()) {
      row = static_cast<std::uint32_t>(dues_.size() / parties_);
      dues_.resize(dues_.size() + parties_, kNever);
    } else {
      row = free_.back();
      free_.pop_back();
    }
  }
  std::uint32_t& cell = dues_[row * parties_ + recipient];
  cell = std::min(cell, due);
}

void Network::EntryTable::erase_entry(std::uint32_t entry) {
  if (entry >= row_of_.size() || row_of_[entry] == kNever) return;
  std::fill_n(dues_.begin() + row_of_[entry] * parties_, parties_, kNever);
  free_.push_back(std::exchange(row_of_[entry], kNever));
}

std::size_t Network::EntryTable::erase_recipient(PartyId recipient) {
  // Freed rows hold kNever throughout, so every row's column can be read.
  std::size_t erased = 0;
  for (std::size_t i = recipient; i < dues_.size(); i += parties_) {
    erased += dues_[i] != kNever;
    dues_[i] = kNever;
  }
  return erased;
}

bool Network::covered_all(std::uint32_t entry, std::size_t due) const {
  if (entry == 0) return true;  // genesis
  const std::uint32_t bound = entry < all_due_.size() ? all_due_[entry] : kNever;
  return bound != kNever && bound <= due;
}

bool Network::covered(PartyId recipient, std::uint32_t entry, std::size_t due) const {
  if (covered_all(entry, due)) return true;
  const std::uint32_t own = sent_.find(recipient, entry);
  return own != kNever && own <= due;
}

void Network::record(PartyId recipient, std::uint32_t entry, std::size_t due) {
  if (covered_all(entry, due)) return;  // the bound already answers for everyone
  sent_.lower(recipient, entry, net::narrow_due(due));
}

void Network::record_all(std::uint32_t entry, std::size_t due) {
  if (entry >= all_due_.size()) all_due_.resize(store_->block_count(), kNever);
  std::uint32_t& bound = all_due_[entry];
  if (bound == kNever) ++all_count_;
  bound = std::min(bound, net::narrow_due(due));
  // The bound now answers for every recipient: a per-recipient entry adds at
  // most a tighter due, and dropping it costs at most a duplicate re-ship,
  // which first arrivals never see.
  sent_.erase_entry(entry);
}

void Network::fold(std::uint32_t entry, std::size_t due) {
  for (std::uint32_t h = store_->entry_parent(entry); !covered_all(h, due);
       h = store_->entry_parent(h))
    record_all(h, due);
  record_all(entry, due);
}

void Network::unknown_party(PartyId party, const char* action) const {
  require_failed("party < parties_", __FILE__, __LINE__,
                 std::string(action) + " for unknown party " + std::to_string(party) +
                     " (network has " + std::to_string(parties_) + " parties)");
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

std::size_t Network::link_extra(std::size_t slot, PartyId sender,
                                PartyId recipient) const noexcept {
  if (config_.latency.kind == net::LatencyKind::Degenerate) return config_.latency.fixed;
  // One draw per (slot, link): the link's delay at that slot, pure in the
  // scenario spec (keyed like the fault layer's link verdicts, in a domain of
  // its own, so equal net and fault seeds draw independently).
  Rng rng = link_seeds_.stream(engine::StreamDomain::LinkLatency, slot, sender, recipient);
  return config_.latency.draw(rng);
}

// --- the one send path -------------------------------------------------------
//
// Shipping counters are tallied in counts_ and reach the obs registry in
// flush_counts(): deliveries are scheduled millions of times per execution,
// and even a hook per broadcast is a measurable share of an E14 slot.

std::size_t Network::send_link(std::uint32_t entry, PartyId sender, PartyId recipient,
                               std::size_t slot, std::size_t hold, bool faulted) {
  // The bundle leaves no earlier than the sender's first free departure, so
  // a block covered by then needs no latency draw (the usual relay case: the
  // neighbor already has it).
  const std::size_t depart = egress_first(sender, slot);
  if (covered(recipient, entry, depart + 1 + hold)) return 0;
  // The bundle lands no earlier than `earliest` (all of it leaving at once,
  // no fault delay): whatever is covered by then is covered by its real due
  // too, so the suffix walked here keeps the bundle chain-complete.
  const std::size_t earliest = depart + 1 + hold + link_extra(depart, sender, recipient);
  if (covered(recipient, entry, earliest)) return 0;
  lift_scratch_.clear();
  std::uint32_t h = store_->entry_parent(entry);
  for (; !covered(recipient, h, earliest); h = store_->entry_parent(h)) lift_scratch_.push_back(h);
  faults::LinkVerdict link{};
  // A lost ship records nothing: the next send on this chain walks past the
  // gap and re-ships the missing suffix.
  if (faulted && !faulted_link(sender, recipient, slot, &link)) return 0;
  MH_OBS_HIST("protocol.net.chain_sync_depth", lift_scratch_.size());
  // The walk stopping short of genesis means coverage answered it.
  if (h != 0) ++counts_.coverage_hits;
  const std::size_t blocks = lift_scratch_.size() + 1;
  // One due for the whole bundle: its last departure plus the link's draw at
  // its first, so no ancestor lands after the block.
  const std::size_t due =
      earliest + (egress_take(sender, slot, blocks) - depart) + link.extra_delay;
  for (std::size_t i = lift_scratch_.size(); i-- > 0;) {
    events_.schedule(recipient, due, lift_scratch_[i]);
    record(recipient, lift_scratch_[i], due);
  }
  events_.schedule(recipient, due, entry);
  if (link.duplicate) events_.schedule(recipient, due, entry);
  record(recipient, entry, due);
  return blocks;
}

std::size_t Network::send_round(std::uint32_t entry, PartyId sender, std::size_t slot,
                                const std::vector<std::size_t>& per_recipient_delay) {
  const bool faulted = fault_window(slot);
  record(sender, entry, slot);  // the sender holds what it sends
  std::size_t shipped = 0;
  topology_.for_each_neighbor(sender, [&](PartyId r) {
    const std::size_t hold = per_recipient_delay.empty() ? 0 : per_recipient_delay[r];
    shipped += send_link(entry, sender, r, slot, hold, faulted);
  });
  // A lockstep round outside a fault window reached every party, so by its
  // latest due everyone holds the block with its whole ancestry.
  if (!hetero_ && !faulted) {
    std::size_t due = slot + 1;
    for (const std::size_t hold : per_recipient_delay) due = std::max(due, slot + 1 + hold);
    fold(entry, due);
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
  const std::uint32_t entry = sent_entry(tree, block, sent_slot);
  if (!uniform) {
    const std::size_t shipped = send_round(entry, block.issuer, sent_slot, per_recipient_delay);
    counts_.shipped += shipped;
    return;
  }
  // One due for every recipient: one walk against the all-recipient bound
  // covers them all, and each shipped block is one shared round and one
  // all-recipient entry.
  const std::size_t due =
      sent_slot + 1 + (per_recipient_delay.empty() ? 0 : per_recipient_delay.front());
  lift_scratch_.clear();
  std::uint32_t h = store_->entry_parent(entry);
  for (; !covered_all(h, due); h = store_->entry_parent(h)) lift_scratch_.push_back(h);
  MH_OBS_HIST("protocol.net.chain_sync_depth", lift_scratch_.size());
  counts_.shipped += (lift_scratch_.size() + 1) * (parties_ - 1);
  if (h != 0) ++counts_.coverage_hits;
  for (std::size_t i = lift_scratch_.size(); i-- > 0;)
    events_.schedule_all(due, lift_scratch_[i], block.issuer);
  events_.schedule_all(due, entry, block.issuer);
  fold(entry, due);
}

void Network::relay(std::uint32_t entry, PartyId relayer, std::size_t slot) {
  require_party(relayer, "relay");
  MH_REQUIRE_MSG(store_ != nullptr && entry < store_->block_count(),
                 "party " + std::to_string(relayer) + " relays store entry " +
                     std::to_string(entry) + " at slot " + std::to_string(slot) +
                     ", which the network's block store does not hold");
  counts_.relayed += send_round(entry, relayer, slot, {});
}

void Network::inject_ref(net::Ref ref, PartyId recipient, std::size_t visible_slot) {
  // Partitions never sever adversarial channels (the coalition keeps links
  // into every component), but a crashed endpoint receives nothing.
  if (faults_ != nullptr && faults_->is_down(recipient, visible_slot)) {
    count_drop();
    return;
  }
  ++counts_.shipped;
  events_.schedule(recipient, visible_slot, ref);
  // Coverage must stay chain-complete: a partial disclosure (parent not
  // covered) is NOT recorded, so later honest sends re-ship the prefix.
  if (!net::is_foreign(ref) && covered(recipient, store_->entry_parent(ref), visible_slot))
    record(recipient, ref, visible_slot);
}

void Network::inject(const Block& block, PartyId recipient, std::size_t visible_slot) {
  require_party(recipient, "injection");
  MH_REQUIRE_MSG(visible_slot >= block.slot,
                 "non-monotone injection: a slot-" + std::to_string(block.slot) +
                     " block cannot be visible at slot " + std::to_string(visible_slot));
  inject_ref(ref_of(block), recipient, visible_slot);
}

void Network::inject_all(const Block& block, std::size_t visible_slot) {
  MH_REQUIRE_MSG(visible_slot >= block.slot,
                 "non-monotone injection: a slot-" + std::to_string(block.slot) +
                     " block cannot be visible at slot " + std::to_string(visible_slot));
  const net::Ref ref = ref_of(block);
  // Inside a fault window a down recipient's ship is dropped: one injection
  // per party.
  if (fault_window(visible_slot)) {
    for (PartyId r = 0; r < parties_; ++r) inject_ref(ref, r, visible_slot);
    return;
  }
  counts_.shipped += parties_;
  events_.schedule_all(visible_slot, ref, net::kNobody);
  if (net::is_foreign(ref)) return;
  // The coverage each per-party injection would record: one all-recipient
  // entry when the parent is covered for everyone, else each recipient's own.
  const std::uint32_t parent = store_->entry_parent(ref);
  if (covered_all(parent, visible_slot)) {
    record_all(ref, visible_slot);
  } else if (!sent_.empty()) {
    for (PartyId r = 0; r < parties_; ++r)
      if (covered(r, parent, visible_slot)) record(r, ref, visible_slot);
  }
}

void Network::crash_recipient(PartyId recipient) {
  require_party(recipient, "crash");
  // Volatile endpoint state is lost: queued deliveries and the coverage that
  // claimed they would land. The all-recipient bound covers this recipient's
  // wiped in-flight messages too, so it is cleared — conservatively for
  // everyone, which only costs re-ships.
  const std::size_t invalidated = sent_.erase_recipient(recipient) + all_count_;
  if (faults_ != nullptr) faults_->stats().coverage_invalidated += invalidated;
  MH_OBS_COUNT("protocol.faults.coverage_invalidated", invalidated);
  events_.wipe(recipient);
  all_due_.clear();
  all_count_ = 0;
}

void Network::resync_ship(const Block& block, PartyId recipient, std::size_t slot) {
  require_party(recipient, "re-sync");
  const net::Ref ref = ref_of(block);
  events_.schedule(recipient, slot, ref);
  if (!net::is_foreign(ref)) record(recipient, ref, slot);
  if (faults_ != nullptr) ++faults_->stats().resync_blocks;
  MH_OBS_COUNT("protocol.faults.resync_blocks", 1);
}

void Network::flush_counts() {
  if (counts_.shipped != 0) MH_OBS_COUNT("protocol.net.blocks_shipped", counts_.shipped);
  if (counts_.relayed != 0) MH_OBS_COUNT("protocol.net.blocks_relayed", counts_.relayed);
  if (counts_.coverage_hits != 0) MH_OBS_COUNT("protocol.net.coverage_hits", counts_.coverage_hits);
  counts_ = Counts{};
}

void Network::collect_into(PartyId recipient, std::size_t slot, std::vector<Block>* out) {
  out->clear();
  collect(recipient, slot, [&](net::Ref ref) { out->push_back(block(ref)); });
}

}  // namespace mh
