#include "protocol/simulation.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "support/check.hpp"

namespace mh {

Simulation::Simulation(const ScheduleSource& schedule, SimulationConfig config,
                       std::size_t delta, Adversary* adversary,
                       faults::FaultInjector* faults, net::NetConfig net)
    : schedule_(schedule),
      config_(config),
      network_(schedule.honest_parties(), delta, net),
      adversary_(adversary),
      faults_(faults),
      hetero_(network_.heterogeneous()),
      rng_(config.seed) {
  if (faults_) {
    MH_REQUIRE_MSG(faults_->parties() == schedule.honest_parties() &&
                       faults_->horizon() == schedule.horizon(),
                   "fault injector shaped for " + std::to_string(faults_->parties()) +
                       " parties x " + std::to_string(faults_->horizon()) +
                       " slots, execution has " +
                       std::to_string(schedule.honest_parties()) + " x " +
                       std::to_string(schedule.horizon()));
    // The audit reads the skip count from the injector's stats, so an
    // injector carries the accounting of one execution only.
    MH_REQUIRE_MSG(faults_->stats() == faults::FaultStats{},
                   "fault injector already carries another execution's stats; attach a "
                   "fresh injector per Simulation");
    // An empty plan is the null hypothesis: no query can ever fire, so skip
    // the per-delivery and per-slot injector consultations entirely (the E16
    // overhead gate holds the empty-plan run within 2% of the bare one).
    fault_active_ = !faults_->plan().empty();
    if (fault_active_) network_.attach_faults(faults_);
  }
  nodes_.reserve(schedule.honest_parties());
  for (PartyId p = 0; p < schedule.honest_parties(); ++p)
    nodes_.emplace_back(p, config.tie_break, &schedule_, &global_tree_);
  all_blocks_.push_back(genesis_block());
  if (adversary_) adversary_->begin(*this);
}

void Simulation::run() { run_until(schedule_.horizon()); }

void Simulation::run_until(std::size_t slot) {
  MH_REQUIRE_MSG(slot <= schedule_.horizon(),
                 "run_until(" + std::to_string(slot) + ") is past the horizon " +
                     std::to_string(schedule_.horizon()));
  while (next_slot_ <= slot) step();
  // Axiom A0 delivers a slot's broadcasts before the slot concludes; flush
  // everything already due at the upcoming onset so observations at the close
  // of `slot` see its blocks. step() re-collects idempotently (queues drain).
  deliver_due(next_slot_);
  check_watches(next_slot_);
}

void Simulation::public_add(const Block& block) {
  switch (public_tree_.try_add(block)) {
    case BlockTree::AddResult::Added:
      public_orphans_.flush(public_tree_, nullptr);
      break;
    case BlockTree::AddResult::Orphan:
      // Unreachable while mirroring is synchronous and per-node acceptance is
      // parent-first, but the public tree must never silently lose a block
      // again: buffer and retry on progress instead of dropping.
      public_orphans_.buffer(block);
      break;
    case BlockTree::AddResult::Duplicate:
    case BlockTree::AddResult::Invalid:
      break;
  }
}

void Simulation::deliver_due(std::size_t slot) {
  // Delivery counters aggregate over the whole node loop (one add per round):
  // per-(node, slot) hooks here run millions of times on the E14 scale cells.
  std::size_t delivered = 0;
  for (HonestNode& node : nodes_) {
    // A crashed endpoint neither collects nor processes; its queue was wiped
    // at crash time and stays empty while it is down.
    if (fault_active_ && faults_->is_down(node.id(), slot)) continue;
    network_.collect_into(node.id(), slot, &delivery_scratch_);
    delivered += delivery_scratch_.size();
    for (const Block& b : delivery_scratch_) {
      accepted_scratch_.clear();
      node.receive(b, &accepted_scratch_);
      // Every block the node admitted — including orphans unblocked by this
      // delivery — joins the public tree (the seed dropped flushed orphans,
      // hiding real public-fork disagreements).
      for (const Block& a : accepted_scratch_) {
        // Observed Delta: the max delay until a node could first ADOPT an
        // honest block — chain-complete acceptance, not raw arrival. (A
        // partial leak parks a block in the orphan buffer where it extends
        // nothing; grading the run at arrival delay undercuts the fork
        // projection — F4 fails at an observed Delta the execution never
        // actually satisfied.) Down slots are discounted, not the whole
        // window: a crashed endpoint cannot receive (and the restart re-sync
        // delivers promptly), but every UP slot the block went undelivered is
        // the network's degradation — a later unrelated crash must not excuse
        // it. The ratchet precheck keeps slot - a.slot - 1 from underflowing
        // on rushed injections.
        if ((fault_active_ || hetero_) && a.issuer != kAdversary &&
            slot > a.slot + 1 + observed_delta_) {
          const std::size_t raw = slot - a.slot - 1;
          const std::size_t down =
              fault_active_ ? faults_->down_slots_in(node.id(), a.slot + 1, slot) : 0;
          if (raw > down + observed_delta_) observed_delta_ = raw - down;
        }
        public_add(a);
        // Gossip: a node sends every block it admits on to its neighbors
        // (lockstep needs no relays: every party is a direct recipient).
        if (hetero_) network_.relay(global_tree_, a, node.id(), slot);
      }
    }
  }
  if (delivered != 0) {
    MH_OBS_COUNT("protocol.net.blocks_delivered", delivered);
    MH_OBS_COUNT("protocol.node.blocks_received", delivered);
  }
}

void Simulation::step() {
  const std::size_t t = next_slot_++;
  MH_OBS_COUNT("protocol.sim.slots", 1);

  // Epoch-driven schedules reveal their slots here: an epoch opening at slot
  // t folds its nonce from the public chain exactly as of the previous slot's
  // close (deliveries due at t have not landed yet). Pre-drawn schedules
  // no-op.
  schedule_.advance_to(t, public_tree_);

  // 0. Fault events land at the slot onset, BEFORE deliveries and forging: a
  //    restarted node is fully re-synced before it acts.
  if (fault_active_) apply_fault_events(t);

  // 1. Deliveries due at the onset of slot t, then settlement observations.
  deliver_due(t);
  check_watches(t);

  // 2. Adversarial action (minting / injection for this slot). Late
  //    injections scheduled for slot t must still reach the leaders before
  //    they forge (the adversary is rushing).
  if (adversary_) {
    adversary_->on_slot_begin(t, *this);
    deliver_due(t);
  }

  // 3. Honest leaders forge concurrently: all choose parents before any new
  //    slot-t block is visible to the others.
  std::vector<Block> forged;
  for (PartyId leader : schedule_.leaders(t).honest) {
    // A crashed leader forges nothing: the slot loses this leadership (the
    // oracle projects the matching "effective" characteristic string).
    if (fault_active_ && faults_->is_down(leader, t)) {
      ++faults_->stats().leaderships_skipped;
      MH_OBS_COUNT("protocol.faults.leaderships_skipped", 1);
      continue;
    }
    HonestNode& node = nodes_[leader];
    BlockHash parent = node.best_head();
    if (config_.tie_break == TieBreak::AdversarialOrder && adversary_) {
      const std::vector<BlockHash> ties = node.tree().max_length_heads();
      if (ties.size() > 1) {
        parent = adversary_->break_tie(leader, ties, *this);
        MH_REQUIRE_MSG(std::find(ties.begin(), ties.end(), parent) != ties.end(),
                       "adversary must pick one of the tied heads");
      }
    }
    forged.push_back(make_block(parent, t, leader, rng_()));
  }
  if (!forged.empty()) {
    MH_OBS_COUNT("protocol.sim.honest_forged", forged.size());
    MH_OBS_COUNT("protocol.node.blocks_received", forged.size());  // leader self-receives
  }

  // 4. Broadcast; record; leaders adopt their own blocks immediately. Honest
  //    participants broadcast *chains* (the model's messages are blockchains),
  //    so the ancestry ships along: the adversary cannot orphan an honest
  //    block at a recipient by having disclosed the parent only selectively.
  //    The transport ships each recipient only the suffix it is not already
  //    covered for by the block's due slot.
  for (const Block& block : forged) {
    global_tree_.add(block);
    all_blocks_.push_back(block);
    accepted_scratch_.clear();
    nodes_[block.issuer].receive(block, &accepted_scratch_);
    for (const Block& a : accepted_scratch_) public_add(a);
    std::vector<std::size_t> delays;
    if (adversary_) delays = adversary_->delivery_delays(block, t, *this);
    network_.broadcast_chain(global_tree_, block, t, delays);
  }
}

void Simulation::apply_fault_events(std::size_t slot) {
  faults_->crashes_at(slot, &fault_scratch_);
  for (const PartyId p : fault_scratch_) {
    network_.crash_recipient(p);
    nodes_[p].crash();
    ++faults_->stats().crashes;
    MH_OBS_COUNT("protocol.faults.crashes", 1);
  }
  faults_->restarts_at(slot, &fault_scratch_);
  for (const PartyId p : fault_scratch_) {
    ++faults_->stats().restarts;
    MH_OBS_COUNT("protocol.faults.restarts", 1);
    resync_node(p, slot);
  }
  const std::size_t heals = faults_->heals_at(slot);
  if (heals != 0) {
    faults_->stats().partitions_healed += heals;
    MH_OBS_COUNT("protocol.faults.partitions_healed", heals);
    // On heal every up party re-syncs: cross-group ships were dropped while
    // the partition stood, and no coverage entry claims they will land, so
    // the diff against the public view is exactly what each side missed.
    for (const HonestNode& node : nodes_)
      if (!faults_->is_down(node.id(), slot)) resync_node(node.id(), slot);
  }
  MH_OBS_GAUGE_SET("protocol.faults.partitions_active", faults_->partitions_active(slot));
}

void Simulation::resync_node(PartyId party, std::size_t slot) {
  // The public view holds everything any honest node ever accepted — a
  // superset of every individual view, and in particular of everything that
  // was in flight toward `party` when it crashed (forgers self-accept, so a
  // broadcast block is public from its forge slot). Its arrival order is
  // parents-first, so shipping the missing suffix in that order keeps the
  // ancestors-first contract; blocks the node already holds are skipped, so
  // the re-ship is bounded by what was actually lost.
  const HonestNode& node = nodes_[party];
  for (const BlockHash h : public_tree_.arrival_order()) {
    if (h == genesis_block().hash || node.tree().contains(h)) continue;
    network_.resync_ship(public_tree_.block(h), party, slot);
  }
}

DeliveryAudit Simulation::delivery_audit() const {
  DeliveryAudit audit;
  audit.faulted = faults_ != nullptr;
  audit.heterogeneous = hetero_;
  audit.observed_delta = observed_delta_;
  if (faults_) audit.stats = faults_->stats();
  audit.leaderships_skipped = audit.stats.leaderships_skipped;
  // An unfaulted lockstep run delivers every honest chain by its due slot.
  if (!faults_ && !hetero_) return audit;
  const std::size_t last_onset = next_slot_;  // deliveries are flushed up to here
  for (const Block& b : all_blocks_) {
    if (b.issuer == kAdversary || b.hash == genesis_block().hash) continue;
    // Lockstep claims only the blocks whose Delta window closed within the
    // run; on gossip shapes every block is audited (the window test would
    // misfire on legitimate multi-hop delays).
    if (!hetero_ && b.slot + 1 + network_.delta() > last_onset) continue;
    for (const HonestNode& node : nodes_) {
      // Adoptability, not arrival: a block parked in the orphan buffer
      // (ancestry lost to a drop) was "delivered" but extends nothing.
      if (node.id() == b.issuer || node.tree().contains(b.hash)) continue;
      if (fault_active_ && faults_->is_down(node.id(), last_onset)) continue;  // no claim
      if (!hetero_) {
        // Blocks delivered before a later crash persist in the tree, so only
        // windows intersecting down-time are excused.
        if (faults_->down_in_window(node.id(), b.slot + 1, last_onset)) continue;
        audit.delivery_unbounded = true;
        return audit;
      }
      // Pending-delivery inflation: adopted at the very next opportunity, the
      // block would realize at least this delay.
      const std::size_t down =
          fault_active_ ? faults_->down_slots_in(node.id(), b.slot + 1, last_onset) : 0;
      if (last_onset <= b.slot + down) continue;  // window effectively unopened
      ++audit.pending_inflations;
      audit.observed_delta = std::max(audit.observed_delta, last_onset - b.slot - down);
    }
  }
  return audit;
}

Block Simulation::mint_adversarial(BlockHash parent, std::size_t slot, std::uint64_t payload) {
  MH_REQUIRE_MSG(schedule_.eligible(kAdversary, slot),
                 "slot " + std::to_string(slot) + " holds no adversarial leadership");
  MH_REQUIRE_MSG(global_tree_.contains(parent), "unknown parent for an adversarial mint at slot " +
                                                    std::to_string(slot));
  MH_REQUIRE_MSG(global_tree_.block(parent).slot < slot,
                 "labels must increase along chains: parent sits at slot " +
                     std::to_string(global_tree_.block(parent).slot) +
                     ", mint requested at slot " + std::to_string(slot));
  const Block block = make_block(parent, slot, kAdversary, payload);
  global_tree_.add(block);
  all_blocks_.push_back(block);
  return block;
}

bool Simulation::observed_settlement_violation(std::size_t s) const {
  const std::vector<BlockHash> heads = public_tree_.max_length_heads();
  // What each maximal public chain says about slot s: its block labelled
  // exactly s, or "the chain skips s" (nullopt). Any mismatch between two
  // maximal chains is a settlement disagreement an observer could be shown.
  std::vector<std::optional<BlockHash>> exact_at(heads.size());
  for (std::size_t i = 0; i < heads.size(); ++i) {
    const auto deepest = public_tree_.block_at_slot(heads[i], s);
    if (deepest && public_tree_.block(*deepest).slot == s) exact_at[i] = deepest;
  }
  for (std::size_t a = 0; a < heads.size(); ++a)
    for (std::size_t b = a + 1; b < heads.size(); ++b) {
      if (!exact_at[a] && !exact_at[b]) continue;  // both skip slot s
      if (exact_at[a] != exact_at[b]) return true;
    }
  return false;
}

void Simulation::watch_settlement(std::size_t s, std::size_t k) {
  MH_REQUIRE_MSG(s >= 1 && k >= 1, "settlement watch needs slot >= 1 and depth >= 1, got s = " +
                                       std::to_string(s) + ", k = " + std::to_string(k));
  watches_.push_back(Watch{s, k, false, 0, false});
}

bool Simulation::settlement_watch_violated(std::size_t s) const {
  for (const Watch& watch : watches_)
    if (watch.s == s) return watch.violated;
  MH_REQUIRE_MSG(false, "no watch registered for this slot");
  return false;
}

BlockHash Simulation::prefix_at(BlockHash head, std::size_t s) const {
  const auto block = global_tree_.block_at_slot(head, s);
  return block ? *block : genesis_block().hash;
}

void Simulation::check_watches(std::size_t onset_slot) {
  if (watches_.empty()) return;
  // Crashed nodes are not observers: their (stale) views cannot be handed to
  // a settlement client until they restart and re-sync.
  std::size_t best = 0;
  for (const HonestNode& node : nodes_) {
    if (fault_active_ && faults_->is_down(node.id(), onset_slot)) continue;
    best = std::max(best, node.best_length());
  }

  for (Watch& watch : watches_) {
    if (watch.violated) continue;
    // Observing the fork at the close of slot onset_slot - 1; the settlement
    // game begins its checks at forks covering slot s + k.
    if (onset_slot < watch.s + watch.k + 1) continue;
    for (const HonestNode& node : nodes_) {
      if (fault_active_ && faults_->is_down(node.id(), onset_slot)) continue;
      if (node.best_length() != best) continue;
      const BlockHash prefix = prefix_at(node.best_head(), watch.s);
      if (!watch.has_record) {
        watch.has_record = true;
        watch.recorded_prefix = prefix;
      } else if (prefix != watch.recorded_prefix) {
        watch.violated = true;  // reorg past depth k, or concurrent disagreement
        break;
      }
    }
  }
}

std::vector<BlockHash> Simulation::distinct_best_heads() const {
  std::vector<BlockHash> heads;
  heads.reserve(nodes_.size());
  for (const HonestNode& node : nodes_) {
    // A crashed node holds no adoptable view right now.
    if (fault_active_ && faults_->is_down(node.id(), current_slot())) continue;
    heads.push_back(node.best_head());
  }
  std::sort(heads.begin(), heads.end());
  heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
  return heads;
}

std::size_t Simulation::observed_slot_divergence() const {
  // Divergence depends only on the adopted head pair, so pairs of DISTINCT
  // heads suffice (equal heads contribute 0).
  const std::vector<BlockHash> heads = distinct_best_heads();
  std::size_t best = 0;
  for (const BlockHash h1 : heads)
    for (const BlockHash h2 : heads) {
      const std::uint64_t l1 = global_tree_.block(h1).slot;
      if (l1 > global_tree_.block(h2).slot) continue;
      const BlockHash meet = global_tree_.common_ancestor(h1, h2);
      best = std::max(best, static_cast<std::size_t>(l1 - global_tree_.block(meet).slot));
    }
  return best;
}

bool Simulation::observed_cp_slot_violation(std::size_t k) const {
  const std::vector<BlockHash> heads = distinct_best_heads();
  for (const BlockHash h1 : heads)
    for (const BlockHash h2 : heads) {
      const std::uint64_t l1 = global_tree_.block(h1).slot;
      if (l1 > global_tree_.block(h2).slot) continue;
      if (l1 < k) continue;
      const BlockHash meet = global_tree_.common_ancestor(h1, h2);
      // The trimmed chain h1-floor-k ends at the deepest block of slot
      // <= l1 - k; it is a prefix of h2 iff the meet lies at or below it.
      const std::uint64_t cutoff = l1 - k;
      const auto trimmed_block = global_tree_.block_at_slot(h1, cutoff);
      const BlockHash trimmed = trimmed_block ? *trimmed_block : genesis_block().hash;
      const std::uint64_t meet_slot = global_tree_.block(meet).slot;
      if (meet_slot < global_tree_.block(trimmed).slot) return true;
    }
  return false;
}

}  // namespace mh
