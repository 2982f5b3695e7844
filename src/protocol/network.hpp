// The protocol transport: a façade over the discrete-event network core in
// src/protocol/net/.
//
// Every scheduled send is a net::EventCore delivery keyed (due slot, global
// seq); what varies between configurations is WHO a send reaches and WHEN it
// lands:
//
//   * Degenerate NetConfig (full mesh, zero extra latency, unlimited
//     bandwidth — the default): the slot-synchronous network with a rushing
//     adversary (axiom A0) and its Delta-delay relaxation (A4_Delta). Honest
//     broadcasts in slot t reach every party by the onset of t + 1 + Delta;
//     within that window the adversary picks per-recipient delivery slots,
//     may inject its own blocks anywhere, and orders each slot's deliveries
//     (the tie-breaking lever of the settlement game). This path is
//     contractually BIT-IDENTICAL to the pre-event-core slot-bucket
//     transport: the (due, seq) pop order reproduces "due ascending, then
//     insertion order within a due" exactly, and the golden transport digest
//     pins enforce it.
//
//   * Heterogeneous NetConfig: sends follow the net::Topology (sender ships
//     to its out-neighbors only), every link send draws a capped
//     net::LatencyLaw extra delay from a counter-based stream keyed
//     (slot, sender, recipient), egress beyond the per-party bandwidth cap
//     spills into later slots, and recipients RELAY each first-seen delivery
//     onward (multi-hop gossip; per-recipient scheduled-sets deduplicate).
//     The synchrony bound is no longer configured — it is RECOVERED as the
//     observed maximum adoption delay, which is the Delta the oracle grades
//     the run at (see Simulation::net_report).
//
// Chain-sync: honest participants broadcast *chains* (the model's messages
// are blockchains). The degenerate path ships, per recipient, only the
// ancestors not already scheduled by the block's due slot, tracked by
// delivered watermarks (per-recipient + an all-recipient bound; entries
// expire delta + 1 slots past their due). The heterogeneous path tracks a
// binary per-recipient scheduled-set instead — latency draws can reorder
// arrivals, so a due-bounded watermark would overclaim; out-of-order
// arrivals park in the node's orphan buffer until ancestry lands.
//
// Fault layer: with a faults::FaultInjector attached, every honest link send
// — first-hop and relay alike — consults it with the same (slot, sender,
// recipient) keying. During an active fault window the degenerate path ships
// per-recipient only (drops make a round's coverage non-uniform, so the
// all-recipient bound must not advance), dropped ships record no watermark,
// and a crash wipes the recipient's volatile state — queued deliveries,
// watermarks, scheduled-set — forcing a re-sync (resync_ship) on restart.
// With no injector attached every code path below is byte-identical to the
// un-faulted transport. Adversarial injections and re-sync ships are direct
// channels: they bypass topology, latency, and bandwidth in every mode.
#pragma once

#include <cstddef>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/seed_sequence.hpp"
#include "protocol/block.hpp"
#include "protocol/blocktree.hpp"
#include "protocol/net/config.hpp"
#include "protocol/net/event_core.hpp"
#include "protocol/net/topology.hpp"

namespace mh {

namespace faults {
class FaultInjector;
struct LinkVerdict;
}  // namespace faults

class Network {
 public:
  Network(std::size_t parties, std::size_t delta, net::NetConfig config = {});

  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }
  [[nodiscard]] std::size_t delta() const noexcept { return delta_; }
  [[nodiscard]] const net::NetConfig& net_config() const noexcept { return config_; }
  [[nodiscard]] const net::Topology& topology() const noexcept { return topology_; }
  /// Is this a non-degenerate (gossip/latency/bandwidth) configuration?
  [[nodiscard]] bool heterogeneous() const noexcept { return hetero_; }

  /// Attach (or detach, with nullptr) the fault layer. The injector is
  /// consulted on every send and outlives the Network (the Simulation owns
  /// neither; the caller guarantees lifetime).
  void attach_faults(faults::FaultInjector* faults) noexcept { faults_ = faults; }
  [[nodiscard]] faults::FaultInjector* fault_injector() const noexcept { return faults_; }

  /// Chain-synced honest broadcast of a freshly forged block at slot
  /// `sent_slot`: ships `block` plus, per reachable recipient, exactly the
  /// ancestors that recipient has not already been scheduled to receive —
  /// ancestors first on every link, so a single-hop bundle never arrives
  /// parentless (multi-hop races can still reorder; the node's orphan buffer
  /// absorbs them). `delay[r]` in [0, delta] is the adversary's extra
  /// hold-back for recipient r (empty = no extra delay). Amortized
  /// O(parties) per call once the chain prefix has been synced.
  void broadcast_chain(const BlockTree& tree, const Block& block, std::size_t sent_slot,
                       const std::vector<std::size_t>& per_recipient_delay = {});

  /// Adversarial targeted injection, visible to `recipient` at `visible_slot`
  /// (which cannot precede the block's own slot: the rushing adversary sees a
  /// block the instant it exists, never before). A direct channel in every
  /// mode — no topology, latency, or bandwidth applies.
  void inject(const Block& block, PartyId recipient, std::size_t visible_slot);

  /// Adversarial injection to everyone at the given slot.
  void inject_all(const Block& block, std::size_t visible_slot);

  /// Crash `recipient`: its undelivered queue, chain-sync watermarks, and
  /// scheduled-set are volatile endpoint state and are lost. The
  /// all-recipient bound covered this recipient's wiped in-flight messages
  /// too, so it is invalidated as well (for everyone — a dropped watermark
  /// only ever costs a re-ship).
  void crash_recipient(PartyId recipient);

  /// Re-sync delivery on heal/restart: schedule `block` for `recipient` at
  /// the onset of `slot` and advance its coverage. Callers ship ancestors
  /// first (or blocks whose ancestry the recipient already holds), keeping
  /// the chain-complete contract.
  void resync_ship(const Block& block, PartyId recipient, std::size_t slot);

  /// Replace `*out` with the deliveries for `recipient` due at the onset of
  /// `slot`, in (due, seq) event order. In heterogeneous mode each
  /// first-seen pop is relayed to the recipient's out-neighbors that lack it
  /// (due >= slot + 1, so relay cascades never loop within a slot).
  void collect_into(PartyId recipient, std::size_t slot, std::vector<Block>* out);

 private:
  struct RecipientQueue {
    /// Chain-complete watermark (degenerate mode): sent[h] = d means this
    /// recipient has been scheduled to receive h AND its whole ancestry by
    /// due slot <= d. Only populated when coverage differs from the
    /// all-recipient bound, and entries expire delta + 1 slots past their
    /// due (see sent_log): dropping a watermark is always safe — it only
    /// makes a later broadcast_chain re-ship a duplicate the seed transport
    /// shipped anyway.
    std::unordered_map<BlockHash, std::size_t> sent;
    /// FIFO of (hash, due) insertions backing the expiry sweep in collect.
    std::deque<std::pair<BlockHash, std::size_t>> sent_log;
    /// Binary coverage (heterogeneous mode): every block ever scheduled for
    /// delivery to this recipient, at whatever due. Deduplicates gossip
    /// relays and bounds chain-sync walks.
    std::unordered_set<BlockHash> scheduled;
  };

  /// Is `hash` (with full ancestry) scheduled for `recipient` by `due`?
  [[nodiscard]] bool covered(PartyId recipient, BlockHash hash, std::size_t due) const;
  /// Is `hash` (with full ancestry) scheduled for EVERY recipient by `due`?
  /// Genesis is always covered, so ancestry walks terminate on it.
  [[nodiscard]] bool covered_all(BlockHash hash, std::size_t due) const;
  /// Record a chain-complete ship, keeping the tightest (smallest) due.
  static void record(std::unordered_map<BlockHash, std::size_t>& sent, BlockHash hash,
                     std::size_t due);
  /// `record` into a recipient's map, logging the insertion for expiry.
  void record_recipient(PartyId recipient, BlockHash hash, std::size_t due);
  /// Drop per-recipient watermarks whose due lies delta + 1 slots behind.
  void expire_watermarks(PartyId recipient, std::size_t slot);
  void push(PartyId recipient, const Block& block, std::size_t due);
  /// Recipient's adversary hold-back (0 for an empty vector); throws past
  /// Delta, naming the party and slot.
  [[nodiscard]] std::size_t checked_delay(const std::vector<std::size_t>& per_recipient_delay,
                                          PartyId recipient, std::size_t slot) const;
  /// Is a fault able to touch sends at `slot`? (Forces the per-recipient path.)
  [[nodiscard]] bool fault_window(std::size_t slot) const noexcept;
  /// Resolve one honest link's fault verdict; false = the ship is lost.
  bool faulted_link(PartyId sender, PartyId recipient, std::size_t slot,
                    faults::LinkVerdict* verdict);

  // --- heterogeneous (event-core gossip) path ------------------------------
  /// The slot this send actually departs: at most `bandwidth` blocks leave a
  /// party per slot; excess spills FIFO into later slots. Departure requests
  /// per party arrive at non-decreasing slots (the simulation is a forward
  /// slot loop), so one rolling (slot, used) counter suffices.
  std::size_t egress_depart(PartyId sender, std::size_t slot);
  /// The capped extra delay of (sender -> recipient) at `slot`: one
  /// counter-based draw keyed (slot, sender, recipient) — a property of the
  /// link and slot, pure in the scenario spec.
  [[nodiscard]] std::size_t link_extra(std::size_t slot, PartyId sender,
                                       PartyId recipient) const;
  /// Ship one block on one honest link: bandwidth, then latency, then the
  /// fault verdict's extra delay; marks the recipient's scheduled-set.
  void hetero_send(PartyId sender, PartyId recipient, const Block& block,
                   std::size_t slot, std::size_t adversary_delay, std::size_t fault_extra,
                   bool duplicate);
  void hetero_broadcast_chain(const BlockTree& tree, const Block& block,
                              std::size_t sent_slot,
                              const std::vector<std::size_t>& per_recipient_delay);
  /// Gossip forwarding of a first-seen delivery (issuer-blind: adversarial
  /// blocks relay too — delivering MORE is always within the model).
  void hetero_relay(PartyId relayer, const Block& block, std::size_t slot);

  std::size_t parties_;
  std::size_t delta_;
  net::NetConfig config_;
  bool hetero_ = false;
  net::Topology topology_;
  engine::SeedSequence link_seeds_;          ///< per-(slot, link) latency streams
  faults::FaultInjector* faults_ = nullptr;  // may be null (the common case)
  net::EventCore events_;                    ///< the per-recipient delivery queues
  std::vector<RecipientQueue> queues_;       // per-recipient coverage state
  struct Egress {
    std::size_t slot = 0;
    std::size_t used = 0;
  };
  std::vector<Egress> egress_;  ///< rolling bandwidth counters (hetero only)
  /// Chain-complete watermark valid for EVERY recipient (bound on the max of
  /// the per-recipient dues); keeps the uniform-broadcast fast path O(1).
  std::unordered_map<BlockHash, std::size_t> sent_all_;
  std::vector<BlockHash> lift_scratch_;  ///< ancestors pending ship, reused
};

}  // namespace mh
