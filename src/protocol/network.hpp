// The protocol transport: a façade over the discrete-event network core in
// src/protocol/net/.
//
// Every scheduled send is a net::EventCore delivery keyed (due slot, global
// seq). Honest parties diffuse *chains* (the model's messages are
// blockchains), and every honest link send — a forger's first hop or a gossip
// relay — takes one per-link path: it ships, ancestors first and all at one
// due, the suffix of the sender's chain that the recipient is not already
// covered for by that due.
//
// Coverage is one chain-complete rule. covered(r, x, d) holds iff x is
// genesis, or x's all-recipient bound is <= d, or r's own entry for x is
// <= d, and it means "r will hold x and its whole ancestry by the onset of
// slot d". An entry is written only for a chain-complete ship (the parent
// covered for r by the same due) and never claims more than will be
// delivered, so skipping a covered block cannot leave a recipient holding a
// child before its parent. The sender of a link send counts as holding the
// block, so a relay never echoes a block back to it.
//
//   * Degenerate NetConfig (full mesh, zero extra latency, unlimited
//     bandwidth — the default) is that path's lockstep instance: the
//     slot-synchronous network with a rushing adversary (axiom A0) and its
//     Delta-delay relaxation (A4_Delta). Honest broadcasts in slot t reach
//     every other party by the onset of t + 1 + Delta; within that window the
//     adversary picks per-recipient delivery slots, may inject its own blocks
//     anywhere, and orders each slot's deliveries (the tie-breaking lever of
//     the settlement game). Nobody relays: every party is a direct
//     recipient. A round with one due for everyone and no fault window takes
//     the batched form, one all-recipient entry per shipped block. Any other
//     round outside a fault window has also covered everyone by its latest
//     due, so it folds its chain into the all-recipient bound there, and
//     folding drops the block's per-recipient entries: those only track
//     blocks not yet covered for every recipient.
//
//   * Heterogeneous NetConfig: sends follow the net::Topology, each link
//     bundle draws one capped net::LatencyLaw delay keyed (departure slot,
//     sender, recipient), egress beyond the per-party bandwidth cap spills
//     into later slots, and the whole bundle lands at one due: its last
//     departure plus the draw at its first. A node that admits a block sends it on through the same path
//     (the simulation calls relay()). The synchrony bound is no longer
//     configured — it is RECOVERED as the observed maximum adoption delay,
//     which is the Delta the oracle grades the run at (see
//     Simulation::delivery_audit).
//
// Fault layer: with a faults::FaultInjector attached, every honest link send
// consults it with the same (slot, sender, recipient) keying. A fault window
// disables the batched form and the fold (a dropped link means the round did
// not cover everyone), a lost ship records nothing, and a crash wipes the
// recipient's queued deliveries, its coverage entries and the whole
// all-recipient bound, forcing a re-sync (resync_ship) on restart. With no
// injector attached no fault is ever consulted. Adversarial injections and
// re-sync ships are direct channels: they bypass topology, latency, and
// bandwidth in every mode.
#pragma once

#include <cstddef>
#include <unordered_map>
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
  /// Is this a non-degenerate (gossip/latency/bandwidth) configuration?
  [[nodiscard]] bool heterogeneous() const noexcept { return hetero_; }

  /// Attach (or detach, with nullptr) the fault layer. The injector is
  /// consulted on every send and outlives the Network (the Simulation owns
  /// neither; the caller guarantees lifetime).
  void attach_faults(faults::FaultInjector* faults) noexcept { faults_ = faults; }

  /// Honest broadcast of a freshly forged block at slot `sent_slot`: one link
  /// send from its issuer to each out-neighbor (every other party in
  /// lockstep), shipping the block plus the ancestors that neighbor is not
  /// covered for. `delay[r]` in [0, delta] is the adversary's extra
  /// hold-back for recipient r (empty = no extra delay). Amortized
  /// O(parties) per call once the chain prefix is covered.
  void broadcast_chain(const BlockTree& tree, const Block& block, std::size_t sent_slot,
                       const std::vector<std::size_t>& per_recipient_delay = {});

  /// Gossip forwarding: `relayer` has just admitted `block` (so it holds the
  /// whole ancestry, which `tree` must contain) and sends it on at `slot` to
  /// its out-neighbors through the same link path as a first hop, with no
  /// adversarial hold-back. Issuer-blind: admitted adversarial blocks relay
  /// too — delivering more is always within the model.
  void relay(const BlockTree& tree, const Block& block, PartyId relayer, std::size_t slot);

  /// Adversarial targeted injection, visible to `recipient` at `visible_slot`
  /// (which cannot precede the block's own slot: the rushing adversary sees a
  /// block the instant it exists, never before). A direct channel in every
  /// mode — no topology, latency, or bandwidth applies. Covers the block for
  /// the recipient only when its parent already is by that slot.
  void inject(const Block& block, PartyId recipient, std::size_t visible_slot);

  /// Adversarial injection to everyone at the given slot.
  void inject_all(const Block& block, std::size_t visible_slot);

  /// Crash `recipient`: its undelivered queue and coverage entries are
  /// volatile endpoint state and are lost. The all-recipient bound covered
  /// this recipient's wiped in-flight messages too, so it is cleared as well
  /// (for everyone — a dropped entry only ever costs a re-ship).
  void crash_recipient(PartyId recipient);

  /// Re-sync delivery on heal/restart: schedule `block` for `recipient` at
  /// the onset of `slot` and cover it. Callers ship ancestors first (or
  /// blocks whose ancestry the recipient already holds), keeping coverage
  /// chain-complete.
  void resync_ship(const Block& block, PartyId recipient, std::size_t slot);

  /// Replace `*out` with the deliveries for `recipient` due at the onset of
  /// `slot`, in (due, seq) event order.
  void collect_into(PartyId recipient, std::size_t slot, std::vector<Block>* out);

 private:
  /// Block -> the due by which the recipient(s) will hold it with its whole
  /// ancestry.
  using Coverage = std::unordered_map<BlockHash, std::size_t>;

  /// The coverage rule: will `recipient` hold `hash` with its whole ancestry
  /// by the onset of slot `due`?
  [[nodiscard]] bool covered(PartyId recipient, BlockHash hash, std::size_t due) const;
  /// The all-recipient half of `covered` (genesis included).
  [[nodiscard]] bool covered_all(BlockHash hash, std::size_t due) const;
  /// Write a per-recipient entry, keeping the tightest (smallest) due.
  void record(PartyId recipient, BlockHash hash, std::size_t due);
  /// Write an all-recipient entry and drop the block's per-recipient ones.
  void record_all(BlockHash hash, std::size_t due);
  /// Every party holds `block` with its whole ancestry by `due`: record_all
  /// the block and each ancestor the bound does not yet cover by then.
  void fold(const BlockTree& tree, const Block& block, std::size_t due);
  /// Throws naming `action` and the party unless `party` is one of ours.
  void require_party(PartyId party, const char* action) const;
  /// One link send to every out-neighbor of `sender`; returns blocks shipped.
  std::size_t send_round(const BlockTree& tree, const Block& block, PartyId sender,
                         std::size_t slot, const std::vector<std::size_t>& per_recipient_delay);
  /// The per-link path: ship the uncovered suffix of `block`'s chain from
  /// `sender` to `recipient` as one bundle at one due; returns blocks shipped.
  std::size_t send_link(const BlockTree& tree, const Block& block, PartyId sender,
                        PartyId recipient, std::size_t slot, std::size_t hold, bool faulted);
  /// Is a fault able to touch sends at `slot`? (Disables batching and folds.)
  [[nodiscard]] bool fault_window(std::size_t slot) const noexcept;
  /// Resolve one honest link's fault verdict; false = the ship is lost.
  bool faulted_link(PartyId sender, PartyId recipient, std::size_t slot,
                    faults::LinkVerdict* verdict);
  /// Account one ship lost to the fault layer.
  void count_drop();
  /// The slot `sender`'s next block would leave at, for a send at `slot`.
  [[nodiscard]] std::size_t egress_first(PartyId sender, std::size_t slot) const;
  /// Reserve `blocks` departures from `sender` at `slot` or later and return
  /// the last one's slot: at most `bandwidth` blocks leave a party per slot
  /// and the excess spills FIFO into later slots. Requests per party come at
  /// non-decreasing slots (the simulation is a forward slot loop), so one
  /// rolling (slot, used) counter suffices.
  std::size_t egress_take(PartyId sender, std::size_t slot, std::size_t blocks);
  /// The capped extra delay of (sender -> recipient) at `slot`: one
  /// counter-based draw keyed (slot, sender, recipient) — a property of the
  /// link and slot, pure in the scenario spec.
  [[nodiscard]] std::size_t link_extra(std::size_t slot, PartyId sender,
                                       PartyId recipient) const;

  std::size_t parties_;
  std::size_t delta_;
  net::NetConfig config_;
  bool hetero_ = false;
  net::Topology topology_;
  engine::SeedSequence link_seeds_;          ///< per-(slot, link) latency streams
  faults::FaultInjector* faults_ = nullptr;  // may be null (the common case)
  net::EventCore events_;                    ///< the per-recipient delivery queues
  std::vector<Coverage> sent_;               ///< per-recipient coverage entries
  std::size_t recipient_entries_ = 0;        ///< sum of sent_ sizes: folds skip empty maps
  /// The all-recipient bound: an entry here covers the block for EVERY
  /// recipient, which keeps the batched broadcast O(1) per shipped block.
  Coverage sent_all_;
  struct Egress {
    std::size_t slot = 0;
    std::size_t used = 0;
  };
  std::vector<Egress> egress_;  ///< rolling bandwidth counters (capped configs only)
  std::vector<BlockHash> lift_scratch_;  ///< ancestors pending ship, reused
};

}  // namespace mh
