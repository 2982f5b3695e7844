// The protocol transport: a façade over the discrete-event network core in
// src/protocol/net/.
//
// Every scheduled send is a net::EventCore delivery keyed (due slot, global
// seq) that carries a 32-bit ref, not a block: an entry of the network's block
// store (a Simulation binds its global tree at construction; a bare Network
// binds the tree of its first broadcast_chain), or a tagged index into a side
// table for a block the store does not hold byte-for-byte (a raw injection, a
// tampered header). Honest parties diffuse *chains* (the model's messages are
// blockchains), and every honest link send — a forger's first hop or a gossip
// relay — takes one per-link path: it ships, ancestors first and all at one
// due, the suffix of the sender's chain that the recipient is not already
// covered for by that due.
//
// Coverage is one chain-complete rule, kept per store entry. covered(r, x, d)
// holds iff x is genesis, or x's all-recipient bound is <= d, or r's own entry
// for x is <= d, and it means "r will hold x and its whole ancestry by the
// onset of slot d". The all-recipient bound is a dense per-entry due array;
// the per-recipient entries are pooled per-entry rows of one due per party,
// taken on an entry's first per-recipient write and freed when the bound
// answers for the entry, so a lookup is two array reads. An entry is
// written only for a chain-complete ship of a stored block (the parent
// covered for r by the same due) and never claims more than will be
// delivered, so skipping a covered block cannot leave a recipient holding a
// child before its parent. A side-table block is never covered: a tampered
// copy of an honest block shares its hash, and covering it would skip the
// genuine one. The sender of a link send counts as holding the block, so a
// relay never echoes a block back to it. Ancestor walks follow the store's
// parent column.
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
//     the batched form: each shipped block is ONE shared round of the event
//     core, which every recipient but the forger reads through its own
//     cursor, and one all-recipient entry. An injection to everyone outside a
//     fault window is one shared round too. When nothing else is queued and
//     every cursor agrees, sweep() reads a slot's due rounds once for every
//     recipient, so the simulation admits one list node by node instead of
//     collecting per recipient. Any other round outside a fault
//     window has also covered everyone by its latest due, so it folds its
//     chain into the all-recipient bound there, and folding drops the
//     block's per-recipient entries: those only track blocks not yet covered
//     for every recipient.
//
//   * Heterogeneous NetConfig: sends follow the net::Topology, each link
//     bundle draws one capped net::LatencyLaw delay keyed (departure slot,
//     sender, recipient), egress beyond the per-party bandwidth cap spills
//     into later slots, and the whole bundle lands at one due: its last
//     departure plus the draw at its first. A node that admits a block sends
//     it on through the same path (the simulation calls relay()). The
//     synchrony bound is no longer configured — it is RECOVERED as the
//     observed maximum adoption delay, which is the Delta the oracle grades
//     the run at (see Simulation::delivery_audit).
//
// Fault layer: with a faults::FaultInjector attached, every honest link send
// consults it with the same (slot, sender, recipient) keying. A fault window
// disables the batched form, shared injections and the fold (a dropped link
// means the round did not cover everyone), a lost ship records nothing, and a
// crash wipes the recipient's queued deliveries (its private ones and, through
// its floor seq, every shared round already pushed), its coverage entries and
// the whole all-recipient bound, forcing a re-sync (resync_ship) on restart.
// With no injector attached no fault is ever consulted. Adversarial
// injections and re-sync ships are direct channels: they bypass topology,
// latency, and bandwidth in every mode.
#pragma once

#include <cstddef>
#include <cstdint>
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

  /// Bind the block store every send is resolved against (once; the store
  /// must outlive the Network). Unbound, the first broadcast_chain binds its
  /// tree; until then every block is a side-table block.
  void bind_store(const BlockTree& store);

  /// Honest broadcast of a freshly forged block at slot `sent_slot`: one link
  /// send from its issuer to each out-neighbor (every other party in
  /// lockstep), shipping the block plus the ancestors that neighbor is not
  /// covered for. `tree` is the store, and holds the block. `delay[r]` in
  /// [0, delta] is the adversary's extra hold-back for recipient r (empty =
  /// no extra delay). Once the chain prefix is covered: O(1) per shipped
  /// block in the batched form (plus, while the cursors are apart, one
  /// O(parties) scan of them per new due), O(parties) otherwise.
  void broadcast_chain(const BlockTree& tree, const Block& block, std::size_t sent_slot,
                       const std::vector<std::size_t>& per_recipient_delay = {});

  /// Gossip forwarding: `relayer` has just admitted the block at store
  /// `entry` (so it holds the whole ancestry) and sends it on at `slot` to
  /// its out-neighbors through the same link path as a first hop, with no
  /// adversarial hold-back. The store must be bound. Issuer-blind: admitted
  /// adversarial blocks relay too — delivering more is always within the
  /// model.
  void relay(std::uint32_t entry, PartyId relayer, std::size_t slot);

  /// Adversarial targeted injection, visible to `recipient` at `visible_slot`
  /// (which cannot precede the block's own slot: the rushing adversary sees a
  /// block the instant it exists, never before). A direct channel in every
  /// mode — no topology, latency, or bandwidth applies. Covers a stored block
  /// for the recipient only when its parent already is by that slot.
  void inject(const Block& block, PartyId recipient, std::size_t visible_slot);

  /// Adversarial injection to everyone at the given slot: one shared round
  /// outside a fault window, one injection per party inside one.
  void inject_all(const Block& block, std::size_t visible_slot);

  /// Crash `recipient`: its undelivered deliveries and coverage entries are
  /// volatile endpoint state and are lost. The all-recipient bound covered
  /// this recipient's wiped in-flight messages too, so it is cleared as well
  /// (for everyone — a dropped entry only ever costs a re-ship).
  void crash_recipient(PartyId recipient);

  /// Re-sync delivery on heal/restart: schedule `block` for `recipient` at
  /// the onset of `slot` and cover it. Callers ship ancestors first (or
  /// blocks whose ancestry the recipient already holds), keeping coverage
  /// chain-complete.
  void resync_ship(const Block& block, PartyId recipient, std::size_t slot);

  /// Read the rounds due at the onset of `slot` once for every recipient
  /// (net::EventCore::sweep): true when each recipient's deliveries are
  /// exactly `*out` minus the rounds it is the `except` of, all consumed;
  /// false, with nothing consumed, when some recipient must collect alone.
  bool sweep(std::size_t slot, std::vector<net::Round>* out) { return events_.sweep(slot, out); }
  /// Hand `take(ref)` every delivery to `recipient` due at the onset of
  /// `slot`, in (due, seq) event order; block() resolves a ref. `take` may
  /// relay, never inject or broadcast.
  template <class Take>
  void collect(PartyId recipient, std::size_t slot, Take&& take) {
    require_party(recipient, "collect");
    events_.collect(recipient, slot, take);
  }
  /// Replace `*out` with collect()'s deliveries, resolved to blocks.
  void collect_into(PartyId recipient, std::size_t slot, std::vector<Block>* out);
  /// The block a delivered ref names: a store entry or a side-table block.
  [[nodiscard]] const Block& block(net::Ref ref) const;

  /// Deliveries scheduled so far: unchanged means nothing new was scheduled.
  [[nodiscard]] std::uint64_t scheduled() const noexcept { return events_.scheduled(); }

  /// Add the tallied shipping counters (protocol.net.blocks_shipped,
  /// blocks_relayed, coverage_hits) to the obs registry and reset them. A
  /// Simulation flushes at the end of every run_until.
  void flush_counts();

 private:
  static constexpr std::uint32_t kNever = 0xffffffffu;

  /// Per-recipient coverage entries: (recipient, store entry) -> due, as
  /// pooled rows of one due per party (kNever = no entry). An entry takes a
  /// row on its first write (the last freed row, if any) and keeps it until
  /// erase_entry resets and frees it.
  class EntryTable {
   public:
    explicit EntryTable(std::size_t parties) : parties_(parties) {}
    /// The entry's due, or kNever.
    [[nodiscard]] std::uint32_t find(PartyId recipient, std::uint32_t entry) const noexcept {
      const std::uint32_t row = entry < row_of_.size() ? row_of_[entry] : kNever;
      return row == kNever ? kNever : dues_[row * parties_ + recipient];
    }
    /// Insert, or keep the smaller due.
    void lower(PartyId recipient, std::uint32_t entry, std::uint32_t due);
    /// Erase `entry` for every recipient.
    void erase_entry(std::uint32_t entry);
    /// Erase every key of `recipient`; returns how many there were.
    std::size_t erase_recipient(PartyId recipient);
    /// No entry holds a row.
    [[nodiscard]] bool empty() const noexcept { return free_.size() * parties_ == dues_.size(); }

   private:
    std::size_t parties_;
    std::vector<std::uint32_t> row_of_;  ///< per store entry: its row, or kNever
    std::vector<std::uint32_t> dues_;    ///< row-major, `parties_` dues a row
    std::vector<std::uint32_t> free_;    ///< rows released by erase_entry
  };

  /// The coverage rule: will `recipient` hold `entry` with its whole
  /// ancestry by the onset of slot `due`?
  [[nodiscard]] bool covered(PartyId recipient, std::uint32_t entry, std::size_t due) const;
  /// The all-recipient half of `covered` (genesis included).
  [[nodiscard]] bool covered_all(std::uint32_t entry, std::size_t due) const;
  /// Write a per-recipient entry, keeping the tightest (smallest) due.
  void record(PartyId recipient, std::uint32_t entry, std::size_t due);
  /// Write an all-recipient entry and drop the entry's per-recipient ones.
  void record_all(std::uint32_t entry, std::size_t due);
  /// Every party holds `entry` with its whole ancestry by `due`: record_all
  /// it and each ancestor the bound does not yet cover by then.
  void fold(std::uint32_t entry, std::size_t due);
  /// The ref of `block`: its store entry if the store holds it byte-for-byte,
  /// else a new side-table index.
  net::Ref ref_of(const Block& block);
  /// The store entry of an honest send's block; binds `tree` as the store.
  std::uint32_t sent_entry(const BlockTree& tree, const Block& block, std::size_t slot);
  /// Throws naming `action` and the party unless `party` is one of ours.
  void require_party(PartyId party, const char* action) const {
    if (party >= parties_) unknown_party(party, action);
  }
  [[noreturn]] void unknown_party(PartyId party, const char* action) const;
  /// One injection of an already resolved ref (the down check, the ship and
  /// the chain-complete coverage).
  void inject_ref(net::Ref ref, PartyId recipient, std::size_t visible_slot);
  /// One link send to every out-neighbor of `sender`; returns blocks shipped.
  std::size_t send_round(std::uint32_t entry, PartyId sender, std::size_t slot,
                         const std::vector<std::size_t>& per_recipient_delay);
  /// The per-link path: ship the uncovered suffix of `entry`'s chain from
  /// `sender` to `recipient` as one bundle at one due; returns blocks shipped.
  std::size_t send_link(std::uint32_t entry, PartyId sender, PartyId recipient,
                        std::size_t slot, std::size_t hold, bool faulted);
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
  const BlockTree* store_ = nullptr;         ///< what store-entry refs index
  net::EventCore events_;                    ///< the delivery queues
  std::vector<Block> foreign_;               ///< the side table of tagged refs
  /// The all-recipient bound, per store entry (kNever = none): an entry here
  /// covers the block for EVERY recipient, which keeps the batched broadcast
  /// O(1) per shipped block.
  std::vector<std::uint32_t> all_due_;
  std::size_t all_count_ = 0;  ///< entries of all_due_ that are not kNever
  EntryTable sent_;            ///< the per-recipient entries
  struct Egress {
    std::size_t slot = 0;
    std::size_t used = 0;
  };
  std::vector<Egress> egress_;  ///< rolling bandwidth counters (capped configs only)
  std::vector<std::uint32_t> lift_scratch_;  ///< ancestors pending ship, reused
  struct Counts {
    std::size_t shipped = 0;
    std::size_t relayed = 0;
    std::size_t coverage_hits = 0;
  };
  Counts counts_;  ///< see flush_counts
};

}  // namespace mh
