// The protocol execution driver: slot loop, delivery, forging, adversarial
// hooks, and the consistency measurements the benches report.
//
// Per slot t (matching Section 2's model):
//   1. due messages are delivered to each honest node (adversary-ordered);
//   2. the adversary acts (rushing: it has already seen everything broadcast
//      in earlier slots, may mint on adversarial leaderships and inject);
//   3. every honest leader of slot t forges one block on its best chain;
//      under AdversarialOrder the adversary breaks maximum-length ties
//      (axiom A0); under ConsistentHash the minimal head hash wins (A0');
//   4. honest blocks are broadcast; the adversary picks per-recipient delays
//      in [0, Delta] and observes the new blocks immediately.
//
// Per-slot cost is proportional to the slot's NEW blocks times the parties
// that receive them, not to chain history, and the per-recipient share of it
// is small. There is one block store, the global tree: every honest node's
// view is one column of its membership matrix, so a block is stored and
// header-checked once, however many nodes receive it. The transport carries
// 32-bit store entries from send to admission: a block shipped to everyone is
// one shared round that every node reads through its own cursor, and the
// issuance ("signature") check of an entry runs once, at its first delivery,
// and is cached. Per node and delivered entry there remain a bit test, a
// parent bit test, a bit set and a head offer on its column; blocks the store
// does not hold byte-for-byte, and ineligible entries, take the full
// receive() path.
//
// A delivery round is slot-batched when it can be: with every node up and
// the event core able to sweep (no private delivery queued, every cursor
// aligned, no round below a crash floor), the slot's due rounds are read
// once and each is resolved once (its admission path, and for a stored
// entry the matrix words, bits, length and hash every view's admission
// reads), and the one table is admitted node by node. Otherwise each node
// collects its own merged deliveries. Both loops admit through one
// stored-admission routine, and processing stays node-major in both, so each
// node's acceptance sequence, relays and the public arrival order are those
// of per-node collection. A delivery round at a slot already swept, with
// nothing scheduled since, is skipped outright (the round after the
// adversary's turn usually is), and an entry already mirrored into the
// public tree costs a flag test, not a call.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "protocol/faults/injector.hpp"
#include "protocol/leader.hpp"
#include "protocol/network.hpp"
#include "protocol/node.hpp"

namespace mh {

class Simulation;

/// Adversarial strategy interface. The default implementations are the
/// "null" adversary: no minting, no delays, ties broken by arrival order.
class Adversary {
 public:
  virtual ~Adversary() = default;
  virtual void begin(Simulation&) {}
  /// Start of slot t, after deliveries, before honest forging.
  virtual void on_slot_begin(std::size_t, Simulation&) {}
  /// Rushing observation of a slot-t honest block; returns per-recipient extra
  /// delays in [0, Delta] (empty = deliver everywhere at t+1).
  virtual std::vector<std::size_t> delivery_delays(const Block&, std::size_t, Simulation&) {
    return {};
  }
  /// Axiom A0 tie-breaking: choose among the node's maximum-length heads
  /// (given in arrival order).
  virtual BlockHash break_tie(PartyId, const std::vector<BlockHash>& candidates, Simulation&) {
    return candidates.front();
  }
};

struct SimulationConfig {
  TieBreak tie_break = TieBreak::AdversarialOrder;
  std::uint64_t seed = 42;
};

/// What one execution realized as its synchrony bound, from one end-of-run
/// sweep over blocks x nodes. `observed_delta` is the max delay until a node
/// could first ADOPT an honest block (chain-complete acceptance: raw arrival
/// undercounts, since a partially-leaked block sits in the orphan buffer
/// extending nothing). Slots the recipient spent crashed are discounted, but
/// only those: a crash late in the window must not excuse the up slots during
/// which the network simply failed to deliver.
///
/// The sweep then reads the blocks some up node has not adopted, by shape:
///   * lockstep (faulted runs only): an honest block whose Delta window
///     closed and that some node up through the window never adopted (an
///     unhealed partition, or a link drop on a branch no one extended) sets
///     `delivery_unbounded`: observed Delta is infinite;
///   * gossip (a non-degenerate NetConfig): every such (block, node) pair
///     counts in `pending_inflations` and raises `observed_delta` to `last
///     onset - forge slot - down slots`, the smallest delay a future adoption
///     could realize, so the projection window stays open. Every shape there
///     is strongly connected, so non-delivery is lateness, never unbounded.
struct DeliveryAudit {
  bool faulted = false;        ///< a FaultInjector was attached
  bool heterogeneous = false;  ///< a non-degenerate NetConfig shaped the transport
  std::size_t observed_delta = 0;
  bool delivery_unbounded = false;
  std::size_t pending_inflations = 0;  ///< (block, node) pairs still undelivered
  faults::FaultStats stats;            ///< the injector's accounting, or all zero
  /// stats.leaderships_skipped, under the name the FaultReport alias carries.
  std::size_t leaderships_skipped = 0;
};
/// The audit's former names, kept while perfbench's phase-split oracle
/// compiles against them.
using FaultReport = DeliveryAudit;
using NetReport = DeliveryAudit;

class Simulation {
 public:
  /// `delta` is the network delay bound (0 = synchronous). `faults`, when
  /// non-null, perturbs the execution per its FaultPlan (the injector must
  /// outlive the Simulation and serve this execution alone: its stats must
  /// still be zero); fault events apply at slot onsets, before deliveries and
  /// forging. `net` selects the network shape; the default is the degenerate
  /// lockstep configuration (bit-identical to the pre-event-core transport),
  /// anything else runs the gossip paths and tracks the observed Delta for
  /// delivery_audit().
  Simulation(const ScheduleSource& schedule, SimulationConfig config, std::size_t delta,
             Adversary* adversary, faults::FaultInjector* faults = nullptr,
             net::NetConfig net = {});

  // The nodes' views point into global_tree_: neither copyable nor movable.
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  Simulation(Simulation&&) = delete;
  Simulation& operator=(Simulation&&) = delete;

  void run();                          ///< all slots 1..horizon
  void run_until(std::size_t slot);    ///< slots up to and including `slot`

  [[nodiscard]] std::size_t current_slot() const noexcept { return next_slot_ - 1; }
  [[nodiscard]] const ScheduleSource& schedule() const noexcept { return schedule_; }
  [[nodiscard]] Network& network() noexcept { return network_; }
  [[nodiscard]] const std::vector<HonestNode>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] TieBreak tie_break() const noexcept { return config_.tie_break; }

  /// Adversarial minting on an eligible slot; the block is recorded but NOT
  /// delivered (use network().inject*). The adversary can mint any number of
  /// blocks per adversarial leadership, on any parent it has seen.
  Block mint_adversarial(BlockHash parent, std::size_t slot, std::uint64_t payload);

  /// The omniscient view and the execution's one block store: every block
  /// ever forged or minted, plus any block the simulation never recorded
  /// (a raw injection) once an honest node first admitted it. Every honest
  /// node's view is a membership set over this tree's entries.
  [[nodiscard]] const BlockTree& global_tree() const noexcept { return global_tree_; }
  [[nodiscard]] const std::vector<Block>& all_blocks() const noexcept { return all_blocks_; }

  /// The public view: every block accepted by at least one honest node,
  /// whether on first delivery or later via an orphan flush.
  [[nodiscard]] const BlockTree& public_tree() const noexcept { return public_tree_; }

  // --- consistency measurements -------------------------------------------

  /// Definition 3 on the *public* fork (all blocks delivered to at least one
  /// honest node): two maximum-length public chains diverging prior to slot s.
  /// This is what the settlement game checks — either chain could be handed to
  /// an honest observer by ordering deliveries.
  [[nodiscard]] bool observed_settlement_violation(std::size_t s) const;

  /// Register a settlement watch BEFORE running: from the first observation at
  /// or after the close of slot s + k, remember the slot-s prefix adopted by
  /// maximal honest chains; the watch fires if that prefix ever changes
  /// (a reorg past the confirmation depth) or two maximal nodes disagree.
  void watch_settlement(std::size_t s, std::size_t k);
  [[nodiscard]] bool settlement_watch_violated(std::size_t s) const;

  /// Largest depth-k common-prefix breach among honest chains: do two adopted
  /// chains differ in a block at slot <= l(head) - k (k-CP^slot across nodes)?
  [[nodiscard]] bool observed_cp_slot_violation(std::size_t k) const;

  /// Max over pairs of honest chains of l(t1) - l(common ancestor).
  [[nodiscard]] std::size_t observed_slot_divergence() const;

  /// The end-of-run delivery audit (see DeliveryAudit); call it after the
  /// run completes.
  [[nodiscard]] DeliveryAudit delivery_audit() const;
  [[nodiscard]] FaultReport fault_report() const { return delivery_audit(); }
  [[nodiscard]] NetReport net_report() const { return delivery_audit(); }

 private:
  void step();
  /// Deliver everything due at the onset of `slot`; returns the deliveries.
  std::size_t deliver_due(std::size_t slot);
  /// Tally one slot's deliveries and self-receipts into counts_.
  void count_received(std::size_t delivered, std::size_t self_received);
  /// The rest of a delivery to `node` at `slot`, for every entry in
  /// accepted_ in order: ratchet_and_relay on faulted and gossip runs, then
  /// the public mirror.
  void spread_accepted(PartyId node, std::size_t slot);
  /// The faulted and gossip share of `node` admitting `entry` at `slot`: the
  /// observed-Delta ratchet, then, on gossip, the relay.
  void ratchet_and_relay(PartyId node, std::uint32_t entry, std::size_t slot);
  /// Is `ref` a stored entry whose issuance check passed? Its admission is
  /// then a few bit tests; anything else takes the full receive() path.
  [[nodiscard]] bool stored_path(net::Ref ref) {
    return !net::is_foreign(ref) && eligible_entry(ref);
  }
  /// `node`'s admission of `ref` (`stored`: see stored_path), the stored
  /// path resolving the entry for this one view: every entry admitted is
  /// appended to accepted_.
  void admit(HonestNode& node, net::Ref ref, bool stored);
  /// The schedule's issuance check of a stored entry, cached per entry.
  [[nodiscard]] bool eligible_entry(std::uint32_t entry);
  /// The flags of a global-tree entry (see EntryFlag).
  [[nodiscard]] std::uint8_t& entry_flags(std::uint32_t entry);
  /// Crash / restart / heal events due at the onset of `slot`, plus the
  /// re-sync shipping they trigger.
  void apply_fault_events(std::size_t slot);
  /// Ship `party` every public-view block missing from its tree, ancestors
  /// first (the public arrival order is parents-first), due at `slot`.
  void resync_node(PartyId party, std::size_t slot);
  void check_watches(std::size_t onset_slot);
  /// Mirror a node-accepted store entry into the public tree (once per
  /// entry). An entry already offered costs only the flag test.
  void public_add(std::uint32_t entry) {
    if (entry >= entry_flags_.size() || (entry_flags_[entry] & kMirrored) == 0) mirror(entry);
  }
  /// public_add's first offer of `entry`.
  [[gnu::noinline]] void mirror(std::uint32_t entry);
  /// The distinct best heads currently adopted across the honest nodes.
  [[nodiscard]] std::vector<BlockHash> distinct_best_heads() const;
  /// The slot-s prefix (deepest block with slot <= s) of the chain at `head`.
  [[nodiscard]] BlockHash prefix_at(BlockHash head, std::size_t s) const;

  struct Watch {
    std::size_t s = 0;
    std::size_t k = 0;
    bool has_record = false;
    BlockHash recorded_prefix = 0;
    bool violated = false;
  };

  const ScheduleSource& schedule_;
  SimulationConfig config_;
  Network network_;
  Adversary* adversary_;               // may be null
  faults::FaultInjector* faults_;      // may be null (the common case)
  bool fault_active_ = false;          ///< faults_ set AND its plan non-empty
  bool hetero_ = false;                ///< non-degenerate NetConfig attached
  BlockTree global_tree_;              ///< the block store the node views share
  std::vector<HonestNode> nodes_;
  std::size_t observed_delta_ = 0;     ///< max counted honest acceptance delay
  std::vector<PartyId> fault_scratch_;  ///< crash/restart event list reuse
  BlockTree public_tree_;  ///< blocks accepted by at least one honest node
  std::vector<Block> all_blocks_;
  std::vector<Watch> watches_;
  /// Per global-tree entry: kChecked / kEligible cache the issuance check,
  /// kMirrored marks an entry already offered to the public tree.
  enum EntryFlag : std::uint8_t { kChecked = 1, kEligible = 2, kMirrored = 4 };
  std::vector<std::uint8_t> entry_flags_;
  std::vector<net::Round> rounds_;             ///< a sweep's rounds, reused
  /// One swept round, resolved once for every node. `resolved` is set when
  /// the round takes the stored path.
  struct SweptRound {
    TreeView::Resolved resolved;
    net::Ref ref;
    PartyId except;
    bool stored;
  };
  std::vector<SweptRound> swept_;              ///< a sweep's table, reused
  std::vector<std::uint32_t> accepted_;        ///< admitted entries, reused
  std::vector<std::pair<BlockHash, BlockHash>> prefixes_;  ///< (head, prefix) memo
  /// The slot loop's obs counters, added to the registry once per run_until:
  /// a hook costs ~10 ns, a measurable share of a slot that costs a few
  /// microseconds.
  struct Counts {
    std::size_t slots = 0;
    std::size_t forged = 0;
    std::size_t delivered = 0;
    std::size_t received = 0;
  };
  Counts counts_;
  /// The last full delivery sweep: its slot and the network's schedule count
  /// after it. A sweep at the same slot with nothing scheduled since is moot.
  std::size_t swept_slot_ = static_cast<std::size_t>(-1);
  std::uint64_t swept_scheduled_ = 0;
  Rng rng_;
  std::size_t next_slot_ = 1;
};

}  // namespace mh
