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
// Per-slot cost is proportional to the slot's NEW blocks (chain-synced
// bucketed transport + incremental membership views), not to chain history.
// There is one block store, the global tree: every honest node's view is a
// membership set over its entries, so a block is stored and header-checked
// once, however many nodes receive it.
#pragma once

#include <memory>
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

/// What the fault layer observed over one faulted execution: the realized
/// synchrony bound plus the recovery accounting. `observed_delta` is the max
/// delay until a node could first ADOPT an honest block (chain-complete
/// acceptance — raw arrival undercounts: a partially-leaked block sits in the
/// orphan buffer extending nothing, and the observed-Delta fork projection
/// would then claim a synchrony the execution never had). Slots the recipient
/// spent crashed are discounted from the delay — a down endpoint cannot
/// receive and the restart re-sync delivers promptly — but only those slots:
/// a crash late in the window must not excuse the up slots during which the
/// network simply failed to deliver. `delivery_unbounded` flags
/// an honest block some up node could never adopt at all (an unhealed
/// partition or a link drop on a dead branch): observed Delta is infinite.
struct FaultReport {
  bool faulted = false;
  std::size_t observed_delta = 0;
  bool delivery_unbounded = false;
  std::size_t leaderships_skipped = 0;
  faults::FaultStats stats;
};

/// What a heterogeneous (non-degenerate NetConfig) execution realized as its
/// synchrony bound. `observed_delta` starts from the same chain-complete
/// adoption maximum the fault layer counts; honest blocks some up node has
/// STILL not adopted when the run ends inflate it to `last onset - forge
/// slot - down slots` — the smallest delay a future adoption could realize —
/// so the projection window stays open and the oracle never grades a gossip
/// run at a synchrony it has already beaten. Multi-hop topologies therefore
/// always grade ('d' at worst), never unbounded ('u'): every shape here is
/// strongly connected, so non-delivery is lateness, not partition.
struct NetReport {
  bool heterogeneous = false;
  std::size_t observed_delta = 0;
  std::size_t pending_inflations = 0;  ///< (block, node) pairs still undelivered
};

class Simulation {
 public:
  /// `delta` is the network delay bound (0 = synchronous). `faults`, when
  /// non-null, perturbs the execution per its FaultPlan (the injector must
  /// outlive the Simulation); fault events apply at slot onsets, before
  /// deliveries and forging. `net` selects the network shape; the default is
  /// the degenerate lockstep configuration (bit-identical to the pre-event-
  /// core transport), anything else runs the gossip paths and tracks the
  /// observed Delta for net_report().
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

  /// The fault layer's end-of-run audit (trivial when no injector attached):
  /// runs the non-delivery sweep lazily, so call it after the run completes.
  [[nodiscard]] FaultReport fault_report() const;

  /// The heterogeneous network's end-of-run audit: the observed Delta with
  /// pending-delivery inflation (see NetReport). Trivial for degenerate
  /// configurations; call it after the run completes.
  [[nodiscard]] NetReport net_report() const;

 private:
  void step();
  void deliver_due(std::size_t slot);
  /// Crash / restart / heal events due at the onset of `slot`, plus the
  /// re-sync shipping they trigger.
  void apply_fault_events(std::size_t slot);
  /// Ship `party` every public-view block missing from its tree, ancestors
  /// first (the public arrival order is parents-first), due at `slot`.
  void resync_node(PartyId party, std::size_t slot);
  void check_watches(std::size_t onset_slot);
  /// Mirror a node-accepted block into the public tree; out-of-order arrivals
  /// are buffered and flushed like a node's own orphan set.
  void public_add(const Block& block);
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
  std::size_t leaderships_skipped_ = 0;
  std::vector<PartyId> fault_scratch_;  ///< crash/restart event list reuse
  BlockTree public_tree_;  ///< blocks accepted by at least one honest node
  OrphanBuffer public_orphans_;
  std::vector<Block> all_blocks_;
  std::vector<Watch> watches_;
  std::vector<Block> delivery_scratch_;  ///< collect_into reuse
  std::vector<Block> accepted_scratch_;  ///< receive-accepted reuse
  Rng rng_;
  std::size_t next_slot_ = 1;
};

}  // namespace mh
