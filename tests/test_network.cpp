#include "protocol/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <string>

#include "protocol/faults/injector.hpp"
#include "protocol/net/link_key.hpp"
#include "protocol/node.hpp"

namespace mh {
namespace {

// Tests drain through the same collect_into the simulation hot loop uses.
std::vector<Block> drain(Network& net, PartyId recipient, std::size_t slot) {
  std::vector<Block> due;
  net.collect_into(recipient, slot, &due);
  return due;
}

TEST(Network, SynchronousBroadcastArrivesNextSlot) {
  Network net(3, 0);
  BlockTree tree;
  const Block b = make_block(genesis_block().hash, 1, 2, 0);
  tree.add(b);
  net.broadcast_chain(tree, b, 1);
  EXPECT_TRUE(drain(net, 0, 1).empty());
  const auto due = drain(net, 0, 2);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].hash, b.hash);
  EXPECT_TRUE(drain(net, 0, 3).empty());  // consumed
  // Other recipients get their own copies; the forger already holds it.
  EXPECT_EQ(drain(net, 1, 2).size(), 1u);
  EXPECT_TRUE(drain(net, 2, 2).empty());
}

TEST(Network, CollectIntoClearsAStaleBuffer) {
  // The buffer is cleared before filling: stale contents must not leak into
  // a delivery round.
  Network net(3, 0);
  BlockTree tree;
  const Block b = make_block(genesis_block().hash, 1, 2, 0);
  tree.add(b);
  net.broadcast_chain(tree, b, 1);
  std::vector<Block> buf(7, genesis_block());
  net.collect_into(0, 2, &buf);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0].hash, b.hash);
  net.collect_into(0, 3, &buf);  // nothing due: the old delivery is gone too
  EXPECT_TRUE(buf.empty());
  net.collect_into(1, 2, &buf);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0].hash, b.hash);
}

TEST(Network, DelaysBoundedByDelta) {
  Network net(3, 3);
  BlockTree tree;
  const Block b = make_block(genesis_block().hash, 1, 2, 0);
  tree.add(b);
  net.broadcast_chain(tree, b, 1, {0, 3, 0});
  EXPECT_EQ(drain(net, 0, 2).size(), 1u);
  EXPECT_TRUE(drain(net, 1, 2).empty());
  EXPECT_TRUE(drain(net, 1, 4).empty());
  EXPECT_EQ(drain(net, 1, 5).size(), 1u);
}

TEST(Network, RejectsDelaysPastDelta) {
  Network net(2, 1);
  BlockTree tree;
  const Block b = make_block(genesis_block().hash, 1, 0, 0);
  tree.add(b);
  // Past Delta on the per-recipient path (either party, the forger's own
  // entry included) and on the uniform path, then delay vectors of the
  // wrong size.
  EXPECT_THROW(net.broadcast_chain(tree, b, 1, {0, 2}), std::invalid_argument);
  EXPECT_THROW(net.broadcast_chain(tree, b, 1, {2, 0}), std::invalid_argument);
  EXPECT_THROW(net.broadcast_chain(tree, b, 1, {2, 2}), std::invalid_argument);
  EXPECT_THROW(net.broadcast_chain(tree, b, 1, {0}), std::invalid_argument);
  EXPECT_THROW(net.broadcast_chain(tree, b, 1, {0, 0, 0}), std::invalid_argument);
}

TEST(Network, RejectsOutOfRangeRecipients) {
  Network net(2, 0);
  const Block b = make_block(genesis_block().hash, 1, kAdversary, 0);
  EXPECT_THROW(net.inject(b, 2, 1), std::invalid_argument);
  EXPECT_THROW(net.inject(b, kAdversary, 1), std::invalid_argument);
  std::vector<Block> buf;
  EXPECT_THROW(net.collect_into(2, 1, &buf), std::invalid_argument);
}

TEST(Network, RejectsNonMonotoneSlots) {
  // A block sent or made visible before its own slot would let the adversary
  // rewrite delivery history; every entry point rejects it up front.
  Network net(2, 1);
  BlockTree tree;
  const Block b = make_block(genesis_block().hash, 3, 0, 0);
  tree.add(b);
  EXPECT_THROW(net.broadcast_chain(tree, b, 2), std::invalid_argument);
  EXPECT_THROW(net.inject(b, 0, 2), std::invalid_argument);
  EXPECT_THROW(net.inject_all(b, 2), std::invalid_argument);
  // Sending at exactly the block's slot is the boundary and is legal.
  net.broadcast_chain(tree, b, 3);
  EXPECT_EQ(drain(net, 1, 4).size(), 1u);
}

TEST(Network, BroadcastNeedsAnHonestIssuer) {
  Network net(2, 0);
  BlockTree tree;
  const Block b = make_block(genesis_block().hash, 1, kAdversary, 0);
  tree.add(b);
  EXPECT_THROW(net.broadcast_chain(tree, b, 1), std::invalid_argument);
}

TEST(Network, InjectionTargetsOneRecipient) {
  Network net(3, 0);
  const Block b = make_block(genesis_block().hash, 2, kAdversary, 0);
  net.inject(b, 1, 4);
  EXPECT_TRUE(drain(net, 0, 4).empty());
  EXPECT_EQ(drain(net, 1, 4).size(), 1u);
  EXPECT_TRUE(drain(net, 2, 4).empty());
}

TEST(Network, InjectAllReachesEveryone) {
  Network net(3, 0);
  const Block b = make_block(genesis_block().hash, 2, kAdversary, 0);
  net.inject_all(b, 3);
  for (PartyId p = 0; p < 3; ++p) EXPECT_EQ(drain(net, p, 3).size(), 1u);
}

TEST(Network, LateCollectionDeliversBacklog) {
  Network net(2, 0);
  BlockTree tree;
  const Block b1 = make_block(genesis_block().hash, 1, 0, 0);
  const Block b2 = make_block(b1.hash, 2, 0, 0);
  tree.add(b1);
  tree.add(b2);
  net.broadcast_chain(tree, b1, 1);
  net.broadcast_chain(tree, b2, 2);
  const auto due = drain(net, 1, 5);  // collected late: both blocks due
  EXPECT_EQ(due.size(), 2u);
}

TEST(Network, BucketedDeliveryOrdersBySlotThenScheduling) {
  // The bucketed transport's ordering contract: due slot first, scheduling
  // order within a slot (a backlog collect sees slot-ascending buckets).
  Network net(1, 0);
  const Block b1 = make_block(genesis_block().hash, 1, 0, 1);
  const Block b2 = make_block(genesis_block().hash, 2, kAdversary, 2);
  const Block b3 = make_block(genesis_block().hash, 3, kAdversary, 3);
  net.inject(b3, 0, 3);  // scheduled first but due later
  net.inject(b2, 0, 2);
  net.inject(b1, 0, 2);
  const auto due = drain(net, 0, 3);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].hash, b2.hash);
  EXPECT_EQ(due[1].hash, b1.hash);
  EXPECT_EQ(due[2].hash, b3.hash);
}

TEST(Network, BroadcastChainShipsMissingAncestorsThenOnlyNews) {
  Network net(3, 0);
  BlockTree tree;
  const Block a = make_block(genesis_block().hash, 1, 2, 0);
  const Block b = make_block(a.hash, 2, 2, 0);
  tree.add(a);
  tree.add(b);
  // The forger never shipped a: the chain sync ships [a, b] ancestors-first.
  net.broadcast_chain(tree, b, 2);
  auto due = drain(net, 0, 3);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].hash, a.hash);
  EXPECT_EQ(due[1].hash, b.hash);
  // The next forge ships ONLY the new block — the prefix is synced.
  const Block c = make_block(b.hash, 3, 2, 0);
  tree.add(c);
  net.broadcast_chain(tree, c, 3);
  due = drain(net, 0, 4);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].hash, c.hash);
  // A recipient collecting late still sees the whole backlog, chains first.
  due = drain(net, 1, 4);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].hash, a.hash);
  EXPECT_EQ(due[1].hash, b.hash);
  EXPECT_EQ(due[2].hash, c.hash);
}

TEST(Network, BroadcastChainReShipsAncestorsPastDelayedCopies) {
  // a is in flight to recipient 1 with a Delta-delay; a faster later block
  // must re-ship it so no recipient ever sees an orphan honest block.
  Network net(3, 2);
  BlockTree tree;
  const Block a = make_block(genesis_block().hash, 1, 2, 0);
  const Block b = make_block(a.hash, 2, 2, 0);
  tree.add(a);
  net.broadcast_chain(tree, a, 1, {0, 2, 0});  // recipient 1: due slot 4
  tree.add(b);
  net.broadcast_chain(tree, b, 2, {0, 0, 0});  // due slot 3 — overtakes a
  EXPECT_EQ(drain(net, 0, 2).size(), 1u);  // recipient 0 already has a
  const auto due = drain(net, 1, 3);
  ASSERT_EQ(due.size(), 2u);  // a re-shipped ahead of b
  EXPECT_EQ(due[0].hash, a.hash);
  EXPECT_EQ(due[1].hash, b.hash);
  // The original delayed copy still lands (a duplicate, harmless).
  EXPECT_EQ(drain(net, 1, 4).size(), 1u);
}

TEST(Network, InjectionCoversOnlyWhenChainComplete) {
  Network net(2, 0);
  BlockTree tree;
  const Block a = make_block(genesis_block().hash, 1, 1, 0);
  const Block b = make_block(a.hash, 2, 1, 0);
  const Block c = make_block(b.hash, 3, 1, 0);
  tree.add(a);
  tree.add(b);
  tree.add(c);

  // Partial adversarial disclosure: c alone, parent never shipped. Coverage
  // must NOT count it, or honest rebroadcasts would skip the prefix and
  // orphan c forever.
  net.inject(c, 0, 3);
  EXPECT_EQ(drain(net, 0, 3).size(), 1u);
  net.broadcast_chain(tree, c, 3);
  auto due = drain(net, 0, 4);
  ASSERT_EQ(due.size(), 3u);  // full chain re-shipped, ancestors first
  EXPECT_EQ(due[0].hash, a.hash);
  EXPECT_EQ(due[1].hash, b.hash);
  EXPECT_EQ(due[2].hash, c.hash);

  // Chain-complete injections of stored blocks DO cover: after the adversary
  // publishes a -> b in order, forging on b ships only the new block.
  Network net2(2, 0);
  net2.bind_store(tree);
  net2.inject_all(a, 1);
  net2.inject_all(b, 2);
  net2.broadcast_chain(tree, c, 3);
  EXPECT_EQ(drain(net2, 0, 2).size(), 2u);  // a, b
  due = drain(net2, 0, 4);
  ASSERT_EQ(due.size(), 1u);  // just c: the injected prefix is covered
  EXPECT_EQ(due[0].hash, c.hash);
}

TEST(Network, PerRecipientOrderIsDueThenSeqWhenEventsLandOutOfInsertionOrder) {
  // The event core's contract is (due, seq), NOT insertion order: a later
  // scheduling with an earlier due overtakes, and equal dues fall back to
  // scheduling order. Adversarial injections exercise this in the degenerate
  // configuration (honest lockstep sends alone never reorder).
  Network net(2, 4);
  const Block late = make_block(genesis_block().hash, 1, kAdversary, 1);
  const Block early = make_block(genesis_block().hash, 1, kAdversary, 2);
  const Block tied = make_block(genesis_block().hash, 1, kAdversary, 3);
  net.inject(late, 0, 5);   // scheduled first, lands last
  net.inject(early, 0, 2);  // overtakes with the earlier due
  net.inject(tied, 0, 5);   // ties `late` on due: seq breaks it, in that order
  const auto due = drain(net, 0, 6);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].payload, 2u);
  EXPECT_EQ(due[1].payload, 1u);
  EXPECT_EQ(due[2].payload, 3u);
}

TEST(Network, FoldCoversEveryoneAtTheRoundsLatestDueAndDropsEntries) {
  // A lockstep round with per-recipient dues (2 for party 0, 4 for party 1)
  // outside a fault window covers every party by its latest due, slot 4: b1
  // folds into the all-recipient bound there, and party 0's tighter entry
  // (due 2) is dropped.
  BlockTree tree;
  const Block b1 = make_block(genesis_block().hash, 1, 2, 1);
  const Block b2 = make_block(b1.hash, 2, 2, 2);
  tree.add(b1);
  tree.add(b2);
  const auto payloads = [](const std::vector<Block>& due) {
    std::vector<std::uint64_t> out;
    for (const Block& b : due) out.push_back(b.payload);
    return out;
  };
  using Payloads = std::vector<std::uint64_t>;
  {
    // A uniform round due at 4 finds b1 covered for everyone: b2 ships alone.
    Network net(3, 2);
    net.broadcast_chain(tree, b1, 1, {0, 2, 0});
    EXPECT_EQ(payloads(drain(net, 0, 2)), Payloads{1});
    net.broadcast_chain(tree, b2, 3);
    EXPECT_EQ(payloads(drain(net, 0, 4)), Payloads{2});
    EXPECT_EQ(payloads(drain(net, 1, 4)), Payloads({1, 2}));  // b1's own copy, then b2
  }
  {
    // Due 3 for party 0: the bound (4) does not answer and party 0's entry is
    // gone, so b1 ships again ahead of b2 — a duplicate, never an orphan.
    // Party 1's due is 4, where the bound answers.
    Network net(3, 2);
    net.broadcast_chain(tree, b1, 1, {0, 2, 0});
    EXPECT_EQ(payloads(drain(net, 0, 2)), Payloads{1});
    net.broadcast_chain(tree, b2, 2, {0, 1, 0});
    EXPECT_EQ(payloads(drain(net, 0, 3)), Payloads({1, 2}));
    EXPECT_EQ(payloads(drain(net, 1, 4)), Payloads({1, 2}));
  }
}

TEST(Network, ATamperedCopyNeverCoversTheGenuineBlock) {
  // A tampered copy keeps the honest block's hash but fails the header
  // check, so the recipient rejects it. Injected before the genuine block
  // reaches that party, it must not cover the genuine block: the per-link
  // send that follows still ships h.
  BlockTree tree;
  const Block h = make_block(genesis_block().hash, 1, 2, 0);
  tree.add(h);
  Block tampered = h;
  tampered.payload ^= 0xbad;
  {
    Network net(3, 1);
    net.bind_store(tree);
    net.inject(tampered, 1, 1);
    net.broadcast_chain(tree, h, 1, {0, 1, 0});
    EXPECT_EQ(drain(net, 1, 3), (std::vector<Block>{tampered, h}));
  }
  {
    // The same through inject_all's shared round.
    Network net(3, 1);
    net.bind_store(tree);
    net.inject_all(tampered, 1);
    net.broadcast_chain(tree, h, 1, {0, 1, 0});
    EXPECT_EQ(drain(net, 0, 2), (std::vector<Block>{tampered, h}));
    EXPECT_EQ(drain(net, 1, 3), (std::vector<Block>{tampered, h}));
  }
}

TEST(Network, ACrashBetweenSendAndDueDropsTheSharedCopy) {
  // Delta = 2: a block sent at slot 1 with a uniform hold-back of 2 is one
  // shared round due at slot 4. Party 1 crashes at slot 2 and restarts at
  // slot 3, before the due: its copy was volatile state and is lost, while
  // party 2 still gets its own.
  Network net(3, 2);
  BlockTree tree;
  const Block h = make_block(genesis_block().hash, 1, 0, 0);
  tree.add(h);
  net.broadcast_chain(tree, h, 1, {2, 2, 2});
  EXPECT_TRUE(drain(net, 1, 2).empty());
  net.crash_recipient(1);
  EXPECT_TRUE(drain(net, 1, 3).empty());
  EXPECT_TRUE(drain(net, 1, 4).empty());
  EXPECT_EQ(drain(net, 2, 4), std::vector<Block>{h});
}

TEST(Network, ACrashDropsTheCrashedRecipientsCoverage) {
  // x is injected to party 0 alone (chain-complete, so it covers x there),
  // then party 0 crashes: the queued copy and the coverage that claimed it
  // would land are both lost. y, forged on x, must ship x again ahead of
  // itself, or party 0 would hold y as an orphan.
  Network net(3, 1);
  BlockTree tree;
  const Block x = make_block(genesis_block().hash, 1, kAdversary, 0);
  const Block y = make_block(x.hash, 2, 1, 0);
  tree.add(x);
  tree.add(y);
  net.bind_store(tree);
  net.inject(x, 0, 2);
  net.crash_recipient(0);
  net.broadcast_chain(tree, y, 2, {1, 0, 0});
  EXPECT_TRUE(drain(net, 0, 3).empty());
  EXPECT_EQ(drain(net, 0, 4), (std::vector<Block>{x, y}));
}

TEST(Network, InjectAllAtACollectedSlotLandsAtTheNextCollect) {
  // Party 0 already collected slot 3 when the adversary injects to everyone
  // at visible slot 2: the injection still reaches party 0 at its next
  // collect, ahead of the due-4 broadcast queued before it.
  Network net(2, 0);
  BlockTree tree;
  const Block a = make_block(genesis_block().hash, 3, 1, 0);
  const Block b = make_block(genesis_block().hash, 2, kAdversary, 1);
  tree.add(a);
  tree.add(b);
  net.broadcast_chain(tree, a, 3);
  EXPECT_TRUE(drain(net, 0, 3).empty());
  net.inject_all(b, 2);
  EXPECT_EQ(drain(net, 0, 4), (std::vector<Block>{b, a}));
  EXPECT_EQ(drain(net, 1, 4), std::vector<Block>{b});  // a's forger gets only b
}

TEST(Network, PreservesSchedulingOrder) {
  Network net(1, 0);
  const Block b1 = make_block(genesis_block().hash, 1, 0, 1);
  const Block b2 = make_block(genesis_block().hash, 1, 1, 2);
  net.inject(b1, 0, 2);
  net.inject(b2, 0, 2);
  const auto due = drain(net, 0, 2);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].hash, b1.hash);
  EXPECT_EQ(due[1].hash, b2.hash);
}

// --- the no-coverage reference transport --------------------------------------

/// The reference's delivery queues: one plain priority queue of whole blocks
/// per recipient, popped by (due, seq) — no refs, no shared rounds, no
/// cursors.
class BlockQueues {
 public:
  explicit BlockQueues(std::size_t parties) : queues_(parties) {}
  void schedule(PartyId recipient, std::size_t due, const Block& block) {
    queues_[recipient].push(Entry{due, seq_++, block});
  }
  void collect(PartyId recipient, std::size_t slot, std::vector<Block>* out) {
    auto& queue = queues_[recipient];
    for (; !queue.empty() && queue.top().due <= slot; queue.pop()) out->push_back(queue.top().block);
  }
  void wipe(PartyId recipient) { queues_[recipient] = {}; }

 private:
  struct Entry {
    std::size_t due;
    std::uint64_t seq;
    Block block;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };
  std::vector<std::priority_queue<Entry, std::vector<Entry>, Later>> queues_;
  std::uint64_t seq_ = 0;
};

/// The transport with no coverage state: every honest link send ships the
/// sender's whole chain, ancestors first, at one due, through the same
/// topology, latency draws and fault verdicts as Network but its own queues,
/// and an injection ships exactly the block. Bandwidth caps are left out:
/// there a duplicate costs egress, so the two transports need not agree.
class ReferenceNetwork {
 public:
  ReferenceNetwork(std::size_t parties, std::size_t /*delta*/, net::NetConfig config)
      : config_(config),
        topology_(net::Topology::build(config.topology, parties, config.k, config.seed)),
        link_seeds_(config.seed),
        events_(parties) {}

  void attach_faults(faults::FaultInjector* faults) { faults_ = faults; }
  void bind_store(const BlockTree& store) { store_ = &store; }

  void broadcast_chain(const BlockTree& tree, const Block& block, std::size_t slot,
                       const std::vector<std::size_t>& delay) {
    send_round(tree, block, block.issuer, slot, delay);
  }
  void relay(std::uint32_t entry, PartyId relayer, std::size_t slot) {
    send_round(*store_, store_->entry_block(entry), relayer, slot, {});
  }
  void inject(const Block& block, PartyId recipient, std::size_t visible_slot) {
    if (faults_ != nullptr && faults_->is_down(recipient, visible_slot)) return;
    events_.schedule(recipient, visible_slot, block);
  }
  void inject_all(const Block& block, std::size_t visible_slot) {
    for (PartyId r = 0; r < topology_.parties(); ++r) inject(block, r, visible_slot);
  }
  void crash_recipient(PartyId recipient) { events_.wipe(recipient); }
  void resync_ship(const Block& block, PartyId recipient, std::size_t slot) {
    events_.schedule(recipient, slot, block);
  }
  void collect_into(PartyId recipient, std::size_t slot, std::vector<Block>* out) {
    out->clear();
    events_.collect(recipient, slot, out);
  }

 private:
  void send_round(const BlockTree& tree, const Block& block, PartyId sender, std::size_t slot,
                  const std::vector<std::size_t>& delay) {
    const bool faulted = faults_ != nullptr && faults_->window_active(slot);
    const std::vector<BlockHash> chain = tree.chain(block.hash);  // genesis first
    topology_.for_each_neighbor(sender, [&](PartyId r) {
      std::size_t due = slot + 1 + (delay.empty() ? 0 : delay[r]) + extra(slot, sender, r);
      faults::LinkVerdict link;
      if (faulted) {
        if (faults_->is_down(r, slot) || faults_->severed(sender, r, slot)) return;
        link = faults_->link_verdict(sender, r, slot);
        if (link.drop) return;
        due += link.extra_delay;
      }
      for (std::size_t i = 1; i < chain.size(); ++i) events_.schedule(r, due, tree.block(chain[i]));
      if (link.duplicate) events_.schedule(r, due, block);
    });
  }
  [[nodiscard]] std::size_t extra(std::size_t slot, PartyId sender, PartyId recipient) const {
    if (config_.latency.kind == net::LatencyKind::Degenerate) return config_.latency.fixed;
    Rng rng = link_seeds_.stream(net::link_stream_key(slot, sender, recipient, topology_.parties()));
    return config_.latency.draw(rng);
  }

  net::NetConfig config_;
  net::Topology topology_;
  engine::SeedSequence link_seeds_;
  faults::FaultInjector* faults_ = nullptr;
  const BlockTree* store_ = nullptr;  ///< what relayed entries index
  BlockQueues events_;
};

/// One transport with its own block store, honest nodes and public view,
/// driven the way Simulation drives its network: fault events at the slot
/// onset, deliveries (each admitted block relayed on a heterogeneous
/// network), forging, chain broadcast. Records every node's acceptance order.
template <class Transport>
class Side {
 public:
  Side(const LeaderSchedule& schedule, std::size_t delta, const net::NetConfig& net,
       const faults::FaultPlan& plan, TieBreak rule)
      : faults_(plan, schedule.honest_parties(), schedule.horizon()),
        transport_(schedule.honest_parties(), delta, net),
        hetero_(net.heterogeneous()),
        faulted_(!plan.empty()),
        accepted_(schedule.honest_parties()) {
    if (faulted_) transport_.attach_faults(&faults_);
    transport_.bind_store(store_);
    for (PartyId p = 0; p < schedule.honest_parties(); ++p)
      nodes_.emplace_back(p, rule, &schedule, &store_);
  }
  Side(const Side&) = delete;
  Side& operator=(const Side&) = delete;

  [[nodiscard]] bool down(PartyId p, std::size_t slot) const {
    return faulted_ && faults_.is_down(p, slot);
  }
  [[nodiscard]] const std::vector<BlockHash>& accepted(PartyId p) const { return accepted_[p]; }
  [[nodiscard]] std::size_t orphans(PartyId p) const { return nodes_[p].buffered_orphans(); }
  [[nodiscard]] const BlockTree& store() const { return store_; }
  [[nodiscard]] const BlockTree& public_view() const { return public_; }
  Transport& transport() { return transport_; }

  void fault_events(std::size_t slot) {
    if (!faulted_) return;
    std::vector<PartyId> parties;
    faults_.crashes_at(slot, &parties);
    for (const PartyId p : parties) {
      transport_.crash_recipient(p);
      nodes_[p].crash();
    }
    faults_.restarts_at(slot, &parties);
    for (const PartyId p : parties) resync(p, slot);
    if (faults_.heals_at(slot) != 0)
      for (const HonestNode& node : nodes_)
        if (!down(node.id(), slot)) resync(node.id(), slot);
  }

  void deliver(std::size_t slot) {
    std::vector<Block> due, admitted;
    for (HonestNode& node : nodes_) {
      if (down(node.id(), slot)) continue;
      transport_.collect_into(node.id(), slot, &due);
      for (const Block& b : due) {
        admitted.clear();
        node.receive(b, &admitted);
        for (const Block& a : admitted) {
          record(node.id(), a);
          if (hetero_) transport_.relay(store_.find_entry(a.hash), node.id(), slot);
        }
      }
    }
  }

  void mint(const Block& block) { store_.add(block); }

  Block forge(PartyId leader, std::size_t slot, std::uint64_t payload) {
    const Block block = nodes_[leader].forge(slot, payload);
    store_.add(block);
    std::vector<Block> admitted;
    nodes_[leader].receive(block, &admitted);
    for (const Block& a : admitted) record(leader, a);
    return block;
  }

 private:
  void record(PartyId p, const Block& block) {
    accepted_[p].push_back(block.hash);
    (void)public_.try_add(block);
  }
  void resync(PartyId p, std::size_t slot) {
    for (const BlockHash h : public_.arrival_order())
      if (h != genesis_block().hash && !nodes_[p].tree().contains(h))
        transport_.resync_ship(public_.block(h), p, slot);
  }

  faults::FaultInjector faults_;
  Transport transport_;
  bool hetero_;
  bool faulted_;
  BlockTree store_;
  BlockTree public_;
  std::vector<HonestNode> nodes_;
  std::vector<std::vector<BlockHash>> accepted_;
};

net::NetConfig random_shape(std::size_t parties, Rng& rng) {
  net::NetConfig net;
  net.topology = static_cast<net::TopologyKind>(rng.below(4));
  net.k = 1 + rng.below(parties - 1);
  switch (rng.below(4)) {
    case 0: net.latency = {net::LatencyKind::Degenerate, 0, 0, 0.5}; break;
    case 1: net.latency = {net::LatencyKind::Degenerate, 1, 0, 0.5}; break;
    case 2: net.latency = {net::LatencyKind::Uniform, 0, 2, 0.5}; break;
    default: net.latency = {net::LatencyKind::Geometric, 0, 3, 0.5}; break;
  }
  net.seed = rng();
  return net;
}

TEST(Network, DifferentialFuzzAgainstReferenceTransport) {
  // Network and the no-coverage reference, fed the same random operations:
  // honest broadcasts with per-recipient hold-backs within Delta, adversarial
  // mints released privately, as a bare tip or as a whole chain to one party
  // or to all, crashes with public-view re-sync, partitions, lossy links, and
  // relays of admitted blocks. Coverage never claims a block will be held
  // when it will not, so every node must accept the same blocks in the same
  // order on both sides, and buffer the same orphans, after every slot.
  Rng rng(0x7e57ab1e);
  for (int trial = 0; trial < 240; ++trial) {
    const std::size_t parties = 4 + rng.below(5);
    const std::size_t horizon = 24 + rng.below(24);
    const std::size_t delta = rng.below(3);
    const net::NetConfig net = random_shape(parties, rng);
    faults::FaultPlan plan;
    if (rng.bernoulli(0.5))
      plan = faults::sample_fault_plan(static_cast<faults::FaultProfile>(1 + rng.below(5)),
                                       parties, horizon, delta, rng);
    // A one-slot crash, shorter than a Delta hold-back: copies in flight
    // across it are lost although they land after the restart.
    const PartyId blip = static_cast<PartyId>(rng.below(parties));
    if (rng.bernoulli(0.5) && std::none_of(plan.churn.begin(), plan.churn.end(),
                                           [&](const auto& c) { return c.party == blip; })) {
      const std::size_t crash = 2 + rng.below(horizon - 2);
      plan.churn.push_back({blip, crash, crash + 1});
    }
    const TieBreak rule = rng.bernoulli(0.5) ? TieBreak::AdversarialOrder
                                             : TieBreak::ConsistentHash;
    const LeaderSchedule schedule =
        LeaderSchedule::from_symbol_law(SymbolLaw{0.4, 0.25, 0.35}, horizon, parties, rng);
    Side<Network> fast(schedule, delta, net, plan, rule);
    Side<ReferenceNetwork> ref(schedule, delta, net, plan, rule);
    const auto both = [&](const auto& op) {
      op(fast);
      op(ref);
    };
    const std::string shape = "trial " + std::to_string(trial) + ": " + net.describe() +
                              ", Delta " + std::to_string(delta) + ", plan " + plan.serialize();
    const auto agree = [&](std::size_t slot) {
      for (PartyId p = 0; p < parties; ++p) {
        ASSERT_EQ(fast.accepted(p), ref.accepted(p)) << shape << ", party " << p << " at slot "
                                                     << slot;
        ASSERT_EQ(fast.orphans(p), ref.orphans(p)) << shape << ", party " << p << " at slot "
                                                   << slot;
      }
    };
    std::vector<Block> minted{genesis_block()};
    std::vector<Block> honest;
    for (std::size_t t = 1; t <= horizon; ++t) {
      both([&](auto& side) {
        side.fault_events(t);
        side.deliver(t);
      });
      if (schedule.leaders(t).adversarial) {
        // Mint on a public max-length head or any earlier block, then release.
        const std::vector<BlockHash> heads = fast.public_view().max_length_heads();
        const BlockHash parent = rng.bernoulli(0.5)
                                     ? heads[rng.below(heads.size())]
                                     : minted[rng.below(minted.size())].hash;
        if (fast.store().block(parent).slot < t) {
          const Block m = make_block(parent, t, kAdversary, rng());
          minted.push_back(m);
          both([&](auto& side) { side.mint(m); });
          const std::size_t visible = t + rng.below(delta + 1);
          const std::vector<BlockHash> chain = fast.store().chain(m.hash);
          const PartyId victim = static_cast<PartyId>(rng.below(parties));
          const std::uint64_t release = rng.below(5);
          const std::uint64_t subset = rng();
          // A tampered copy of an honest block, the latest one or any: it
          // keeps the block's hash, so it must not cover the genuine one.
          Block tampered = honest.empty() ? genesis_block()
                                          : (rng.bernoulli(0.5) ? honest.back()
                                                                : honest[rng.below(honest.size())]);
          tampered.payload ^= 0xbad;
          both([&](auto& side) {
            switch (release) {
              case 0: break;  // private for now
              case 1:         // the bare tip to a subset: chain-incomplete
                for (PartyId p = 0; p < parties; ++p)
                  if ((subset >> p) & 1u) side.transport().inject(m, p, visible);
                break;
              case 2:  // the whole chain to one party
                for (std::size_t i = 1; i < chain.size(); ++i)
                  side.transport().inject(side.store().block(chain[i]), victim, visible);
                break;
              case 3:  // a tampered copy of an honest block to a subset
                if (honest.empty()) break;
                for (PartyId p = 0; p < parties; ++p)
                  if ((subset >> p) & 1u) side.transport().inject(tampered, p, t);
                break;
              default:  // the whole chain to everyone
                for (std::size_t i = 1; i < chain.size(); ++i)
                  side.transport().inject_all(side.store().block(chain[i]), visible);
            }
          });
        }
        both([&](auto& side) { side.deliver(t); });
      }
      for (const PartyId leader : schedule.leaders(t).honest) {
        if (fast.down(leader, t)) continue;
        const std::uint64_t payload = rng();
        const Block block = fast.forge(leader, t, payload);
        ASSERT_EQ(ref.forge(leader, t, payload), block) << shape;
        minted.push_back(block);
        honest.push_back(block);
        std::vector<std::size_t> hold;
        if (rng.bernoulli(0.5)) {
          hold.assign(parties, rng.below(delta + 1));
          if (rng.bernoulli(0.5))
            for (std::size_t& d : hold) d = rng.below(delta + 1);
        }
        both([&](auto& side) { side.transport().broadcast_chain(side.store(), block, t, hold); });
      }
      agree(t);
      if (HasFatalFailure()) return;
    }
    both([&](auto& side) { side.deliver(horizon + 1); });
    agree(horizon + 1);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace mh
