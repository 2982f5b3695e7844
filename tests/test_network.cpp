#include "protocol/network.hpp"

#include <gtest/gtest.h>

#include "protocol/faults/injector.hpp"

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
  const Block b = make_block(genesis_block().hash, 1, 0, 0);
  tree.add(b);
  net.broadcast_chain(tree, b, 1);
  EXPECT_TRUE(drain(net, 0, 1).empty());
  const auto due = drain(net, 0, 2);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].hash, b.hash);
  EXPECT_TRUE(drain(net, 0, 3).empty());  // consumed
  // Other recipients get their own copies.
  EXPECT_EQ(drain(net, 1, 2).size(), 1u);
  EXPECT_EQ(drain(net, 2, 2).size(), 1u);
}

TEST(Network, CollectIntoClearsAStaleBuffer) {
  // The buffer is cleared before filling: stale contents must not leak into
  // a delivery round.
  Network net(2, 0);
  BlockTree tree;
  const Block b = make_block(genesis_block().hash, 1, 0, 0);
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
  Network net(2, 3);
  BlockTree tree;
  const Block b = make_block(genesis_block().hash, 1, 0, 0);
  tree.add(b);
  net.broadcast_chain(tree, b, 1, {0, 3});
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
  // Past Delta on the per-recipient path (either party) and on the uniform
  // path, then delay vectors of the wrong size.
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
  EXPECT_EQ(drain(net, 0, 4).size(), 1u);
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
  Network net(1, 0);
  BlockTree tree;
  const Block b1 = make_block(genesis_block().hash, 1, 0, 0);
  const Block b2 = make_block(b1.hash, 2, 0, 0);
  tree.add(b1);
  tree.add(b2);
  net.broadcast_chain(tree, b1, 1);
  net.broadcast_chain(tree, b2, 2);
  const auto due = drain(net, 0, 5);  // collected late: both blocks due
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
  Network net(2, 0);
  BlockTree tree;
  const Block a = make_block(genesis_block().hash, 1, 0, 0);
  const Block b = make_block(a.hash, 2, 0, 0);
  tree.add(a);
  tree.add(b);
  // The forger never shipped a: the chain sync ships [a, b] ancestors-first.
  net.broadcast_chain(tree, b, 2);
  auto due = drain(net, 0, 3);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].hash, a.hash);
  EXPECT_EQ(due[1].hash, b.hash);
  // The next forge ships ONLY the new block — the prefix is synced.
  const Block c = make_block(b.hash, 3, 0, 0);
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
  Network net(2, 2);
  BlockTree tree;
  const Block a = make_block(genesis_block().hash, 1, 0, 0);
  const Block b = make_block(a.hash, 2, 0, 0);
  tree.add(a);
  net.broadcast_chain(tree, a, 1, {0, 2});  // recipient 1: due slot 4
  tree.add(b);
  net.broadcast_chain(tree, b, 2, {0, 0});  // due slot 3 — overtakes a
  EXPECT_EQ(drain(net, 0, 2).size(), 1u);  // recipient 0 already has a
  const auto due = drain(net, 1, 3);
  ASSERT_EQ(due.size(), 2u);  // a re-shipped ahead of b
  EXPECT_EQ(due[0].hash, a.hash);
  EXPECT_EQ(due[1].hash, b.hash);
  // The original delayed copy still lands (a duplicate, harmless).
  EXPECT_EQ(drain(net, 1, 4).size(), 1u);
}

TEST(Network, InjectionAdvancesWatermarkOnlyWhenChainComplete) {
  Network net(1, 0);
  BlockTree tree;
  const Block a = make_block(genesis_block().hash, 1, 0, 0);
  const Block b = make_block(a.hash, 2, 0, 0);
  const Block c = make_block(b.hash, 3, 0, 0);
  tree.add(a);
  tree.add(b);
  tree.add(c);

  // Partial adversarial disclosure: c alone, parent never shipped. The
  // watermark must NOT count it, or honest rebroadcasts would skip the
  // prefix and orphan c forever.
  net.inject(c, 0, 3);
  EXPECT_EQ(drain(net, 0, 3).size(), 1u);
  net.broadcast_chain(tree, c, 3);
  auto due = drain(net, 0, 4);
  ASSERT_EQ(due.size(), 3u);  // full chain re-shipped, ancestors first
  EXPECT_EQ(due[0].hash, a.hash);
  EXPECT_EQ(due[1].hash, b.hash);
  EXPECT_EQ(due[2].hash, c.hash);

  // Chain-complete injections DO advance the watermark: after the adversary
  // publishes a -> b in order, forging on b ships only the new block.
  Network net2(1, 0);
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

TEST(Network, WatermarkExpiresAtExactlyDuePlusDeltaPlusOne) {
  // A benign link-fault window (every probability zero) perturbs nothing but
  // keeps rounds non-uniform, so coverage lives ONLY in the per-recipient
  // watermarks — making their expiry boundary observable: once the slot-2
  // entry for b1 expires, a later broadcast of its child re-ships b1.
  faults::FaultPlan plan;
  plan.links.push_back({1, 32, 0.0, 0.0, 0.0, 0});
  const std::size_t delta = 2;
  const auto deliveries_after = [&](std::size_t collect_slot) {
    faults::FaultInjector injector(plan, 2, 32);
    Network net(2, delta);
    net.attach_faults(&injector);
    BlockTree tree;
    const Block b1 = make_block(genesis_block().hash, 1, 0, 1);
    const Block b2 = make_block(b1.hash, 2, 1, 2);
    tree.add(b1);
    tree.add(b2);
    net.broadcast_chain(tree, b1, 1);       // due 2: expiry lands at 2 + delta + 1
    (void)drain(net, 1, collect_slot);      // consumes b1; runs the expiry sweep
    net.broadcast_chain(tree, b2, collect_slot);
    return drain(net, 1, collect_slot + 1);
  };
  // Collecting at due + delta (slot 4): the watermark still answers, so the
  // child ships alone.
  const auto covered = deliveries_after(4);
  ASSERT_EQ(covered.size(), 1u);
  EXPECT_EQ(covered[0].payload, 2u);
  // One slot later — exactly due + delta + 1 — the entry is gone and the
  // chain sync re-ships the ancestor, ancestors-first.
  const auto expired = deliveries_after(5);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].payload, 1u);
  EXPECT_EQ(expired[1].payload, 2u);
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

}  // namespace
}  // namespace mh
