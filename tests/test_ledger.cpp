#include "protocol/ledger.hpp"

#include <gtest/gtest.h>

namespace mh {
namespace {

struct LedgerFixture {
  BlockTree tree;
  PayloadStore store;
  Block a1, a2, b1, b2;

  LedgerFixture() {
    // Two branches from genesis: a1 -> a2 (the "honest" chain) and b1 -> b2
    // (the attacker's chain). tx 1 and tx 2 spend the same coin (class 7).
    a1 = make_block(genesis_block().hash, 1, 0, 0);
    a2 = make_block(a1.hash, 2, 1, 0);
    b1 = make_block(genesis_block().hash, 3, kAdversary, 0);
    b2 = make_block(b1.hash, 4, kAdversary, 0);
    for (const Block& b : {a1, a2, b1, b2}) tree.add(b);
    store.attach(a1.hash, {Transaction{1, 7, 0, 100}});
    store.attach(b1.hash, {Transaction{2, 7, 9, 100}});
  }
};

TEST(Ledger, ReplayAcceptsFirstPerConflictClass) {
  LedgerFixture fx;
  const LedgerState state = replay_chain(fx.tree, fx.a2.hash, fx.store);
  ASSERT_EQ(state.accepted.size(), 1u);
  EXPECT_EQ(state.accepted[0].id, 1u);
  EXPECT_TRUE(state.rejected.empty());
}

TEST(Ledger, ConflictingTransactionOnOneChainIsRejected) {
  LedgerFixture fx;
  // A later block on the a-chain tries to respend class 7.
  const Block a3 = make_block(fx.a2.hash, 5, 0, 0);
  fx.tree.add(a3);
  fx.store.attach(a3.hash, {Transaction{3, 7, 2, 100}});
  const LedgerState state = replay_chain(fx.tree, a3.hash, fx.store);
  ASSERT_EQ(state.accepted.size(), 1u);
  EXPECT_EQ(state.accepted[0].id, 1u);
  ASSERT_EQ(state.rejected.size(), 1u);
  EXPECT_EQ(state.rejected[0].id, 3u);
}

TEST(Ledger, DuplicateTransactionIdRejected) {
  LedgerFixture fx;
  const Block a3 = make_block(fx.a2.hash, 5, 0, 0);
  fx.tree.add(a3);
  fx.store.attach(a3.hash, {Transaction{1, 7, 0, 100}});  // replayed tx
  const LedgerState state = replay_chain(fx.tree, a3.hash, fx.store);
  EXPECT_EQ(state.accepted.size(), 1u);
  EXPECT_EQ(state.rejected.size(), 1u);
}

TEST(Ledger, ConfirmedSpendRespectsDepth) {
  LedgerFixture fx;
  // tx 1 sits in a1, buried by one block (a2): depth 1.
  EXPECT_TRUE(confirmed_spend(fx.tree, fx.a2.hash, fx.store, 7, 1).has_value());
  EXPECT_FALSE(confirmed_spend(fx.tree, fx.a2.hash, fx.store, 7, 2).has_value());
  EXPECT_FALSE(confirmed_spend(fx.tree, fx.a2.hash, fx.store, 42, 0).has_value());
}

TEST(Ledger, DoubleSpendDetection) {
  LedgerFixture fx;
  // Both chains confirm different class-7 transactions at depth 1.
  EXPECT_TRUE(double_spend_succeeded(fx.tree, fx.a2.hash, fx.b2.hash, fx.store, 7, 1));
  // Same chain twice: no double spend.
  EXPECT_FALSE(double_spend_succeeded(fx.tree, fx.a2.hash, fx.a2.hash, fx.store, 7, 1));
  // Depth too large: the spends are not confirmed.
  EXPECT_FALSE(double_spend_succeeded(fx.tree, fx.a2.hash, fx.b2.hash, fx.store, 7, 3));
}

TEST(Ledger, AttachReplaces) {
  PayloadStore store;
  store.attach(5, {Transaction{1, 1, 0, 1}});
  store.attach(5, {Transaction{2, 2, 0, 2}});
  ASSERT_NE(store.batch(5), nullptr);
  EXPECT_EQ(store.batch(5)->at(0).id, 2u);
  EXPECT_EQ(store.batch(99), nullptr);
}

}  // namespace
}  // namespace mh
