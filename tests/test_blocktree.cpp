#include "protocol/blocktree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <latch>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fork_fixtures.hpp"
#include "protocol/node.hpp"

namespace mh {
namespace {

TEST(BlockTree, StartsWithGenesis) {
  const BlockTree tree;
  EXPECT_TRUE(tree.contains(genesis_block().hash));
  EXPECT_EQ(tree.block_count(), 1u);
  EXPECT_EQ(tree.length(genesis_block().hash), 0u);
  EXPECT_EQ(tree.best_length(), 0u);
}

TEST(BlockTree, AddValidatesParentSlotAndIntegrity) {
  BlockTree tree;
  const Block good = make_block(genesis_block().hash, 1, 0, 0);
  EXPECT_TRUE(tree.add(good));
  EXPECT_EQ(tree.length(good.hash), 1u);

  const Block orphan = make_block(0xdeadbeef, 2, 0, 0);
  EXPECT_FALSE(tree.add(orphan));

  Block tampered = make_block(good.hash, 2, 0, 0);
  tampered.payload = 99;  // hash no longer matches
  EXPECT_FALSE(tree.add(tampered));

  const Block stale = make_block(good.hash, 1, 0, 0);  // slot not increasing
  EXPECT_FALSE(tree.add(stale));

  EXPECT_TRUE(tree.add(good));  // idempotent re-insertion
  EXPECT_EQ(tree.block_count(), 2u);
}

TEST(BlockTree, BestHeadLongestChainWins) {
  BlockTree tree;
  const auto a = fixtures::grow_chain(tree, genesis_block().hash, {1, 2});
  fixtures::grow_chain(tree, genesis_block().hash, {3}, 1);
  EXPECT_EQ(tree.best_head(TieBreak::AdversarialOrder), a.back().hash);
  EXPECT_EQ(tree.best_head(TieBreak::ConsistentHash), a.back().hash);
  EXPECT_EQ(tree.best_length(), 2u);
}

TEST(BlockTree, TieBreakByArrivalVsHash) {
  BlockTree tree;
  const Block a = make_block(genesis_block().hash, 1, 0, 7);
  const Block b = make_block(genesis_block().hash, 2, 1, 8);
  tree.add(a);
  tree.add(b);
  EXPECT_EQ(tree.best_head(TieBreak::AdversarialOrder), a.hash);  // first arrival
  EXPECT_EQ(tree.best_head(TieBreak::ConsistentHash), std::min(a.hash, b.hash));
  const auto heads = tree.max_length_heads();
  ASSERT_EQ(heads.size(), 2u);
  EXPECT_EQ(heads[0], a.hash);
}

TEST(BlockTree, ChainReconstruction) {
  BlockTree tree;
  const auto a = fixtures::grow_chain(tree, genesis_block().hash, {1, 4});
  const auto chain = tree.chain(a.back().hash);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0], genesis_block().hash);
  EXPECT_EQ(chain[1], a[0].hash);
  EXPECT_EQ(chain[2], a[1].hash);
}

TEST(BlockTree, CommonAncestor) {
  BlockTree tree;
  const auto trunk = fixtures::grow_chain(tree, genesis_block().hash, {1});
  const auto left = fixtures::grow_chain(tree, trunk.back().hash, {2});
  const auto right = fixtures::grow_chain(tree, trunk.back().hash, {3, 4}, 1);
  EXPECT_EQ(tree.common_ancestor(left.back().hash, right.back().hash), trunk.back().hash);
  EXPECT_EQ(tree.common_ancestor(right.back().hash, right.front().hash), right.front().hash);
  EXPECT_EQ(tree.common_ancestor(left.back().hash, left.back().hash), left.back().hash);
}

TEST(BlockTree, BlockAtSlot) {
  BlockTree tree;
  const auto a = fixtures::grow_chain(tree, genesis_block().hash, {2, 5});
  EXPECT_EQ(tree.block_at_slot(a.back().hash, 5), a.back().hash);
  EXPECT_EQ(tree.block_at_slot(a.back().hash, 4), a.front().hash);
  EXPECT_EQ(tree.block_at_slot(a.back().hash, 2), a.front().hash);
  EXPECT_EQ(tree.block_at_slot(a.back().hash, 1), std::nullopt);
}

TEST(BlockTree, UnknownBlockThrows) {
  const BlockTree tree;
  EXPECT_THROW(static_cast<void>(tree.length(12345)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(tree.block(12345)), std::invalid_argument);
}

TEST(BlockTree, TryAddDistinguishesOrphanFromInvalid) {
  BlockTree tree;
  const Block good = make_block(genesis_block().hash, 1, 0, 0);
  EXPECT_EQ(tree.try_add(good), BlockTree::AddResult::Added);
  EXPECT_EQ(tree.try_add(good), BlockTree::AddResult::Duplicate);

  // Parent unknown: retriable, NOT invalid — it may arrive later.
  const Block orphan = make_block(0xdeadbeef, 2, 0, 0);
  EXPECT_EQ(tree.try_add(orphan), BlockTree::AddResult::Orphan);

  // Tampered header / non-increasing slot: permanently invalid.
  Block tampered = make_block(good.hash, 2, 0, 0);
  tampered.payload = 99;
  EXPECT_EQ(tree.try_add(tampered), BlockTree::AddResult::Invalid);
  const Block stale = make_block(good.hash, 1, 0, 0);
  EXPECT_EQ(tree.try_add(stale), BlockTree::AddResult::Invalid);
}

TEST(BlockTree, AdversarialOrderIsFirstArrivalSemantics) {
  // Pin of the intended axiom-A0 rule: among tied maximum-length heads the
  // FIRST-arrived wins (the adversary orders deliveries, so "first" is its
  // lever). The seed carried a dead "later arrival wins" comparison branch;
  // this test pins the simplification.
  BlockTree tree;
  const Block a = make_block(genesis_block().hash, 1, 0, 1);
  const Block b = make_block(genesis_block().hash, 2, 1, 2);
  tree.add(a);
  tree.add(b);
  EXPECT_EQ(tree.best_head(TieBreak::AdversarialOrder), a.hash);

  // A strictly longer chain resets the tie set: its tip is now first arrival.
  const Block c = make_block(b.hash, 3, 0, 3);
  tree.add(c);
  EXPECT_EQ(tree.best_head(TieBreak::AdversarialOrder), c.hash);

  // A later equal-length head joins the tie set but does not displace c.
  const Block d = make_block(a.hash, 4, 1, 4);
  tree.add(d);
  EXPECT_EQ(tree.best_head(TieBreak::AdversarialOrder), c.hash);
  const auto heads = tree.max_length_heads();
  ASSERT_EQ(heads.size(), 2u);
  EXPECT_EQ(heads[0], c.hash);
  EXPECT_EQ(heads[1], d.hash);
  EXPECT_EQ(tree.best_head(TieBreak::ConsistentHash), std::min(c.hash, d.hash));
}

TEST(BlockTree, AncestorsAlongOneChain) {
  BlockTree tree;
  const auto chain = fixtures::grow_chain(tree, genesis_block().hash, {1, 2, 5, 9});
  const BlockHash tip = chain.back().hash;
  EXPECT_EQ(tree.chain(tip).front(), genesis_block().hash);
  EXPECT_EQ(tree.block_at_slot(tip, 0), std::nullopt);
  for (std::size_t len = 1; len <= chain.size(); ++len) {
    const Block& ancestor = chain[len - 1];
    EXPECT_EQ(tree.chain(tip)[len], ancestor.hash);
    EXPECT_EQ(tree.common_ancestor(tip, ancestor.hash), ancestor.hash);
    // Every slot from this ancestor's up to the next one's resolves to it.
    const std::uint64_t next = len < chain.size() ? chain[len].slot : ancestor.slot + 3;
    for (std::uint64_t s = ancestor.slot; s < next; ++s)
      EXPECT_EQ(tree.block_at_slot(tip, s), ancestor.hash) << "slot " << s;
  }
  EXPECT_THROW(static_cast<void>(tree.block_at_slot(12345, 1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(tree.common_ancestor(tip, 12345)), std::invalid_argument);
}

TEST(BlockTree, AncestryQueriesMatchNaiveWalks) {
  // Differential fuzz of the parent-column walks against hash-level walks
  // through block(h).parent, on two inputs: a random tree mixing long chains
  // and wide forks, and one 1,100-deep chain with uneven slot gaps.
  Rng rng(0xb10c);
  const auto check = [&rng](const BlockTree& tree, const std::vector<Block>& blocks) {
    const auto naive_chain_up = [&](BlockHash h) {
      std::vector<BlockHash> up{h};
      while (up.back() != genesis_block().hash) up.push_back(tree.block(up.back()).parent);
      return up;
    };
    const auto naive_meet = [&](BlockHash a, BlockHash b) {
      std::vector<BlockHash> ua = naive_chain_up(a);
      std::vector<BlockHash> ub = naive_chain_up(b);
      const auto level = [](std::vector<BlockHash>& longer, std::size_t size) {
        longer.erase(longer.begin(), longer.end() - static_cast<std::ptrdiff_t>(size));
      };
      if (ua.size() > ub.size()) level(ua, ub.size());
      if (ub.size() > ua.size()) level(ub, ua.size());
      for (std::size_t i = 0; i < ua.size(); ++i)
        if (ua[i] == ub[i]) return ua[i];
      return genesis_block().hash;
    };
    const auto naive_at_slot = [&](BlockHash head, std::uint64_t s) -> std::optional<BlockHash> {
      for (BlockHash h = head; h != genesis_block().hash; h = tree.block(h).parent)
        if (tree.block(h).slot <= s) return h;
      return std::nullopt;
    };

    for (int trial = 0; trial < 300; ++trial) {
      const Block& x = blocks[rng.below(blocks.size())];
      const Block& y = blocks[rng.below(blocks.size())];
      EXPECT_EQ(tree.common_ancestor(x.hash, y.hash), naive_meet(x.hash, y.hash));
      const std::uint64_t s = rng.below(x.slot + 2);
      EXPECT_EQ(tree.block_at_slot(x.hash, s), naive_at_slot(x.hash, s));
    }

    // The incremental head set matches a from-scratch arrival-order scan.
    std::vector<BlockHash> scan;
    for (BlockHash h : tree.arrival_order())
      if (tree.length(h) == tree.best_length()) scan.push_back(h);
    EXPECT_EQ(tree.max_length_heads(), scan);
  };

  {
    BlockTree tree;
    std::vector<Block> blocks{genesis_block()};
    for (std::uint64_t i = 0; i < 500; ++i) {
      // Bias towards recent parents so chains get deep; sometimes fork wide.
      const std::size_t pick = rng.bernoulli(0.7) ? blocks.size() - 1 : rng.below(blocks.size());
      const Block& parent = blocks[pick];
      const Block b = make_block(parent.hash, parent.slot + 1 + rng.below(3), 0, i);
      ASSERT_EQ(tree.try_add(b), BlockTree::AddResult::Added);
      blocks.push_back(b);
    }
    check(tree, blocks);
  }
  {
    BlockTree tree;
    std::vector<Block> chain{genesis_block()};
    for (std::size_t len = 1; len <= 1100; ++len) {
      const Block b = make_block(chain.back().hash, chain.back().slot + 1 + len % 3, 0, len);
      ASSERT_EQ(tree.try_add(b), BlockTree::AddResult::Added);
      chain.push_back(b);
    }
    check(tree, chain);
  }
}

TEST(BlockTree, ConcurrentReadersMatchASerialPass) {
  // The const queries are plain reads of the columns, so readers may share a
  // tree. Four threads query one tree that no query has touched yet, then a
  // serial pass answers the same queries; every answer must match. Under
  // ThreadSanitizer a write behind a const query (say, an index built on
  // first use) reports as a race.
  Rng rng(0x4ead);
  BlockTree tree;
  std::vector<Block> blocks{genesis_block()};
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const std::size_t pick = rng.bernoulli(0.7) ? blocks.size() - 1 : rng.below(blocks.size());
    const Block& parent = blocks[pick];
    const Block b = make_block(parent.hash, parent.slot + 1 + rng.below(3), 0, i);
    ASSERT_EQ(tree.try_add(b), BlockTree::AddResult::Added);
    blocks.push_back(b);
  }

  struct Query {
    BlockHash x, y, probe;
    std::uint64_t slot;
  };
  struct Answer {
    BlockHash meet;
    std::optional<BlockHash> at_slot;
    std::vector<BlockHash> chain;
    bool contains;
    bool operator==(const Answer&) const = default;
  };
  std::vector<Query> queries(1000);
  for (Query& q : queries) {
    const Block& x = blocks[rng.below(blocks.size())];
    q.x = x.hash;
    q.y = blocks[rng.below(blocks.size())].hash;
    q.slot = rng.below(x.slot + 2);
    q.probe = rng.bernoulli(0.5) ? blocks[rng.below(blocks.size())].hash : rng();
  }
  const auto answer = [](const BlockTree& t, const Query& q) {
    return Answer{t.common_ancestor(q.x, q.y), t.block_at_slot(q.x, q.slot), t.chain(q.x),
                  t.contains(q.probe)};
  };

  // Each reader starts at its own offset, so the threads reach the same
  // entries at different times.
  constexpr std::size_t kReaders = 4;
  const auto query_of = [&](std::size_t reader, std::size_t i) -> const Query& {
    return queries[(i + reader * queries.size() / kReaders) % queries.size()];
  };
  std::vector<std::vector<Answer>> seen(kReaders);
  {
    const BlockTree& shared = tree;
    std::latch start(kReaders);
    std::vector<std::thread> readers;
    for (std::size_t r = 0; r < kReaders; ++r)
      readers.emplace_back([&, r] {
        start.arrive_and_wait();
        for (std::size_t i = 0; i < queries.size(); ++i)
          seen[r].push_back(answer(shared, query_of(r, i)));
      });
    for (std::thread& reader : readers) reader.join();
  }

  for (std::size_t r = 0; r < kReaders; ++r) {
    ASSERT_EQ(seen[r].size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
      ASSERT_EQ(seen[r][i], answer(tree, query_of(r, i))) << "reader " << r << ", query " << i;
  }
}

// A deliberately naive map-based tree retained as the differential reference
// for the SoA implementation: same validation order (duplicate -> integrity
// -> parent -> slot), same head-set rule, every query a plain parent walk.
class ReferenceTree {
 public:
  ReferenceTree() {
    const Block& g = genesis_block();
    entries_.emplace(g.hash, Entry{g, 0});
    arrival_.push_back(g.hash);
  }

  BlockTree::AddResult try_add(const Block& b) {
    if (entries_.count(b.hash) != 0) return BlockTree::AddResult::Duplicate;
    if (!verify_block_integrity(b)) return BlockTree::AddResult::Invalid;
    const auto parent = entries_.find(b.parent);
    if (parent == entries_.end()) return BlockTree::AddResult::Orphan;
    if (b.slot <= parent->second.block.slot) return BlockTree::AddResult::Invalid;
    entries_.emplace(b.hash, Entry{b, parent->second.length + 1});
    arrival_.push_back(b.hash);
    return BlockTree::AddResult::Added;
  }

  [[nodiscard]] bool contains(BlockHash h) const { return entries_.count(h) != 0; }
  [[nodiscard]] std::size_t length(BlockHash h) const { return entries_.at(h).length; }
  [[nodiscard]] std::size_t block_count() const { return entries_.size(); }

  [[nodiscard]] std::size_t best_length() const {
    std::size_t best = 0;
    for (const auto& [h, e] : entries_) best = std::max(best, e.length);
    return best;
  }

  [[nodiscard]] std::vector<BlockHash> max_length_heads() const {
    const std::size_t best = best_length();
    std::vector<BlockHash> heads;
    for (BlockHash h : arrival_)
      if (entries_.at(h).length == best) heads.push_back(h);
    return heads;
  }

  [[nodiscard]] BlockHash best_head(TieBreak rule) const {
    const std::vector<BlockHash> heads = max_length_heads();
    if (rule == TieBreak::AdversarialOrder) return heads.front();
    return *std::min_element(heads.begin(), heads.end());
  }

  [[nodiscard]] std::vector<BlockHash> chain(BlockHash head) const {
    std::vector<BlockHash> out;
    for (BlockHash h = head;; h = entries_.at(h).block.parent) {
      out.push_back(h);
      if (h == genesis_block().hash) break;
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] BlockHash common_ancestor(BlockHash a, BlockHash b) const {
    std::vector<BlockHash> ca = chain(a);
    const std::vector<BlockHash> cb = chain(b);
    BlockHash meet = genesis_block().hash;
    for (std::size_t i = 0; i < std::min(ca.size(), cb.size()); ++i)
      if (ca[i] == cb[i]) meet = ca[i];
    return meet;
  }

  [[nodiscard]] std::optional<BlockHash> block_at_slot(BlockHash head, std::uint64_t s) const {
    for (BlockHash h = head; h != genesis_block().hash; h = entries_.at(h).block.parent)
      if (entries_.at(h).block.slot <= s) return h;
    return std::nullopt;
  }

  [[nodiscard]] const std::vector<BlockHash>& arrival_order() const { return arrival_; }

 private:
  struct Entry {
    Block block;
    std::size_t length = 0;
  };
  std::unordered_map<BlockHash, Entry> entries_;
  std::vector<BlockHash> arrival_;
};

TEST(BlockTree, DifferentialFuzzAgainstReferenceTree) {
  // Random interleavings of out-of-order delivery (via OrphanBuffer flushes),
  // duplicates, tampered headers, stale slots, and ancestry queries: the SoA
  // tree must agree with the naive reference on every outcome and view.
  Rng rng(0x50a50a);
  for (int round = 0; round < 8; ++round) {
    // A universe of mostly-valid blocks over a random fork structure.
    std::vector<Block> universe{genesis_block()};
    for (std::uint64_t i = 0; i < 160; ++i) {
      const std::size_t pick =
          rng.bernoulli(0.6) ? universe.size() - 1 : rng.below(universe.size());
      const Block& parent = universe[pick];
      Block b = make_block(parent.hash, parent.slot + 1 + rng.below(2), 0, i);
      if (rng.bernoulli(0.05)) b.payload ^= 0xbad;  // tampered header
      if (rng.bernoulli(0.05)) b = make_block(parent.hash, parent.slot, 0, i);  // stale slot
      universe.push_back(b);
      if (rng.bernoulli(0.1)) universe.push_back(b);  // duplicate delivery
    }
    // Adversarial delivery order: shuffle, so ancestors often arrive late.
    for (std::size_t i = universe.size() - 1; i > 0; --i)
      std::swap(universe[i], universe[rng.below(i + 1)]);

    BlockTree tree;
    ReferenceTree ref;
    OrphanBuffer orphans;
    std::vector<Block> ref_orphans;
    for (const Block& b : universe) {
      const BlockTree::AddResult got = tree.try_add(b);
      const BlockTree::AddResult want = ref.try_add(b);
      ASSERT_EQ(got, want);
      if (got == BlockTree::AddResult::Added) {
        orphans.flush(tree, nullptr);
        // Reference flush: retry until no progress, drop non-orphan outcomes.
        bool progress = true;
        while (progress) {
          progress = false;
          std::vector<Block> still;
          for (const Block& o : ref_orphans) {
            const BlockTree::AddResult r = ref.try_add(o);
            if (r == BlockTree::AddResult::Added) progress = true;
            if (r == BlockTree::AddResult::Orphan) still.push_back(o);
          }
          ref_orphans.swap(still);
        }
      } else if (got == BlockTree::AddResult::Orphan) {
        orphans.buffer(b);
        bool dup = false;
        for (const Block& o : ref_orphans) dup = dup || o.hash == b.hash;
        if (!dup) ref_orphans.push_back(b);
      }

      if (rng.bernoulli(0.2)) {
        // Ancestry queries against the naive walks, mid-interleaving.
        const auto& arr = tree.arrival_order();
        const BlockHash x = arr[rng.below(arr.size())];
        const BlockHash y = arr[rng.below(arr.size())];
        ASSERT_EQ(tree.common_ancestor(x, y), ref.common_ancestor(x, y));
        const std::uint64_t s = rng.below(tree.block(x).slot + 2);
        ASSERT_EQ(tree.block_at_slot(x, s), ref.block_at_slot(x, s));
      }
    }

    ASSERT_EQ(orphans.size(), ref_orphans.size());
    ASSERT_EQ(tree.block_count(), ref.block_count());
    ASSERT_EQ(tree.arrival_order(), ref.arrival_order());
    ASSERT_EQ(tree.best_length(), ref.best_length());
    ASSERT_EQ(tree.max_length_heads(), ref.max_length_heads());
    ASSERT_EQ(tree.best_head(TieBreak::AdversarialOrder),
              ref.best_head(TieBreak::AdversarialOrder));
    ASSERT_EQ(tree.best_head(TieBreak::ConsistentHash),
              ref.best_head(TieBreak::ConsistentHash));
    for (BlockHash h : tree.arrival_order()) {
      ASSERT_EQ(tree.length(h), ref.length(h));
      ASSERT_EQ(tree.chain(h), ref.chain(h));
    }
  }
}

/// The reference honest node: header and eligibility checks in front of a
/// ReferenceTree, with the reference flush (retry until no progress, drop
/// every non-orphan outcome) and a deduplicated orphan list.
class ReferenceNode {
 public:
  explicit ReferenceNode(const ScheduleSource& schedule) : schedule_(schedule) {}

  std::vector<Block> receive(const Block& b) {
    std::vector<Block> accepted;
    if (!verify_block_integrity(b) || !schedule_.eligible(b.issuer, b.slot)) return accepted;
    const BlockTree::AddResult r = tree.try_add(b);
    if (r == BlockTree::AddResult::Added) {
      accepted.push_back(b);
      bool progress = true;
      while (progress) {
        progress = false;
        std::vector<Block> still;
        for (const Block& o : orphans) {
          const BlockTree::AddResult retry = tree.try_add(o);
          if (retry == BlockTree::AddResult::Added) {
            accepted.push_back(o);
            progress = true;
          }
          if (retry == BlockTree::AddResult::Orphan) still.push_back(o);
        }
        orphans.swap(still);
      }
    } else if (r == BlockTree::AddResult::Orphan) {
      bool dup = false;
      for (const Block& o : orphans) dup = dup || o.hash == b.hash;
      if (!dup) orphans.push_back(b);
    }
    return accepted;
  }

  ReferenceTree tree;
  std::vector<Block> orphans;

 private:
  const ScheduleSource& schedule_;
};

/// A node's view must agree with its reference node on the membership (over
/// `universe`, and member by member), the head set, both tie-break rules and
/// the orphan count.
void expect_view_matches(const HonestNode& node, const ReferenceNode& reference,
                         const std::vector<Block>& universe) {
  const TreeView& view = node.tree();
  const ReferenceTree& ref = reference.tree;
  ASSERT_EQ(view.block_count(), ref.block_count());
  ASSERT_EQ(view.best_length(), ref.best_length());
  ASSERT_EQ(view.max_length_heads(), ref.max_length_heads());
  ASSERT_EQ(view.best_head(TieBreak::AdversarialOrder), ref.best_head(TieBreak::AdversarialOrder));
  ASSERT_EQ(view.best_head(TieBreak::ConsistentHash), ref.best_head(TieBreak::ConsistentHash));
  ASSERT_EQ(node.buffered_orphans(), reference.orphans.size());
  for (const Block& u : universe) ASSERT_EQ(view.contains(u.hash), ref.contains(u.hash));
  // members() enumerates this view's column alone.
  std::vector<BlockHash> members = view.members();
  std::vector<BlockHash> want = ref.arrival_order();
  ASSERT_EQ(members.size(), view.block_count());
  std::sort(members.begin(), members.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(members, want);
}

static_assert(!std::is_copy_constructible_v<TreeView> && !std::is_copy_assignable_v<TreeView>,
              "a view owns its column of the store's membership matrix");
static_assert(std::is_nothrow_move_constructible_v<HonestNode>,
              "nodes move, column and all, when a node vector grows");

TEST(TreeView, DifferentialFuzzAgainstReferenceTree) {
  // Honest nodes keep membership views over a block store, each view one
  // column of the store's membership matrix. Three share one store
  // (pre-seeded with part of the universe, as a Simulation records blocks
  // before delivering them), one owns a one-column private store; each takes
  // the same universe in its own order. Halfway through, two more nodes join
  // (one on the shared store, registered after its matrix grew past one row,
  // and one private): the node vector's growth moves every node, column and
  // all, and the newcomers take the rest of their own orders. After every
  // receive, each node must agree with its own reference node on the accepted
  // list, the membership, the head set and both tie-break rules, and the
  // orphan count.
  constexpr std::size_t kBlocks = 160;
  constexpr std::size_t kHorizon = 2 * kBlocks + 2;
  // Party 0 leads every slot, the adversary every third; party 1 never leads.
  std::vector<SlotLeaders> slots(kHorizon);
  for (std::size_t t = 1; t <= kHorizon; ++t) {
    slots[t - 1].honest = {0};
    slots[t - 1].adversarial = t % 3 == 0;
  }
  const LeaderSchedule schedule(std::move(slots), 2);

  Rng rng(0x71e3);
  for (int round = 0; round < 8; ++round) {
    std::vector<Block> universe;
    std::vector<Block> valid{genesis_block()};  // parents to grow from
    for (std::uint64_t i = 0; i < kBlocks; ++i) {
      const std::size_t pick = rng.bernoulli(0.6) ? valid.size() - 1 : rng.below(valid.size());
      const Block parent = valid[pick];
      const std::uint64_t slot = parent.slot + 1 + rng.below(2);
      PartyId issuer = 0;
      if (slot % 3 == 0 && rng.bernoulli(0.3)) issuer = kAdversary;
      if (rng.bernoulli(0.05)) issuer = 1;  // ineligible: never admitted
      Block b = make_block(parent.hash, slot, issuer, i);
      if (rng.bernoulli(0.05)) b = make_block(parent.hash, parent.slot, 0, i);  // stale slot
      universe.push_back(b);
      if (rng.bernoulli(0.05)) {  // tampered header (a fresh hash, or a copy's)
        Block t = b;
        t.payload ^= 0xbad;
        universe.push_back(t);
      }
      if (rng.bernoulli(0.1)) universe.push_back(b);  // duplicate delivery
      valid.push_back(b);
    }

    BlockTree store;
    for (const Block& b : universe)
      if (rng.bernoulli(0.5)) store.add(b);
    std::vector<HonestNode> nodes;  // no reserve: the late joiners move everyone
    for (PartyId p = 0; p < 3; ++p) nodes.emplace_back(p, TieBreak::AdversarialOrder, &schedule, &store);
    nodes.emplace_back(3, TieBreak::ConsistentHash, &schedule);  // private store
    std::vector<ReferenceNode> refs(nodes.size() + 2, ReferenceNode(schedule));
    std::vector<std::vector<Block>> orders(refs.size(), universe);
    for (std::vector<Block>& order : orders)
      for (std::size_t i = order.size() - 1; i > 0; --i) std::swap(order[i], order[rng.below(i + 1)]);
    // One node takes the universe child-first: every chain arrives orphan-first.
    std::reverse(orders[1].begin(), orders[1].end());

    const std::size_t join = universe.size() / 2;
    for (std::size_t step = 0; step < universe.size(); ++step) {
      if (step == join) {
        nodes.emplace_back(4, TieBreak::AdversarialOrder, &schedule, &store);
        nodes.emplace_back(5, TieBreak::AdversarialOrder, &schedule);  // private store
      }
      for (std::size_t n = 0; n < nodes.size(); ++n) {
        const Block& b = orders[n][step];
        std::vector<Block> accepted;
        nodes[n].receive(b, &accepted);
        ASSERT_EQ(accepted, refs[n].receive(b)) << "round " << round << ", node " << n;
        ASSERT_NO_FATAL_FAILURE(expect_view_matches(nodes[n], refs[n], universe))
            << "round " << round << ", node " << n;
      }
    }
  }
}

TEST(TreeView, OneResolutionAdmitsEveryView) {
  // A delivery sweep resolves each of its stored entries once and admits the
  // resolutions node by node. Here four nodes share a store holding a random
  // fork, and take its entries in sweeps of 1 to 8: a store-order window,
  // shuffled or reversed (so chains arrive orphan-first), with a tenth of the
  // entries twice. Each node misses a tenth of a sweep's deliveries, which a
  // second sweep right after brings it, so the views drift apart and see
  // duplicates, orphans and orphan flushes, and orphans drain again. Halfway
  // through a fifth node joins, which re-lays the matrix out; it is caught
  // up in store order, and every later delivery is resolved again. After
  // each admission the node must agree with its reference node on the
  // accepted entries, the membership, the head set, both tie-break rules and
  // the orphan count.
  constexpr std::size_t kBlocks = 160;
  constexpr std::size_t kHorizon = 2 * kBlocks + 2;
  // Party 0 leads every slot, the adversary every third.
  std::vector<SlotLeaders> slots(kHorizon);
  for (std::size_t t = 1; t <= kHorizon; ++t) {
    slots[t - 1].honest = {0};
    slots[t - 1].adversarial = t % 3 == 0;
  }
  const LeaderSchedule schedule(std::move(slots), 1);

  Rng rng(0x0e50);
  std::size_t outcomes[3] = {0, 0, 0};  // admitted alone, nothing, with a flush
  for (int round = 0; round < 8; ++round) {
    BlockTree store;
    std::vector<Block> universe{genesis_block()};
    for (std::uint64_t i = 0; i < kBlocks; ++i) {
      const std::size_t pick =
          rng.bernoulli(0.6) ? universe.size() - 1 : rng.below(universe.size());
      const Block parent = universe[pick];
      const std::uint64_t slot = parent.slot + 1 + rng.below(2);
      const PartyId issuer = slot % 3 == 0 && rng.bernoulli(0.3) ? kAdversary : 0;
      universe.push_back(make_block(parent.hash, slot, issuer, i));
      ASSERT_EQ(store.try_add(universe.back()), BlockTree::AddResult::Added);
    }

    std::vector<HonestNode> nodes;  // no reserve: the late joiner moves everyone
    for (PartyId p = 0; p < 4; ++p)
      nodes.emplace_back(p, p % 2 == 0 ? TieBreak::AdversarialOrder : TieBreak::ConsistentHash,
                         &schedule, &store);
    std::vector<ReferenceNode> refs(nodes.size() + 1, ReferenceNode(schedule));
    // Admit one resolution to node n, and check it against the reference.
    const auto admit = [&](std::size_t n, const TreeView::Resolved& resolved) {
      const Block& b = store.entry_block(resolved.entry);
      ASSERT_EQ(resolved.hash, b.hash);
      ASSERT_EQ(resolved.length, store.length(b.hash));
      std::vector<std::uint32_t> entries;
      const bool alone = nodes[n].admit_stored(resolved, &entries);
      if (alone) {
        ASSERT_TRUE(entries.empty());
        entries.push_back(resolved.entry);
      }
      ++outcomes[alone ? 0 : entries.empty() ? 1 : 2];
      std::vector<Block> accepted;
      for (const std::uint32_t e : entries) accepted.push_back(store.entry_block(e));
      ASSERT_EQ(accepted, refs[n].receive(b)) << "round " << round << ", node " << n;
      ASSERT_NO_FATAL_FAILURE(expect_view_matches(nodes[n], refs[n], universe))
          << "round " << round << ", node " << n;
    };

    bool joined = false;
    for (std::uint32_t next = 1; next < store.block_count();) {
      if (!joined && next > kBlocks / 2) {
        joined = true;
        nodes.emplace_back(4, TieBreak::AdversarialOrder, &schedule, &store);
        for (std::uint32_t e = 1; e < next; ++e)
          ASSERT_NO_FATAL_FAILURE(admit(4, TreeView::resolve(store, e)));
      }
      std::vector<std::uint32_t> window;
      for (const std::uint32_t end = std::min<std::uint32_t>(
               next + 1 + static_cast<std::uint32_t>(rng.below(8)),
               static_cast<std::uint32_t>(store.block_count()));
           next < end; ++next) {
        window.push_back(next);
        if (rng.bernoulli(0.1)) window.push_back(next);
      }
      if (rng.bernoulli(0.5))
        std::reverse(window.begin(), window.end());
      else
        for (std::size_t i = window.size() - 1; i > 0; --i)
          std::swap(window[i], window[rng.below(i + 1)]);

      std::vector<TreeView::Resolved> sweep;
      for (const std::uint32_t entry : window) sweep.push_back(TreeView::resolve(store, entry));
      std::vector<std::vector<TreeView::Resolved>> missed(nodes.size());
      for (std::size_t n = 0; n < nodes.size(); ++n)
        for (const TreeView::Resolved& resolved : sweep) {
          if (rng.bernoulli(0.1))
            missed[n].push_back(resolved);
          else
            ASSERT_NO_FATAL_FAILURE(admit(n, resolved));
        }
      for (std::size_t n = 0; n < nodes.size(); ++n)
        for (const TreeView::Resolved& resolved : missed[n])
          ASSERT_NO_FATAL_FAILURE(admit(n, resolved));
    }
    for (std::size_t n = 0; n < nodes.size(); ++n)
      ASSERT_EQ(nodes[n].tree().block_count(), store.block_count()) << "round " << round;
  }
  // Every admission outcome occurred often enough to be compared.
  for (const std::size_t seen : outcomes)
    EXPECT_GT(seen, 1000u) << outcomes[0] << " alone, " << outcomes[1] << " none, " << outcomes[2]
                          << " with a flush";
}

TEST(TreeView, ALateColumnOverAGrownMatrixStartsAtGenesis) {
  // One view holds a 200-block chain, so the matrix has four rows; a view
  // registered afterwards re-lays it out once, starts with genesis alone,
  // and leaves the first view's membership intact.
  const LeaderSchedule schedule = [] {
    std::vector<SlotLeaders> slots(300);
    for (SlotLeaders& s : slots) s.honest = {0};
    return LeaderSchedule(std::move(slots), 1);
  }();
  BlockTree store;
  HonestNode early(0, TieBreak::AdversarialOrder, &schedule, &store);
  BlockHash tip = genesis_block().hash;
  for (std::uint64_t slot = 1; slot <= 200; ++slot) {
    const Block b = make_block(tip, slot, 0, slot);
    early.receive(b);
    tip = b.hash;
  }
  HonestNode late(0, TieBreak::AdversarialOrder, &schedule, &store);
  EXPECT_EQ(late.tree().block_count(), 1u);
  EXPECT_EQ(late.tree().members(), std::vector<BlockHash>{genesis_block().hash});
  EXPECT_EQ(late.best_head(), genesis_block().hash);
  EXPECT_EQ(early.tree().block_count(), 201u);
  EXPECT_EQ(early.tree().members(), store.arrival_order());
  EXPECT_EQ(early.best_head(), tip);
  // The late view admits the stored chain in order, parents first.
  for (std::size_t i = 1; i < store.arrival_order().size(); ++i)
    late.receive(store.block(store.arrival_order()[i]));
  EXPECT_EQ(late.tree().members(), store.arrival_order());
  EXPECT_EQ(late.best_head(), tip);
}

TEST(BlockTree, CapacityGuardThrowsInsteadOfTruncating) {
  // Regression for the silent index truncation: at capacity, try_add must
  // throw (MH_REQUIRE -> std::invalid_argument) and leave the tree intact,
  // never wrap the 32-bit index.
  BlockTree tree(4);  // genesis + 3 blocks
  const auto chain = fixtures::grow_chain(tree, genesis_block().hash, {1, 2, 3});
  EXPECT_EQ(tree.block_count(), 4u);

  const Block overflow = make_block(chain.back().hash, 4, 0, 99);
  EXPECT_THROW(static_cast<void>(tree.try_add(overflow)), std::invalid_argument);
  EXPECT_EQ(tree.block_count(), 4u);
  EXPECT_FALSE(tree.contains(overflow.hash));
  // Pre-insert validation still answers without touching capacity.
  EXPECT_EQ(tree.try_add(chain.back()), BlockTree::AddResult::Duplicate);
  const Block orphan = make_block(0xdeadbeef, 9, 0, 1);
  EXPECT_EQ(tree.try_add(orphan), BlockTree::AddResult::Orphan);
  // The tree still works after the rejected insertion.
  EXPECT_EQ(tree.best_head(TieBreak::AdversarialOrder), chain.back().hash);
  EXPECT_EQ(tree.block_at_slot(chain.back().hash, 1), chain.front().hash);
}

TEST(BlockTree, ZeroCapacityIsRejected) {
  EXPECT_THROW(BlockTree tree(0), std::invalid_argument);
}

TEST(BlockTree, ArenaRecyclingIsSemanticallyInvisible) {
  // Two identical builds, the second on recycled storage: every observable
  // must match, and the arena must report the recycle.
  const auto build_and_observe = [] {
    BlockTree tree;
    Rng rng(0xa3e4a);
    std::vector<Block> blocks{genesis_block()};
    for (std::uint64_t i = 0; i < 300; ++i) {
      const std::size_t pick =
          rng.bernoulli(0.7) ? blocks.size() - 1 : rng.below(blocks.size());
      const Block& parent = blocks[pick];
      const Block b = make_block(parent.hash, parent.slot + 1 + rng.below(3), 0, i);
      EXPECT_EQ(tree.try_add(b), BlockTree::AddResult::Added);
      blocks.push_back(b);
    }
    std::vector<BlockHash> view = tree.arrival_order();
    view.push_back(tree.best_head(TieBreak::AdversarialOrder));
    view.push_back(tree.best_head(TieBreak::ConsistentHash));
    for (int i = 0; i < 50; ++i) {
      const BlockHash x = blocks[rng.below(blocks.size())].hash;
      const BlockHash y = blocks[rng.below(blocks.size())].hash;
      view.push_back(tree.common_ancestor(x, y));
      const auto at_slot = tree.block_at_slot(x, rng.below(tree.block(x).slot + 1));
      view.push_back(at_slot.value_or(genesis_block().hash));
    }
    return view;
  };

  const BlockTree::ArenaStats before = BlockTree::arena_stats();
  const std::vector<BlockHash> first = build_and_observe();
  const std::vector<BlockHash> second = build_and_observe();
  const BlockTree::ArenaStats after = BlockTree::arena_stats();

  EXPECT_EQ(first, second);
  EXPECT_EQ(after.acquired, before.acquired + 2);
  EXPECT_EQ(after.released, before.released + 2);
  // The second build (at least) ran on the first build's donated storage.
  EXPECT_GE(after.recycled, before.recycled + 1);
}

TEST(BlockTree, MoveTransfersStorageWithoutDoubleRelease) {
  const BlockTree::ArenaStats before = BlockTree::arena_stats();
  {
    BlockTree a;
    fixtures::grow_chain(a, genesis_block().hash, {1, 2});
    BlockTree b = std::move(a);
    EXPECT_EQ(b.block_count(), 3u);
    EXPECT_EQ(b.best_length(), 2u);
  }  // both destructors run; only b owns storage
  const BlockTree::ArenaStats after = BlockTree::arena_stats();
  EXPECT_EQ(after.acquired, before.acquired + 1);
  EXPECT_EQ(after.released, before.released + 1);
}

}  // namespace
}  // namespace mh
