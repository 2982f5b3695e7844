// The discrete-event heterogeneous network core (src/protocol/net/): event
// ordering, topology construction, latency laws, bandwidth spillover, gossip
// relay delivery, the degenerate-façade equivalence contract, and the
// observed-Delta oracle grading of heterogeneous executions — including the
// {1, 2, 8}-thread bit-identity the counter-based streams guarantee.
#include "protocol/net/config.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "delta/semi_sync.hpp"
#include "engine/seed_sequence.hpp"
#include "engine/thread_pool.hpp"
#include "obs/obs.hpp"
#include "oracle/oracle.hpp"
#include "protocol/net/event_core.hpp"
#include "protocol/net/latency.hpp"
#include "protocol/net/link_key.hpp"
#include "protocol/net/topology.hpp"
#include "protocol/network.hpp"
#include "protocol/simulation.hpp"
#include "protocol/transport_probe.hpp"

namespace mh {
namespace {

using net::EventCore;
using net::LatencyKind;
using net::LatencyLaw;
using net::NetConfig;
using net::Topology;
using net::TopologyKind;

Block test_block(std::uint64_t payload, std::uint64_t slot = 1, PartyId issuer = 0) {
  return make_block(genesis_block().hash, slot, issuer, payload);
}

std::vector<Block> drain(Network& net, PartyId recipient, std::size_t slot) {
  std::vector<Block> due;
  net.collect_into(recipient, slot, &due);
  return due;
}

// ---------------------------------------------------------------------------
// EventCore: the (due, seq) total order over private and shared deliveries
// ---------------------------------------------------------------------------

std::vector<net::Ref> collect(EventCore& core, PartyId recipient, std::size_t slot) {
  std::vector<net::Ref> out;
  core.collect(recipient, slot, [&](net::Ref ref) { out.push_back(ref); });
  return out;
}

using Refs = std::vector<net::Ref>;

TEST(EventCore, PopsDueAscendingThenSchedulingOrder) {
  EventCore core(1);
  core.schedule(0, 5, 1);
  core.schedule(0, 3, 2);
  core.schedule(0, 5, 3);
  // Earliest due first, then scheduling order within a due.
  EXPECT_EQ(collect(core, 0, 10), Refs({2, 1, 3}));
}

TEST(EventCore, CollectHonorsTheDueBoundAndDrains) {
  EventCore core(2);
  core.schedule(0, 2, 1);
  core.schedule(0, 4, 2);
  core.schedule(1, 2, 3);
  EXPECT_EQ(collect(core, 0, 3), Refs{1});
  EXPECT_EQ(core.pending(0), 1u);  // the due-4 delivery is still queued
  EXPECT_EQ(core.pending(1), 1u);  // other recipients untouched
  EXPECT_EQ(collect(core, 0, 4), Refs{2});
}

TEST(EventCore, SeqOrderSurvivesOutOfInsertionDues) {
  // A later-scheduled send with a shorter draw overtakes an earlier one: the
  // contract is (due, seq), NOT insertion order.
  EventCore core(1);
  core.schedule(0, 9, 1);  // scheduled first, lands last
  core.schedule(0, 2, 2);
  EXPECT_EQ(collect(core, 0, 100), Refs({2, 1}));
}

TEST(EventCore, WipeDropsOnlyThatRecipient) {
  EventCore core(2);
  core.schedule(0, 2, 1);
  core.schedule(1, 2, 2);
  core.schedule_all(3, 7, net::kNobody);
  core.wipe(0);
  EXPECT_EQ(core.pending(0), 0u);
  EXPECT_EQ(core.pending(1), 2u);
}

TEST(EventCore, SharedRoundSkipsItsExceptAndCountsOncePerRecipient) {
  EventCore core(3);
  const std::uint64_t before = core.scheduled();
  core.schedule_all(2, 5, 1);  // everyone but party 1
  EXPECT_EQ(core.scheduled(), before + 1);  // one round, one seq
  EXPECT_EQ(collect(core, 0, 2), Refs{5});
  EXPECT_TRUE(collect(core, 1, 2).empty());
  EXPECT_EQ(collect(core, 2, 2), Refs{5});
  EXPECT_TRUE(collect(core, 0, 2).empty());  // consumed
}

TEST(EventCore, SharedAndPrivateDeliveriesWithOneDuePopInSeqOrder) {
  EventCore core(2);
  core.schedule(0, 4, 1);
  core.schedule_all(4, 2, net::kNobody);
  core.schedule(0, 4, 3);
  core.schedule_all(4, 4, net::kNobody);
  core.schedule(1, 3, 9);
  EXPECT_EQ(collect(core, 0, 4), Refs({1, 2, 3, 4}));
  EXPECT_EQ(collect(core, 1, 4), Refs({9, 2, 4}));  // due 3 ahead of due 4
}

TEST(EventCore, RoundsAppendedAtACollectedSlotLandAtTheNextCollect) {
  // Collecting at slot 5 leaves each cursor inside bucket 5: a round pushed
  // there afterwards (an injection visible at the current slot) is read at
  // the next collect, after what was read before.
  EventCore core(2);
  core.schedule_all(5, 1, net::kNobody);
  EXPECT_EQ(collect(core, 0, 5), Refs{1});
  core.schedule_all(5, 2, net::kNobody);
  EXPECT_EQ(collect(core, 0, 5), Refs{2});
  EXPECT_EQ(collect(core, 1, 5), Refs({1, 2}));
}

TEST(EventCore, ARoundBelowACollectedSlotFallsBackAheadOfLaterDues) {
  // Party 0 collected slot 6, so a round due 3 cannot join a bucket: it
  // falls back to one private copy per recipient, and each still pops ahead
  // of the later dues already queued.
  EventCore core(2);
  core.schedule_all(7, 1, net::kNobody);
  EXPECT_TRUE(collect(core, 0, 6).empty());
  core.schedule_all(3, 2, net::kNobody);
  EXPECT_EQ(core.pending(1), 2u);
  EXPECT_EQ(collect(core, 0, 7), Refs({2, 1}));
  EXPECT_EQ(collect(core, 1, 7), Refs({2, 1}));
}

TEST(EventCore, CollectingAtALowerSlotReturnsOnlyPrivateEntriesDueByThen) {
  EventCore core(1);
  core.schedule_all(9, 1, net::kNobody);
  core.schedule(0, 2, 2);
  core.schedule(0, 8, 3);
  EXPECT_TRUE(collect(core, 0, 1).empty());
  core.schedule_all(10, 4, net::kNobody);
  EXPECT_EQ(collect(core, 0, 9), Refs({2, 3, 1}));
  // The cursor sits at 9; an earlier slot drains only what is privately due.
  core.schedule(0, 4, 5);
  core.schedule(0, 6, 6);
  EXPECT_EQ(collect(core, 0, 4), Refs{5});
  EXPECT_EQ(collect(core, 0, 10), Refs({6, 4}));
}

TEST(EventCore, ACrashDropsSharedRoundsAlreadyPushed) {
  EventCore core(2);
  core.schedule_all(4, 1, net::kNobody);
  core.wipe(0);
  core.schedule_all(4, 2, net::kNobody);
  EXPECT_EQ(collect(core, 0, 4), Refs{2});  // only the round after the crash
  EXPECT_EQ(collect(core, 1, 4), Refs({1, 2}));
}

TEST(EventCore, TheRingGrowsPastLaggingCursors) {
  // Party 1 never collects, so every bucket stays live: the ring must grow
  // instead of recycling a bucket party 1 has not read.
  EventCore core(2);
  for (net::Ref due = 1; due <= 100; ++due) {
    core.schedule_all(due, due, net::kNobody);
    EXPECT_EQ(collect(core, 0, due), Refs{due});
  }
  Refs all;
  for (net::Ref due = 1; due <= 100; ++due) all.push_back(due);
  EXPECT_EQ(collect(core, 1, 100), all);
}

TEST(EventCore, RoundsFarAheadOfTheCursorsFallBack) {
  // A round a million slots past every cursor, or one that would stretch the
  // ring past its cap behind a recipient that stopped collecting, is pushed
  // privately instead; the pop order is unchanged.
  EventCore core(2);
  core.schedule_all(1, 1, net::kNobody);
  EXPECT_EQ(collect(core, 0, 1), Refs{1});
  core.schedule_all(1000000, 99, net::kNobody);
  Refs all{1};
  for (net::Ref due = 2; due <= 70000; ++due) {
    core.schedule_all(due, due, net::kNobody);  // party 1 pins every bucket
    all.push_back(due);
  }
  all.push_back(99);
  EXPECT_EQ(core.pending(1), all.size());
  EXPECT_EQ(collect(core, 1, 1000000), all);
  EXPECT_EQ(collect(core, 0, 1000000), Refs(all.begin() + 1, all.end()));
}

TEST(EventCore, ADuePast32BitsThrowsNamingTheSlot) {
  EventCore core(2);
  const std::size_t due = std::size_t{1} << 32;
  EXPECT_THROW(core.schedule(0, due, 1), std::invalid_argument);
  EXPECT_THROW(core.schedule_all(due, 1, net::kNobody), std::invalid_argument);
  try {
    core.schedule(0, due, 1);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(due)), std::string::npos);
  }
  core.schedule(0, due - 1, 1);  // the last 32-bit due is legal
  EXPECT_EQ(core.pending(0), 1u);
}

TEST(EventCore, ASweepReadsEachRoundOnceAndRefusesWhatOnlyCollectCanOrder) {
  EventCore core(3);
  std::vector<net::Round> rounds;
  core.schedule_all(2, 7, 1);
  core.schedule_all(2, 8, net::kNobody);
  ASSERT_TRUE(core.sweep(2, &rounds));
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].ref, 7u);
  EXPECT_EQ(rounds[0].except, 1u);
  EXPECT_EQ(rounds[1].ref, 8u);
  EXPECT_EQ(core.pending(0) + core.pending(1) + core.pending(2), 0u);  // consumed for all
  // A private delivery anywhere: only a per-recipient merge orders it.
  core.schedule_all(3, 9, net::kNobody);
  core.schedule(2, 3, 4);
  EXPECT_FALSE(core.sweep(3, &rounds));
  EXPECT_EQ(collect(core, 2, 3), Refs({9, 4}));
  // Party 2 read bucket 3 alone: the cursors disagree until the others do.
  core.schedule_all(3, 5, net::kNobody);
  EXPECT_FALSE(core.sweep(3, &rounds));
  EXPECT_EQ(collect(core, 0, 3), Refs({9, 5}));
  EXPECT_EQ(collect(core, 1, 3), Refs({9, 5}));
  EXPECT_EQ(collect(core, 2, 3), Refs{5});
  // A round pushed before a crash is skipped by the crashed party alone.
  core.schedule_all(4, 6, net::kNobody);
  core.wipe(1);
  EXPECT_FALSE(core.sweep(4, &rounds));
  EXPECT_TRUE(collect(core, 1, 4).empty());
  EXPECT_EQ(collect(core, 0, 4), Refs{6});
  EXPECT_EQ(collect(core, 2, 4), Refs{6});
  // Aligned again, with every floor below the next round.
  core.schedule_all(5, 3, 0);
  ASSERT_TRUE(core.sweep(5, &rounds));
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].ref, 3u);
}

/// The event core's contract spelled out naively: one plain list of (due,
/// seq, ref) per recipient, a shared round copied into every list but its
/// except's, a wipe clearing the list, and a collect popping what is due by
/// (due, seq).
class NaiveQueues {
 public:
  explicit NaiveQueues(std::size_t parties) : lists_(parties) {}

  void schedule(PartyId recipient, std::size_t due, net::Ref ref) {
    lists_[recipient].push_back({due, seq_++, ref});
  }
  void schedule_all(std::size_t due, net::Ref ref, PartyId except) {
    const std::uint64_t seq = seq_++;
    for (PartyId r = 0; r < lists_.size(); ++r)
      if (r != except) lists_[r].push_back({due, seq, ref});
  }
  void wipe(PartyId recipient) { lists_[recipient].clear(); }
  Refs collect(PartyId recipient, std::size_t slot) {
    std::vector<Entry>& list = lists_[recipient];
    std::sort(list.begin(), list.end());
    const auto due = std::partition_point(list.begin(), list.end(),
                                          [slot](const Entry& e) { return e.due <= slot; });
    Refs out;
    for (auto it = list.begin(); it != due; ++it) out.push_back(it->ref);
    list.erase(list.begin(), due);
    return out;
  }
  [[nodiscard]] std::size_t pending(PartyId recipient) const { return lists_[recipient].size(); }

 private:
  struct Entry {
    std::size_t due;
    std::uint64_t seq;
    net::Ref ref;
    bool operator<(const Entry& other) const {
      return due != other.due ? due < other.due : seq < other.seq;
    }
  };
  std::vector<std::vector<Entry>> lists_;
  std::uint64_t seq_ = 0;
};

TEST(EventCore, DifferentialFuzzAgainstNaiveQueues) {
  // Random private sends and shared rounds (to everyone, or everyone but
  // one), dues below a cursor and past the ring's reach, wipes, lagging and
  // lower-slot collects, and sweeps: after every collect the core must hand
  // out exactly the naive lists' due prefix and agree on pending(); a sweep
  // must either refuse and consume nothing, or return what every
  // recipient's collect would have.
  Rng rng(0xc011ec7ULL);
  std::size_t collects = 0, sweeps = 0, swept_rounds = 0, refused = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t parties = 1 + rng.below(5);
    EventCore core(parties);
    NaiveQueues naive(parties);
    std::vector<net::Round> rounds;
    std::size_t now = rng.below(3);
    net::Ref next = 0;
    const auto check_pending = [&] {
      for (PartyId r = 0; r < parties; ++r)
        ASSERT_EQ(core.pending(r), naive.pending(r)) << "trial " << trial << ", party " << r;
    };
    const auto pick_due = [&]() -> std::size_t {
      const std::uint64_t shape = rng.below(10);
      if (shape == 0) return now + (std::size_t{1} << 16) + rng.below(4);  // past the ring
      if (shape <= 2) return now - std::min<std::size_t>(now, rng.below(3));  // at or below
      return now + rng.below(4);
    };
    const int ops = 10 + static_cast<int>(rng.below(60));
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t kind = rng.below(100);
      if (kind < 15) {
        const PartyId r = static_cast<PartyId>(rng.below(parties));
        const std::size_t due = pick_due();
        core.schedule(r, due, next);
        naive.schedule(r, due, next++);
      } else if (kind < 45) {
        const std::uint64_t pick = rng.below(parties + 1);
        const PartyId except = pick == parties ? net::kNobody : static_cast<PartyId>(pick);
        const std::size_t due = pick_due();
        core.schedule_all(due, next, except);
        naive.schedule_all(due, next++, except);
      } else if (kind < 49) {
        const PartyId r = static_cast<PartyId>(rng.below(parties));
        core.wipe(r);
        naive.wipe(r);
      } else if (kind < 59) {
        // One recipient alone, at the current slot or lagging behind it.
        const PartyId r = static_cast<PartyId>(rng.below(parties));
        const std::size_t slot = now - std::min<std::size_t>(now, rng.below(3));
        ASSERT_EQ(collect(core, r, slot), naive.collect(r, slot)) << "trial " << trial;
        ++collects;
        check_pending();
      } else if (kind < 79) {
        // A delivery round: a sweep, or every recipient in order.
        if (core.sweep(now, &rounds)) {
          ++sweeps;
          swept_rounds += rounds.size();
          for (PartyId r = 0; r < parties; ++r) {
            Refs read;
            for (const net::Round& round : rounds)
              if (round.except != r) read.push_back(round.ref);
            ASSERT_EQ(read, naive.collect(r, now)) << "trial " << trial << ", party " << r;
          }
        } else {
          ++refused;
          check_pending();  // a refused sweep consumed nothing
          for (PartyId r = 0; r < parties; ++r) {
            ASSERT_EQ(collect(core, r, now), naive.collect(r, now)) << "trial " << trial;
            ++collects;
          }
        }
        check_pending();
      } else {
        now += 1 + rng.below(2);
      }
    }
    check_pending();
  }
  // Every branch ran: collects alone and in rounds, sweeps that read rounds
  // and sweeps that refused.
  EXPECT_GT(collects, 100000u);
  EXPECT_GT(sweeps, 10000u);
  EXPECT_GT(swept_rounds, 10000u);
  EXPECT_GT(refused, 10000u);
}

// ---------------------------------------------------------------------------
// Topology construction
// ---------------------------------------------------------------------------

TEST(Topology, FullMeshIsImplicitAndComplete) {
  const Topology topo = Topology::build(TopologyKind::FullMesh, 5, 0, 1);
  for (PartyId p = 0; p < 5; ++p) {
    EXPECT_EQ(topo.degree(p), 4u);
    EXPECT_FALSE(topo.edge(p, p));
    std::size_t seen = 0;
    topo.for_each_neighbor(p, [&](PartyId r) {
      EXPECT_NE(r, p);
      ++seen;
    });
    EXPECT_EQ(seen, 4u);
  }
}

TEST(Topology, RingIsBidirectional) {
  const Topology topo = Topology::build(TopologyKind::Ring, 6, 0, 1);
  for (PartyId p = 0; p < 6; ++p) {
    EXPECT_EQ(topo.degree(p), 2u);
    EXPECT_TRUE(topo.edge(p, (p + 1) % 6));
    EXPECT_TRUE(topo.edge(p, (p + 5) % 6));
    EXPECT_FALSE(topo.edge(p, (p + 2) % 6));
  }
}

TEST(Topology, RandomKKeepsTheRingBackbone) {
  // The i -> i+1 backbone guarantees strong connectivity no matter what the
  // seeded shortcuts draw; out-degree is exactly k, no self-loops, no dups.
  const Topology topo = Topology::build(TopologyKind::RandomK, 12, 4, 77);
  for (PartyId p = 0; p < 12; ++p) {
    EXPECT_EQ(topo.degree(p), 4u);
    EXPECT_TRUE(topo.edge(p, (p + 1) % 12));
    std::set<PartyId> seen;
    topo.for_each_neighbor(p, [&](PartyId r) {
      EXPECT_NE(r, p);
      EXPECT_TRUE(seen.insert(r).second);
    });
  }
}

TEST(Topology, RandomKIsPureInTheSeed) {
  const Topology a = Topology::build(TopologyKind::RandomK, 16, 3, 5);
  const Topology b = Topology::build(TopologyKind::RandomK, 16, 3, 5);
  const Topology c = Topology::build(TopologyKind::RandomK, 16, 3, 6);
  bool differs = false;
  for (PartyId p = 0; p < 16; ++p)
    for (PartyId r = 0; r < 16; ++r) {
      EXPECT_EQ(a.edge(p, r), b.edge(p, r));
      differs = differs || (a.edge(p, r) != c.edge(p, r));
    }
  EXPECT_TRUE(differs);  // a different seed draws different shortcuts
}

TEST(Topology, TwoClusterBridgeLinksTheHalvesOnlyThroughTheBridge) {
  const Topology topo = Topology::build(TopologyKind::TwoClusterBridge, 8, 0, 1);
  for (PartyId p = 0; p < 8; ++p)
    for (PartyId r = 0; r < 8; ++r) {
      if (p == r) continue;
      const bool same = (p < 4) == (r < 4);
      const bool bridge = (p == 0 && r == 4) || (p == 4 && r == 0);
      EXPECT_EQ(topo.edge(p, r), same || bridge) << p << "->" << r;
    }
}

TEST(Topology, RejectsUnrealizableShapes) {
  EXPECT_THROW(Topology::build(TopologyKind::RandomK, 4, 0, 1), std::invalid_argument);
  EXPECT_THROW(Topology::build(TopologyKind::RandomK, 4, 4, 1), std::invalid_argument);
  EXPECT_THROW(Topology::build(TopologyKind::FullMesh, 0, 0, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Latency laws
// ---------------------------------------------------------------------------

TEST(LatencyLaw, DegenerateIsConstant) {
  const LatencyLaw law{LatencyKind::Degenerate, 3, 0, 0.5};
  Rng rng(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(law.draw(rng), 3u);
  EXPECT_EQ(law.max_extra(), 3u);
}

TEST(LatencyLaw, UniformAndGeometricRespectTheCap) {
  Rng rng(7);
  const LatencyLaw uniform{LatencyKind::Uniform, 0, 4, 0.5};
  const LatencyLaw geometric{LatencyKind::Geometric, 0, 3, 0.6};
  bool uniform_hit_cap = false;
  for (int i = 0; i < 400; ++i) {
    const std::size_t u = uniform.draw(rng);
    EXPECT_LE(u, 4u);
    uniform_hit_cap = uniform_hit_cap || u == 4;
    EXPECT_LE(geometric.draw(rng), 3u);
  }
  EXPECT_TRUE(uniform_hit_cap);  // the bound is inclusive and reachable
  EXPECT_EQ(uniform.max_extra(), 4u);
  EXPECT_EQ(geometric.max_extra(), 3u);
}

TEST(LatencyLaw, RejectsDegenerateGeometricWeights) {
  for (const double p : {0.0, 1.0, 1.5}) {
    const LatencyLaw law{LatencyKind::Geometric, 0, 3, p};
    EXPECT_THROW(law.validate(), std::invalid_argument) << p;
  }
}

// ---------------------------------------------------------------------------
// NetConfig
// ---------------------------------------------------------------------------

TEST(NetConfig, DefaultIsDegenerate) {
  EXPECT_FALSE(NetConfig{}.heterogeneous());
  EXPECT_FALSE(NetConfig::degenerate().heterogeneous());
  NetConfig ring;
  ring.topology = TopologyKind::Ring;
  EXPECT_TRUE(ring.heterogeneous());
  NetConfig slow;
  slow.latency = {LatencyKind::Degenerate, 1, 0, 0.5};
  EXPECT_TRUE(slow.heterogeneous());
  NetConfig thin;
  thin.bandwidth = 2;
  EXPECT_TRUE(thin.heterogeneous());
}

TEST(NetConfig, ValidateNamesTheOffendingKnob) {
  NetConfig bad;
  bad.topology = TopologyKind::RandomK;
  bad.k = 9;
  try {
    bad.validate(4);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("k = 9"), std::string::npos) << e.what();
  }
}

TEST(LinkStreamKey, PacksSlotSenderRecipientAndRefusesToWrap) {
  EXPECT_EQ(net::link_stream_key(0, 0, 0, 1), 0u);
  EXPECT_EQ(net::link_stream_key(7, 2, 5, 10), 725u);
  // For 10^6 parties the keys of slot 18446744 start at 18446744 * 10^12 and
  // run past 2^64: the link (73709, 551615) lands exactly on 2^64 - 1, and
  // every later link, and every later slot, would wrap.
  constexpr std::uint64_t kParties = 1000000;
  constexpr std::uint64_t kSlot = 18446744;
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  EXPECT_EQ(net::link_stream_key(kSlot - 1, 999999, 999999, kParties), kSlot * 1000000000000 - 1);
  EXPECT_EQ(net::link_stream_key(kSlot, 73709, 551615, kParties), kMax);
  EXPECT_THROW((void)net::link_stream_key(kSlot, 73709, 551616, kParties), std::invalid_argument);
  EXPECT_THROW((void)net::link_stream_key(kSlot, 73710, 0, kParties), std::invalid_argument);
  EXPECT_THROW((void)net::link_stream_key(kSlot + 1, 0, 0, kParties), std::invalid_argument);
  try {
    (void)net::link_stream_key(kSlot + 1, 3, 4, kParties);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("slot 18446745"), std::string::npos) << what;
    EXPECT_NE(what.find("1000000 parties"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Heterogeneous transport behavior
// ---------------------------------------------------------------------------

TEST(HeteroNetwork, FixedLatencyShiftsEveryDelivery) {
  NetConfig cfg;
  cfg.latency = {LatencyKind::Degenerate, 2, 0, 0.5};
  Network net(3, 0, cfg);
  BlockTree tree;
  const Block b = test_block(1, 1, 0);
  tree.add(b);
  net.broadcast_chain(tree, b, 1);
  EXPECT_TRUE(drain(net, 1, 3).empty());       // the lockstep due is slot 2...
  EXPECT_EQ(drain(net, 1, 4).size(), 1u);      // ...plus the fixed 2 slots
  EXPECT_EQ(drain(net, 2, 4).size(), 1u);
}

TEST(HeteroNetwork, RingGossipRelaysAcrossHopsWithoutDuplicates) {
  NetConfig cfg;
  cfg.topology = TopologyKind::Ring;
  Network net(5, 0, cfg);
  BlockTree tree;
  const Block b = test_block(1, 1, 0);
  tree.add(b);
  net.broadcast_chain(tree, b, 1);
  // Hop 1: the ring neighbors of party 0 hold it at slot 2; their relays put
  // it at distance-2 parties by slot 3. Each party relays what it collects,
  // in a slot loop, the way the simulation relays what a node admits.
  std::vector<std::size_t> arrival(5, 0);
  for (std::size_t slot = 1; slot <= 6; ++slot)
    for (PartyId p = 0; p < 5; ++p)
      for (const Block& got : drain(net, p, slot)) {
        EXPECT_EQ(got.hash, b.hash);
        EXPECT_EQ(arrival[p], 0u) << "duplicate delivery to party " << p;
        arrival[p] = slot;
        net.relay(tree.find_entry(got.hash), p, slot);
      }
  EXPECT_EQ(arrival[1], 2u);
  EXPECT_EQ(arrival[4], 2u);  // ring is bidirectional
  EXPECT_EQ(arrival[2], 3u);  // two hops
  EXPECT_EQ(arrival[3], 3u);
  EXPECT_EQ(arrival[0], 0u);  // the forger never receives its own block
}

TEST(HeteroNetwork, RelayShipsTheChainItsNeighborLacks) {
  // Party 1 has admitted a -> b; party 2 was shown a alone (an injection).
  // Relaying b ships party 2 just b, and party 0, which never saw a, a then
  // b at one due.
  NetConfig cfg;
  cfg.topology = TopologyKind::Ring;
  Network net(4, 0, cfg);
  BlockTree tree;
  const Block a = test_block(1, 1, 3);
  const Block b = make_block(a.hash, 2, kAdversary, 2);
  tree.add(a);
  tree.add(b);
  net.bind_store(tree);  // the injection resolves against the store
  net.inject(a, 2, 2);
  (void)drain(net, 2, 2);
  net.relay(tree.find_entry(b.hash), 1, 3);
  const auto to0 = drain(net, 0, 4);
  ASSERT_EQ(to0.size(), 2u);
  EXPECT_EQ(to0[0].hash, a.hash);
  EXPECT_EQ(to0[1].hash, b.hash);
  const auto to2 = drain(net, 2, 4);
  ASSERT_EQ(to2.size(), 1u);
  EXPECT_EQ(to2[0].hash, b.hash);
}

TEST(HeteroNetwork, ATamperedCopyNeverCoversTheGenuineBlockForRelays) {
  // Ring 0-1-2-3-0. A tampered copy of party 0's block h (same hash, bad
  // header) reaches party 2 at slot 1, before h leaves party 0. Both of
  // party 2's neighbours later relay h: the first relay must still ship it.
  NetConfig cfg;
  cfg.topology = TopologyKind::Ring;
  Network net(4, 0, cfg);
  BlockTree tree;
  const Block h = test_block(1, 1, 0);
  tree.add(h);
  net.bind_store(tree);
  Block tampered = h;
  tampered.payload ^= 0xbad;
  net.inject(tampered, 2, 1);
  EXPECT_EQ(drain(net, 2, 1), std::vector<Block>{tampered});
  net.broadcast_chain(tree, h, 1);
  EXPECT_EQ(drain(net, 1, 2), std::vector<Block>{h});
  EXPECT_EQ(drain(net, 3, 2), std::vector<Block>{h});
  net.relay(tree.find_entry(h.hash), 1, 2);
  net.relay(tree.find_entry(h.hash), 3, 2);
  EXPECT_EQ(drain(net, 2, 3), std::vector<Block>{h});  // once: the second relay is covered
}

TEST(HeteroNetwork, AncestorInFlightPastTheChildsDueIsReShipped) {
  // Coverage is bounded by due, not "scheduled at all": a is on its way to
  // party 1 with a 2-slot hold-back (due 4) when b, forged on a, leaves at
  // slot 2 with none (due 3). b's bundle must carry a again, or party 1
  // would hold b before its parent.
  NetConfig cfg;
  cfg.latency = {LatencyKind::Degenerate, 0, 0, 0.5};
  cfg.bandwidth = 8;  // heterogeneous, but no spill at this size
  Network net(3, 2, cfg);
  BlockTree tree;
  const Block a = test_block(1, 1, 0);
  const Block b = make_block(a.hash, 2, 0, 2);
  tree.add(a);
  tree.add(b);
  net.broadcast_chain(tree, a, 1, {0, 2, 0});
  net.broadcast_chain(tree, b, 2);
  const auto due = drain(net, 1, 3);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].hash, a.hash);
  EXPECT_EQ(due[1].hash, b.hash);
  EXPECT_EQ(drain(net, 1, 4).size(), 1u);  // a's delayed copy, now a duplicate
}

TEST(HeteroNetwork, BandwidthCapSpillsEgressIntoLaterSlots) {
  NetConfig cfg;
  cfg.bandwidth = 1;  // full mesh, but one block may leave a party per slot
  Network net(3, 0, cfg);
  BlockTree tree;
  const Block b = test_block(1, 1, 0);
  tree.add(b);
  net.broadcast_chain(tree, b, 1);
  // Neighbor visit order is (1, 2): the first copy departs at slot 1 (due 2),
  // the second spills to slot 2 (due 3).
  EXPECT_EQ(drain(net, 1, 2).size(), 1u);
  EXPECT_TRUE(drain(net, 2, 2).empty());
  EXPECT_EQ(drain(net, 2, 3).size(), 1u);
}

TEST(HeteroNetwork, BandwidthSpilledBundleLandsAtOneDue) {
  // One block may leave a party per slot: party 0's bundle [a, b, c] to
  // party 1 departs over slots 3, 4 and 5, and all of it lands at the last
  // departure's due (6) — ancestors first, none after the child.
  NetConfig cfg;
  cfg.bandwidth = 1;
  Network net(2, 0, cfg);
  BlockTree tree;
  const Block a = test_block(1, 1, 0);
  const Block b = make_block(a.hash, 2, 0, 2);
  const Block c = make_block(b.hash, 3, 0, 3);
  tree.add(a);
  tree.add(b);
  tree.add(c);
  net.broadcast_chain(tree, c, 3);
  EXPECT_TRUE(drain(net, 1, 5).empty());
  const auto due = drain(net, 1, 6);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].hash, a.hash);
  EXPECT_EQ(due[1].hash, b.hash);
  EXPECT_EQ(due[2].hash, c.hash);
}

TEST(HeteroNetwork, AdversarialInjectionBypassesTopologyAndLatency) {
  NetConfig cfg;
  cfg.topology = TopologyKind::Ring;
  cfg.latency = {LatencyKind::Degenerate, 3, 0, 0.5};
  Network net(6, 0, cfg);
  const Block b = test_block(1, 1, kAdversary);
  net.inject(b, 4, 1);  // direct channel: visible at the requested slot
  EXPECT_EQ(drain(net, 4, 1).size(), 1u);
  net.inject_all(b, 2);
  EXPECT_EQ(drain(net, 3, 2).size(), 1u);  // not a ring neighbor of anyone involved
}

TEST(HeteroNetwork, ObservedDeltaIsBoundedByTheLatencyCapOnAFullMesh) {
  // One direct hop per delivery: the recovered synchrony bound can never
  // exceed the law's cap.
  NetConfig cfg;
  cfg.latency = {LatencyKind::Uniform, 0, 3, 0.5};
  Rng rng(91);
  const LeaderSchedule schedule =
      LeaderSchedule::from_symbol_law(kTransportProbeLaw, 64, 6, rng);
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 4242}, 3, nullptr,
                 nullptr, cfg);
  sim.run();
  const DeliveryAudit audit = sim.delivery_audit();
  EXPECT_TRUE(audit.heterogeneous);
  EXPECT_LE(audit.observed_delta, 3u);
}

TEST(HeteroNetwork, DegenerateReportIsTrivial) {
  Rng rng(91);
  const LeaderSchedule schedule =
      LeaderSchedule::from_symbol_law(kTransportProbeLaw, 32, 4, rng);
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 7}, 0, nullptr);
  sim.run();
  const DeliveryAudit audit = sim.delivery_audit();
  EXPECT_FALSE(audit.heterogeneous);
  EXPECT_EQ(audit.observed_delta, 0u);
  EXPECT_EQ(audit.pending_inflations, 0u);
}

TEST(HeteroNetwork, RunStoppedMidGossipInflatesTheObservedDelta) {
  // 6-ring, one hop per slot: party 0's slot-4 block reaches parties 1 and 5
  // at onset 5, 2 and 4 at onset 6, and party 3 at onset 7. Stopped at slot 5
  // (deliveries flushed through onset 6), party 3 is still pending, so the
  // audit raises Delta to at least last onset - forge slot.
  std::vector<SlotLeaders> slots(16);
  slots[3].honest = {0};
  const LeaderSchedule schedule(std::move(slots), 6);
  NetConfig cfg;
  cfg.topology = TopologyKind::Ring;
  Simulation sim(schedule, SimulationConfig{TieBreak::ConsistentHash, 3}, 0, nullptr, nullptr,
                 cfg);
  sim.run_until(5);
  const std::size_t last_onset = sim.current_slot() + 1;
  const std::size_t forge_slot = sim.all_blocks().back().slot;
  ASSERT_EQ(forge_slot, 4u);
  EXPECT_FALSE(sim.nodes()[3].tree().contains(sim.all_blocks().back().hash));
  const DeliveryAudit audit = sim.delivery_audit();
  EXPECT_TRUE(audit.heterogeneous);
  EXPECT_FALSE(audit.faulted);
  EXPECT_FALSE(audit.delivery_unbounded);
  EXPECT_EQ(audit.pending_inflations, 1u);
  EXPECT_GE(audit.observed_delta, last_onset - forge_slot);
}

TEST(HeteroNetwork, NoHonestOrphansWithoutAnAdversary) {
  // The ten shapes of bench_net's pinned E18 matrix, run with no adversary:
  // every block is honest, and every honest send (first hop or relay) ships
  // the chain suffix its recipient is not covered for by that send's due, so
  // no node ever receives a block before its parent.
  struct Shape {
    TopologyKind topology;
    LatencyLaw latency;
    std::size_t bandwidth;
  };
  const Shape shapes[] = {
      {TopologyKind::Ring, {LatencyKind::Degenerate, 0, 0, 0.5}, 0},
      {TopologyKind::Ring, {LatencyKind::Uniform, 0, 2, 0.5}, 0},
      {TopologyKind::Ring, {LatencyKind::Geometric, 0, 2, 0.5}, 1},
      {TopologyKind::RandomK, {LatencyKind::Degenerate, 0, 0, 0.5}, 0},
      {TopologyKind::RandomK, {LatencyKind::Geometric, 0, 3, 0.3}, 0},
      {TopologyKind::TwoClusterBridge, {LatencyKind::Degenerate, 0, 0, 0.5}, 0},
      {TopologyKind::TwoClusterBridge, {LatencyKind::Uniform, 0, 2, 0.5}, 2},
      {TopologyKind::FullMesh, {LatencyKind::Degenerate, 1, 0, 0.5}, 0},
      {TopologyKind::FullMesh, {LatencyKind::Uniform, 0, 2, 0.5}, 0},
      {TopologyKind::FullMesh, {LatencyKind::Degenerate, 0, 0, 0.5}, 1},
  };
  // Orphans are counted where a node buffers one; recording is switched on
  // for the sweep and restored after.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& buffered = obs::Registry::global().counter("protocol.node.orphans_buffered");
  for (const Shape& shape : shapes) {
    NetConfig cfg;
    cfg.topology = shape.topology;
    cfg.latency = shape.latency;
    cfg.bandwidth = shape.bandwidth;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng rng(seed);
      const LeaderSchedule schedule =
          LeaderSchedule::from_symbol_law(kTransportProbeLaw, 128, 16, rng);
      Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, rng()}, 2, nullptr,
                     nullptr, cfg);
      const std::uint64_t before = buffered.value();
      sim.run();
      EXPECT_EQ(buffered.value() - before, 0u) << cfg.describe() << ", seed " << seed;
    }
  }
  obs::set_enabled(was_enabled);
}

// ---------------------------------------------------------------------------
// The façade equivalence contract
// ---------------------------------------------------------------------------

TEST(FacadeEquivalence, DegenerateNetConfigReproducesTheLegacyDigestBitIdentically) {
  const TransportProbeOutcome legacy = balance_transport_probe(8, 192, 2024);
  const TransportProbeOutcome event_core =
      hetero_transport_probe(8, 192, 2024, 0, NetConfig::degenerate());
  EXPECT_EQ(event_core.digest, legacy.digest);
  EXPECT_EQ(event_core.blocks, legacy.blocks);
  EXPECT_EQ(event_core.divergence, legacy.divergence);
}

TEST(FacadeEquivalence, GoldenTransportPinsStillHold) {
  // The seed pins from the slot-bucket era, now produced by the event core.
  EXPECT_EQ(balance_transport_probe(kBalanceProbePinParties, kBalanceProbePinHorizon,
                                    kBalanceProbePinSeed)
                .digest,
            kBalanceProbePinDigest);
  EXPECT_EQ(randomized_transport_probe(kRandomizedProbePinParties, kRandomizedProbePinHorizon,
                                       kRandomizedProbePinSeed, kRandomizedProbePinDelta)
                .digest,
            kRandomizedProbePinDigest);
}

// ---------------------------------------------------------------------------
// Oracle grading of heterogeneous executions
// ---------------------------------------------------------------------------

oracle::RunConfig hetero_run_config(TopologyKind topology) {
  oracle::RunConfig rc;
  rc.law = theorem7_law(1.0, 0.25, 0.45);
  rc.horizon = 48;
  rc.delta = 1;
  rc.strategy = oracle::Strategy::Balance;
  rc.net.topology = topology;
  rc.net.k = 2;
  rc.net.latency = {LatencyKind::Uniform, 0, 2, 0.5};
  return rc;
}

TEST(HeteroOracle, EveryTopologyGradesWithoutUngradedViolations) {
  for (const TopologyKind topology :
       {TopologyKind::FullMesh, TopologyKind::RandomK, TopologyKind::Ring,
        TopologyKind::TwoClusterBridge}) {
    const oracle::RunConfig rc = hetero_run_config(topology);
    engine::SeedSequence streams(515);
    for (std::size_t r = 0; r < 6; ++r) {
      Rng rng = streams.stream(r);
      const oracle::RunVerdict v = oracle::check_execution(rc, rng);
      EXPECT_TRUE(v.heterogeneous);
      const char code = v.code();
      EXPECT_NE(code, '!') << net::topology_kind_name(topology) << " run " << r;
      EXPECT_NE(code, 'u') << net::topology_kind_name(topology) << " run " << r
                           << " (strongly connected gossip must stay bounded)";
      if (v.degraded) {
        EXPECT_TRUE(v.recovery_checked);
      }
    }
  }
}

TEST(HeteroOracle, VerdictsAreThreadCountBitIdentical) {
  // 12 heterogeneous cells fanned across {1, 2, 8} workers must produce the
  // same verdict codes: every draw is counter-based in the cell index.
  const TopologyKind kinds[] = {TopologyKind::RandomK, TopologyKind::Ring,
                                TopologyKind::TwoClusterBridge, TopologyKind::FullMesh};
  const auto run_band = [&](std::size_t threads) {
    std::string codes(12, '?');
    engine::SeedSequence streams(2210);
    engine::for_each_index(12, threads, [&](std::size_t i) {
      const oracle::RunConfig rc = hetero_run_config(kinds[i % 4]);
      Rng rng = streams.stream(i);
      codes[i] = oracle::check_execution(rc, rng).code();
    });
    return codes;
  };
  const std::string serial = run_band(1);
  EXPECT_EQ(run_band(2), serial);
  EXPECT_EQ(run_band(8), serial);
  EXPECT_EQ(serial.find('?'), std::string::npos);
  EXPECT_EQ(serial.find('!'), std::string::npos);
  EXPECT_EQ(serial.find('u'), std::string::npos);
}

}  // namespace
}  // namespace mh
