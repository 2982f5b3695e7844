#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "chars/bernoulli.hpp"
#include "chars/char_string.hpp"
#include "checkers/settlement.hpp"
#include "checkers/uvp.hpp"
#include "core/astar.hpp"
#include "core/relative_margin.hpp"
#include "fork/balanced.hpp"
#include "fork/fork.hpp"
#include "fork/margin.hpp"
#include "fork/reach.hpp"
#include "fork/validate.hpp"
#include "support/check.hpp"
#include "support/random.hpp"

// The (D, T; s, k)-settlement game of Section 2.2, played at the fork level.
//
// The challenger executes the honest longest-chain plays; a ForkAdversary
// chooses (a) how many honest vertices a multiply honest slot creates,
// (b) which maximum-length tine each one extends (the A0 tie-breaking lever),
// and (c) arbitrary adversarial augmentations between slots. Under the
// consistent tie-breaking axiom A0' the challenger overrides (b): every
// honest vertex of a slot extends the same, deterministically chosen tine.
//
// The game is the semantic anchor for everything else: A* is one strategy
// (the optimal one, Theorem 6), the protocol simulator realizes the same game
// over a network, and the recurrence of Theorem 5 prices every strategy.

namespace mh {

class ForkAdversary {
 public:
  virtual ~ForkAdversary() = default;

  /// Number of honest vertices for an H slot (>= 1; h slots are fixed at 1).
  virtual std::size_t honest_multiplicity(std::size_t /*slot*/, const Fork&,
                                          const CharString&) {
    return 1;
  }

  /// Under A0: which maximum-length tine does honest vertex `index` of this
  /// slot extend? `candidates` holds the heads of all maximal tines.
  virtual VertexId choose_tip(std::size_t /*slot*/, std::size_t /*index*/,
                              const std::vector<VertexId>& candidates, const Fork&,
                              const CharString&) {
    return candidates.front();
  }

  /// Adversarial augmentation after slot `slot` (game step 3(b)/(c)): may add
  /// vertices labeled with adversarial slots <= slot. The challenger validates
  /// nothing here; tests do.
  virtual void augment(std::size_t /*slot*/, Fork&, const CharString&) {}
};

struct GameOptions {
  /// A0' (consistent tie-breaking): the challenger picks the extension tine
  /// deterministically (min head hash stand-in: smallest (depth, label, id))
  /// and all concurrent honest vertices extend it.
  bool consistent_tie_breaking = false;
};

/// Plays the game over the whole string; returns the final fork A_T.
Fork play_settlement_game(const CharString& w, ForkAdversary& adversary,
                          const GameOptions& options = {});

/// Did the adversary win the (s, k)-settlement game with this final fork?
/// (Two maximum-length tines diverging prior to s, per Definition 3; callers
/// wanting the any-time variant replay prefixes.)
bool adversary_wins(const Fork& fork, const CharString& w, std::size_t s, std::size_t k);

// ---------------------------------------------------------------------------
// Strategies

/// Plays greedily for two long diverging chains: doubles up on multiply honest
/// slots whenever the two deepest tines are level, splits concurrent leaders
/// across them, and spends adversarial slots re-leveling the shorter branch.
/// A fork-level mirror of the protocol BalanceAttacker.
class GreedyBalanceStrategy : public ForkAdversary {
 public:
  std::size_t honest_multiplicity(std::size_t slot, const Fork& fork,
                                  const CharString& w) override;
  VertexId choose_tip(std::size_t slot, std::size_t index,
                      const std::vector<VertexId>& candidates, const Fork& fork,
                      const CharString& w) override;
  void augment(std::size_t slot, Fork& fork, const CharString& w) override;
};

/// The optimal adversary A* expressed through the game interface: pads the
/// Figure-4 zero-reach tine(s) to maximal length during augmentation so the
/// challenger's next honest vertex lands exactly where A* wants it. Playing
/// this strategy through the game must reproduce the canonical fork margins
/// (tested against Theorem 5/6).
class AStarGameStrategy : public ForkAdversary {
 public:
  std::size_t honest_multiplicity(std::size_t slot, const Fork& fork,
                                  const CharString& w) override;
  VertexId choose_tip(std::size_t slot, std::size_t index,
                      const std::vector<VertexId>& candidates, const Fork& fork,
                      const CharString& w) override;
  void augment(std::size_t slot, Fork& fork, const CharString& w) override;

 private:
  /// Tines padded during the last augmentation, in extension order.
  std::vector<VertexId> planned_tips_;
};

}  // namespace mh

namespace mh {

namespace {

/// The challenger's consistent tie-breaking rule under A0': smallest
/// (head label, vertex id) among maximal tines — deterministic for any view.
VertexId consistent_choice(const Fork& fork, const std::vector<VertexId>& candidates) {
  VertexId best = candidates.front();
  for (VertexId v : candidates)
    if (fork.label(v) < fork.label(best) ||
        (fork.label(v) == fork.label(best) && v < best))
      best = v;
  return best;
}

}  // namespace

Fork play_settlement_game(const CharString& w, ForkAdversary& adversary,
                          const GameOptions& options) {
  Fork fork;  // A_0: the genesis-only fork
  for (std::size_t t = 1; t <= w.size(); ++t) {
    if (w.honest(t)) {
      // Candidates are the maximal tines of A_{t-1}: concurrent leaders all
      // see the same fork and may extend the same path.
      const std::vector<VertexId> candidates = fork.longest_tines();
      const std::size_t multiplicity =
          w.at(t) == Symbol::h
              ? 1
              : std::max<std::size_t>(1, adversary.honest_multiplicity(t, fork, w));
      const VertexId consistent = consistent_choice(fork, candidates);
      for (std::size_t index = 0; index < multiplicity; ++index) {
        VertexId tip = consistent;
        if (!options.consistent_tie_breaking) {
          tip = adversary.choose_tip(t, index, candidates, fork, w);
          MH_REQUIRE_MSG(std::find(candidates.begin(), candidates.end(), tip) !=
                             candidates.end(),
                         "the adversary must pick a maximal tine of A_{t-1}");
        }
        fork.add_vertex(tip, static_cast<std::uint32_t>(t));
      }
    }
    adversary.augment(t, fork, w);
  }
  return fork;
}

bool adversary_wins(const Fork& fork, const CharString& w, std::size_t s, std::size_t k) {
  MH_REQUIRE(s >= 1 && k >= 1);
  if (w.size() < s + k) return false;  // no qualifying observation time yet
  return settlement_violation_in_fork(fork, s);
}

// ---------------------------------------------------------------------------
// GreedyBalanceStrategy

std::size_t GreedyBalanceStrategy::honest_multiplicity(std::size_t, const Fork& fork,
                                                       const CharString&) {
  // Double up whenever two maximal tines diverge at the root (each leader
  // extends one branch and the balance survives the slot), or when the fork
  // is still trivial (two children of genesis found the two branches).
  const std::vector<VertexId> heads = fork.longest_tines();
  if (heads.size() == 1 && heads.front() == kRoot) return 2;
  for (std::size_t a = 0; a < heads.size(); ++a)
    for (std::size_t b = a + 1; b < heads.size(); ++b)
      if (fork.lca(heads[a], heads[b]) == kRoot) return 2;
  return 1;
}

VertexId GreedyBalanceStrategy::choose_tip(std::size_t, std::size_t index,
                                           const std::vector<VertexId>& candidates,
                                           const Fork& fork, const CharString&) {
  if (index == 0) return candidates.front();
  for (VertexId v : candidates)
    if (fork.lca(candidates.front(), v) == kRoot) return v;
  return candidates.front();
}

void GreedyBalanceStrategy::augment(std::size_t slot, Fork& fork, const CharString& w) {
  if (!w.adversarial(slot)) return;
  // Find the deepest tine and the deepest root-disjoint rival; extend the
  // rival with one block of this slot if it lags (or both if level).
  VertexId deepest = kRoot;
  for (VertexId v = 0; v < fork.vertex_count(); ++v)
    if (fork.depth(v) > fork.depth(deepest)) deepest = v;
  VertexId rival = kNoVertex;
  for (VertexId v = 1; v < fork.vertex_count(); ++v) {
    if (fork.lca(v, deepest) != kRoot) continue;
    if (rival == kNoVertex || fork.depth(v) > fork.depth(rival)) rival = v;
  }
  const auto slot32 = static_cast<std::uint32_t>(slot);
  if (rival == kNoVertex) {
    // No second branch yet: found one with a block of this slot on genesis.
    fork.add_vertex(kRoot, slot32);
    return;
  }
  if (fork.depth(rival) < fork.depth(deepest) && fork.label(rival) < slot32) {
    fork.add_vertex(rival, slot32);
  } else if (fork.depth(rival) == fork.depth(deepest)) {
    if (fork.label(rival) < slot32) fork.add_vertex(rival, slot32);
    if (fork.label(deepest) < slot32) fork.add_vertex(deepest, slot32);
  }
}

// ---------------------------------------------------------------------------
// AStarGameStrategy

std::size_t AStarGameStrategy::honest_multiplicity(std::size_t slot, const Fork& fork,
                                                   const CharString& w) {
  return astar_extension_plan(fork, w.prefix(slot - 1), w.at(slot)).size();
}

VertexId AStarGameStrategy::choose_tip(std::size_t, std::size_t index,
                                       const std::vector<VertexId>& candidates, const Fork&,
                                       const CharString&) {
  if (index < planned_tips_.size()) return planned_tips_[index];
  return candidates.front();
}

void AStarGameStrategy::augment(std::size_t slot, Fork& fork, const CharString& w) {
  planned_tips_.clear();
  if (slot + 1 > w.size() || w.adversarial(slot + 1)) return;
  // Stage the Figure-4 extension(s) for the upcoming honest slot: pad the
  // selected tine(s) to maximal length with adversarial labels <= slot, so
  // the challenger's candidates include exactly the heads A* wants extended.
  const CharString processed = w.prefix(slot);
  const std::uint32_t target = fork.height();
  for (VertexId tine : astar_extension_plan(fork, processed, w.at(slot + 1)))
    planned_tips_.push_back(pad_with_adversarial(fork, processed, tine, target));
}

}  // namespace mh

namespace mh {
namespace {

class NullStrategy : public ForkAdversary {};

TEST(SettlementGame, ChallengerBuildsLinearChainAgainstNull) {
  NullStrategy null;
  const CharString w = CharString::parse("hhHh");
  const Fork fork = play_settlement_game(w, null);
  EXPECT_TRUE(validate_fork(fork, w).ok);
  EXPECT_EQ(fork.height(), 4u);
  // The null strategy never doubles H slots: one vertex per slot.
  EXPECT_EQ(fork.vertex_count(), 5u);
}

TEST(SettlementGame, AdversarialSlotsLeftIdleByNull) {
  NullStrategy null;
  const CharString w = CharString::parse("hAAh");
  const Fork fork = play_settlement_game(w, null);
  EXPECT_EQ(fork.vertices_with_label(2).size(), 0u);
  EXPECT_EQ(fork.vertices_with_label(3).size(), 0u);
  EXPECT_EQ(fork.height(), 2u);
}

TEST(SettlementGame, MultiplicityIsClampedToAtLeastOne) {
  class ZeroMultiplicity : public ForkAdversary {
    std::size_t honest_multiplicity(std::size_t, const Fork&, const CharString&) override {
      return 0;  // illegal; the challenger clamps to 1 (F3 requires >= 1)
    }
  } strategy;
  const Fork fork = play_settlement_game(CharString::parse("HH"), strategy);
  EXPECT_EQ(fork.vertices_with_label(1).size(), 1u);
  EXPECT_EQ(fork.vertices_with_label(2).size(), 1u);
}

TEST(SettlementGame, IllegalTipChoiceRejected) {
  class CheatingStrategy : public ForkAdversary {
    VertexId choose_tip(std::size_t, std::size_t, const std::vector<VertexId>&, const Fork& f,
                        const CharString&) override {
      // Pick a non-maximal tine once the fork is two levels deep.
      return f.height() >= 2 ? 1 : kRoot;
    }
  } strategy;
  EXPECT_THROW(play_settlement_game(CharString::parse("hhh"), strategy),
               std::invalid_argument);
}

TEST(SettlementGame, ConsistentTieBreakingIgnoresAdversaryChoice) {
  // Two branches of equal length; under A0' both H leaders extend the same
  // deterministic choice, so no balance can form without adversarial slots.
  GreedyBalanceStrategy greedy;
  GameOptions options;
  options.consistent_tie_breaking = true;
  const CharString w = CharString::parse("HHHHHH");
  const Fork fork = play_settlement_game(w, greedy, options);
  EXPECT_TRUE(validate_fork(fork, w).ok);
  EXPECT_FALSE(adversary_wins(fork, w, 1, 4));
}

TEST(SettlementGame, GreedyBalanceWinsOnAllHUnderA0) {
  GreedyBalanceStrategy greedy;
  const CharString w = CharString::parse("HHHHHH");
  const Fork fork = play_settlement_game(w, greedy);
  EXPECT_TRUE(validate_fork(fork, w).ok);
  EXPECT_TRUE(adversary_wins(fork, w, 1, 4));
}

TEST(SettlementGame, WinRequiresQualifyingObservationTime) {
  GreedyBalanceStrategy greedy;
  const CharString w = CharString::parse("HH");
  const Fork fork = play_settlement_game(w, greedy);
  EXPECT_FALSE(adversary_wins(fork, w, 1, 4));  // |w| < s + k
}

// The headline equivalence: playing A* through the game interface reproduces
// the canonical fork's margins — the game model, the Figure-4 strategy, and
// the Theorem-5 recurrence are one consistent story.
struct GameCase {
  double eps, ph;
  std::size_t n;
};

class AStarThroughGame : public ::testing::TestWithParam<GameCase> {};

TEST_P(AStarThroughGame, ReproducesCanonicalMargins) {
  const auto [eps, ph, n] = GetParam();
  const SymbolLaw law = bernoulli_condition(eps, ph);
  Rng rng(424243);
  for (int trial = 0; trial < 12; ++trial) {
    const CharString w = law.sample_string(n, rng);
    AStarGameStrategy astar;
    const Fork fork = play_settlement_game(w, astar);
    ASSERT_TRUE(validate_fork(fork, w).ok) << w.to_string();
    ASSERT_EQ(max_reach(fork, w), rho_of(w)) << w.to_string();
    for (std::size_t x = 0; x <= w.size(); x += 2)
      ASSERT_EQ(relative_margin(fork, w, x), relative_margin_recurrence(w, x))
          << "w = " << w.to_string() << " x = " << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, AStarThroughGame,
                         ::testing::Values(GameCase{0.3, 0.3, 32}, GameCase{0.1, 0.15, 48},
                                           GameCase{0.5, 0.4, 24}, GameCase{0.2, 0.0, 40}));

// No strategy may beat the recurrence: whenever any strategy wins the (s, k)
// game on w, the optimal margin must be nonnegative at some qualifying time.
TEST(SettlementGame, GreedyNeverBeatsTheRecurrence) {
  const SymbolLaw law = bernoulli_condition(0.2, 0.25);
  Rng rng(515);
  for (int trial = 0; trial < 40; ++trial) {
    const CharString w = law.sample_string(24, rng);
    GreedyBalanceStrategy greedy;
    const Fork fork = play_settlement_game(w, greedy);
    ASSERT_TRUE(validate_fork(fork, w).ok) << w.to_string();
    for (std::size_t s = 1; s + 4 <= w.size(); ++s) {
      if (adversary_wins(fork, w, s, 4)) {
        // Definition 3 divergence at the final fork implies the structural
        // margin over x = w_1..w_{s-1} is >= 0 there, which the recurrence
        // upper-bounds (Proposition 1).
        ASSERT_GE(relative_margin_recurrence(w, s - 1), 0)
            << "greedy beat the optimal bound on " << w.to_string() << " at s = " << s;
      }
    }
  }
}


// Theorem 4 through the game: on bivalent strings under A0\', two consecutive
// Catalan slots grant the earlier one the structural UVP in the played fork,
// no matter the strategy.
TEST(SettlementGame, Theorem4StructuralUvpUnderConsistentTieBreaking) {
  const SymbolLaw law = bernoulli_condition(0.3, 0.0);  // bivalent: ph = 0
  Rng rng(909090);
  GameOptions options;
  options.consistent_tie_breaking = true;
  int checked = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const CharString w = law.sample_string(20, rng);
    GreedyBalanceStrategy greedy;
    const Fork fork = play_settlement_game(w, greedy, options);
    ASSERT_TRUE(validate_fork(fork, w).ok) << w.to_string();
    for (std::size_t s = 1; s + 1 <= w.size(); ++s) {
      if (!has_uvp_consecutive_catalan(w, s)) continue;
      ++checked;
      // The first slot's siblings stay viable one extra slot: its unique
      // vertex binds from onset s + 2 (see uvp_holds_in_fork's contract).
      ASSERT_TRUE(uvp_holds_in_fork(fork, w, s, s + 2))
          << "Theorem 4 failed at s = " << s << " on " << w.to_string();
      ASSERT_TRUE(uvp_holds_in_fork(fork, w, s + 1, s + 3))
          << "Theorem 4 failed at s+1 = " << s + 1 << " on " << w.to_string();
    }
  }
  EXPECT_GT(checked, 0);
}
}  // namespace
}  // namespace mh
