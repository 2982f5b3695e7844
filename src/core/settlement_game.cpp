#include "core/settlement_game.hpp"

#include <algorithm>

#include "core/astar.hpp"
#include "core/settlement.hpp"
#include "fork/balanced.hpp"
#include "fork/reach.hpp"
#include "support/check.hpp"

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
