#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>

#include "chars/bernoulli.hpp"
#include "chars/char_string.hpp"
#include "core/astar.hpp"
#include "core/cp.hpp"
#include "core/relative_margin.hpp"
#include "fork/balanced.hpp"
#include "fork/fork.hpp"
#include "fork/validate.hpp"
#include "support/check.hpp"
#include "support/random.hpp"

// Appendix A: common-prefix violations imply balanced forks, proven without
// Catalan slots. The centerpiece is Theorem 9's constructive fork surgery:
// given a fork whose (viable) slot divergence is at least k+1, produce a
// decomposition w = xyz with |y| >= k and an x-balanced fork for xy.
//
// The surgery follows the proof:
//   1. pick a viable tine pair (t1, t2) maximizing the slot divergence (27),
//      then minimizing |l(t2) - l(t1)| (28), then maximizing length(t1) (29);
//   2. let u = t1 /\ t2, alpha = l(u), and beta = the first honest index at or
//      after l(t2); x = w_1..w_alpha, y = w_{alpha+1}..w_{beta-1};
//   3. "pinch" the fork at u (redirect every vertex of depth depth(u)+1 to
//      hang from u) — legal because maximality forces u to be the unique
//      deepest vertex of the x-prefix;
//   4. restrict to labels <= beta-1, drop subtrees deeper than the shorter of
//      the two divergent tines, and trim the longer tine's trailing
//      adversarial vertices; the result is x-balanced.
//
// The construction is sound for any fork (the result, when produced, is a
// verified x-balanced fork); completeness — that it succeeds whenever a
// k-CP^slot violation exists — holds for divergence-maximal forks, which is
// what the theorem quantifies over.

namespace mh {

/// The pinch operation F -> F^{|>u<|}: every edge toward a vertex of depth
/// depth(u)+1 is redirected to originate from u. Depths are preserved.
/// Requires every vertex at depth depth(u)+1 to carry a label > l(u)
/// (otherwise the result would not be a fork); throws when violated.
Fork pinch_at(const Fork& fork, VertexId u);

struct Theorem9Witness {
  std::size_t x_len = 0;  ///< alpha = |x|
  std::size_t y_len = 0;  ///< |y| >= k
  Fork balanced;          ///< the x-balanced fork for xy
};

/// Theorem 9: if the fork contains a pair of viable tines with slot
/// divergence >= k+1, construct the decomposition and the x-balanced fork.
/// Returns nullopt when no such pair exists or when the given fork is not
/// divergence-maximal enough for the surgery's invariants to hold.
std::optional<Theorem9Witness> theorem9_balanced_fork(const Fork& fork, const CharString& w,
                                                      std::size_t k);

}  // namespace mh

namespace mh {

Fork pinch_at(const Fork& fork, VertexId u) {
  const std::uint32_t pivot_depth = fork.depth(u) + 1;
  Fork out;
  for (VertexId v = 1; v < fork.vertex_count(); ++v) {
    const VertexId parent = fork.depth(v) == pivot_depth ? u : fork.parent(v);
    MH_REQUIRE_MSG(fork.label(v) > fork.label(parent),
                   "pinch would break label monotonicity");
    const VertexId copied = out.add_vertex(parent, fork.label(v));
    MH_ASSERT(copied == v);
    MH_ASSERT(out.depth(v) == fork.depth(v));
  }
  return out;
}

namespace {

struct TinePair {
  VertexId t1 = kRoot;
  VertexId t2 = kRoot;
  std::size_t divergence = 0;
};

/// Selects the witness pair per (27)-(29): maximal slot divergence, then
/// minimal label distance, then maximal length(t1).
std::optional<TinePair> select_pair(const Fork& fork, const CharString& w, std::size_t k) {
  std::vector<VertexId> viable;
  for (VertexId v = 0; v < fork.vertex_count(); ++v)
    if (is_viable_tine(fork, w, v)) viable.push_back(v);

  std::optional<TinePair> best;
  std::size_t best_gap = std::numeric_limits<std::size_t>::max();
  std::uint32_t best_len = 0;
  for (VertexId a : viable)
    for (VertexId b : viable) {
      if (fork.label(a) > fork.label(b)) continue;
      const VertexId meet = fork.lca(a, b);
      const std::size_t div = fork.label(a) - fork.label(meet);
      if (div < k + 1) continue;
      const std::size_t gap = fork.label(b) - fork.label(a);
      const std::uint32_t len = fork.depth(a);
      const bool better = !best || div > best->divergence ||
                          (div == best->divergence && gap < best_gap) ||
                          (div == best->divergence && gap == best_gap && len > best_len);
      if (better) {
        best = TinePair{a, b, div};
        best_gap = gap;
        best_len = len;
      }
    }
  return best;
}

}  // namespace

std::optional<Theorem9Witness> theorem9_balanced_fork(const Fork& fork, const CharString& w,
                                                      std::size_t k) {
  MH_REQUIRE(k >= 1);
  const std::optional<TinePair> pair = select_pair(fork, w, k);
  if (!pair) return std::nullopt;
  const VertexId u = fork.lca(pair->t1, pair->t2);
  const std::size_t alpha = fork.label(u);

  // The surgery needs u to be the unique deepest vertex among labels <= alpha
  // (Eq. (30)); guaranteed for divergence-maximal forks, checked here.
  for (VertexId v = 0; v < fork.vertex_count(); ++v)
    if (fork.label(v) <= alpha && v != u && fork.depth(v) >= fork.depth(u))
      return std::nullopt;

  // beta: first honest index at or after l(t2) (T+1 if none).
  std::size_t beta = w.size() + 1;
  for (std::size_t h = fork.label(pair->t2); h <= w.size(); ++h)
    if (h >= 1 && w.honest(h)) {
      beta = h;
      break;
    }
  if (beta < alpha + k + 1) return std::nullopt;  // |y| = beta-alpha-1 >= k fails

  // Pinch at u so every long tine passes through it.
  Fork pinched;
  {
    const std::uint32_t pivot_depth = fork.depth(u) + 1;
    for (VertexId v = 1; v < fork.vertex_count(); ++v) {
      const VertexId parent = fork.depth(v) == pivot_depth ? u : fork.parent(v);
      if (fork.label(v) <= fork.label(parent)) return std::nullopt;  // pinch illegal
      pinched.add_vertex(parent, fork.label(v));
    }
  }

  // Trimmed tine heads: deepest vertices on t1/t2 with labels <= beta-1.
  const auto trim_head = [&](VertexId t) {
    VertexId v = t;
    while (v != kRoot && pinched.label(v) > beta - 1) v = pinched.parent(v);
    return v;
  };
  const VertexId head1 = trim_head(pair->t1);
  const VertexId head2 = trim_head(pair->t2);
  const std::uint32_t target = std::min(pinched.depth(head1), pinched.depth(head2));
  if (target <= pinched.depth(u)) return std::nullopt;

  // Walk up the longer head until its length matches; the removed vertices
  // must all be adversarial (Eq. (35) guarantees it for maximal forks).
  const auto shorten = [&](VertexId v) -> std::optional<VertexId> {
    while (pinched.depth(v) > target) {
      const std::uint32_t l = pinched.label(v);
      if (l >= 1 && l <= w.size() && w.honest(l)) return std::nullopt;
      v = pinched.parent(v);
    }
    return v;
  };
  const std::optional<VertexId> tine1 = shorten(head1);
  const std::optional<VertexId> tine2 = shorten(head2);
  if (!tine1 || !tine2 || *tine1 == *tine2) return std::nullopt;

  // Keep: labels <= beta-1, depth <= target unless on one of the two witness
  // tines, and only vertices whose parent survives (subtree closure).
  std::vector<bool> on_tine(pinched.vertex_count(), false);
  for (VertexId v = *tine1;; v = pinched.parent(v)) {
    on_tine[v] = true;
    if (v == kRoot) break;
  }
  for (VertexId v = *tine2;; v = pinched.parent(v)) {
    on_tine[v] = true;
    if (v == kRoot) break;
  }

  Fork out;
  std::vector<VertexId> remap(pinched.vertex_count(), kNoVertex);
  remap[kRoot] = kRoot;
  VertexId new_t1 = kRoot, new_t2 = kRoot;
  for (VertexId v = 1; v < pinched.vertex_count(); ++v) {
    if (pinched.label(v) > beta - 1) continue;
    if (pinched.depth(v) > target && !on_tine[v]) continue;
    const VertexId parent = remap[pinched.parent(v)];
    if (parent == kNoVertex) continue;  // detached by an earlier drop
    remap[v] = out.add_vertex(parent, pinched.label(v));
    if (v == *tine1) new_t1 = remap[v];
    if (v == *tine2) new_t2 = remap[v];
  }
  if (new_t1 == kRoot || new_t2 == kRoot) return std::nullopt;

  const CharString xy = w.prefix(beta - 1);
  if (out.height() != target) return std::nullopt;
  if (!is_x_balanced(out, xy, alpha)) return std::nullopt;

  Theorem9Witness witness;
  witness.x_len = alpha;
  witness.y_len = beta - alpha - 1;
  witness.balanced = std::move(out);
  return witness;
}

}  // namespace mh

namespace mh {
namespace {

TEST(Pinch, RedirectsOneDepthLevel) {
  // Chain root -> a(1) -> b(3); sibling c(2) on root. Pinching at c moves b's
  // depth-1... pinch at a: vertices of depth 1 (a and c) redirect to a — a
  // cannot redirect to itself (it IS at depth 1; its parent stays root? No:
  // pinch redirects every depth-(depth(u)+1) vertex; depth(a) = 1, so depth-2
  // vertices redirect to a.
  Fork f;
  const VertexId a = f.add_vertex(kRoot, 1);
  const VertexId b = f.add_vertex(a, 3);
  const VertexId c = f.add_vertex(kRoot, 2);
  const VertexId d = f.add_vertex(c, 4);  // depth 2: will re-hang from a
  const Fork pinched = pinch_at(f, a);
  EXPECT_EQ(pinched.parent(b), a);
  EXPECT_EQ(pinched.parent(d), a);
  EXPECT_EQ(pinched.parent(c), kRoot);
  // Depths are preserved.
  for (VertexId v = 0; v < f.vertex_count(); ++v) EXPECT_EQ(pinched.depth(v), f.depth(v));
}

TEST(Pinch, RejectsLabelInversion) {
  // A depth-2 vertex with label smaller than u's label cannot re-hang from u.
  Fork f;
  const VertexId a = f.add_vertex(kRoot, 5);
  f.add_vertex(a, 6);
  const VertexId c = f.add_vertex(kRoot, 1);
  f.add_vertex(c, 2);  // depth 2, label 2 < 5
  EXPECT_THROW(pinch_at(f, a), std::invalid_argument);
}

TEST(Theorem9, NoViablePairNoWitness) {
  // A lone honest chain has zero slot divergence.
  const CharString w = CharString::parse("hhhh");
  Fork f;
  VertexId v = kRoot;
  for (std::uint32_t s = 1; s <= 4; ++s) v = f.add_vertex(v, s);
  EXPECT_FALSE(theorem9_balanced_fork(f, w, 2).has_value());
}

TEST(Theorem9, HandConstructedViolation) {
  // w = h AAAAAA h: honest chain 1 -> 8 plus a viable private chain 2..7.
  const CharString w = CharString::parse("hAAAAAAh");
  Fork f = build_canonical_fork(w);
  pad_with_adversarial(f, w, kRoot, 6);  // private chain through slots 2..7
  ASSERT_GE(slot_divergence(f, w), 7u);

  const auto witness = theorem9_balanced_fork(f, w, 3);
  ASSERT_TRUE(witness.has_value());
  EXPECT_GE(witness->y_len, 3u);
  const CharString xy = w.prefix(witness->x_len + witness->y_len);
  EXPECT_TRUE(validate_fork(witness->balanced, xy).ok)
      << validate_fork(witness->balanced, xy).message;
  EXPECT_TRUE(is_x_balanced(witness->balanced, xy, witness->x_len));
  // Fact 6 cross-check: the margin recurrence must agree that xy admits an
  // x-balanced fork.
  EXPECT_GE(relative_margin_recurrence(xy, witness->x_len), 0);
}

// Randomized soundness: on divergence-maximal forks (canonical + balanced
// extension), whenever the construction returns a witness it is a valid
// x-balanced fork with |y| >= k and a margin-certified decomposition.
struct T9Case {
  double eps, ph;
  std::size_t n, k;
};

class Theorem9Randomized : public ::testing::TestWithParam<T9Case> {};

TEST_P(Theorem9Randomized, WitnessesAreSoundAndFrequentlyFound) {
  const auto [eps, ph, n, k] = GetParam();
  const SymbolLaw law = bernoulli_condition(eps, ph);
  Rng rng(777333);
  int candidates = 0, witnesses = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const CharString w = law.sample_string(n, rng);
    // Manufacture a deep violation: balance the canonical fork over the
    // earliest decomposition whose margin allows it.
    const Fork canonical = build_canonical_fork(w);
    std::optional<Fork> extended;
    for (std::size_t x = 0; x + k + 1 <= n && !extended; ++x)
      if (relative_margin_recurrence(w, x) >= 0)
        extended = extend_to_x_balanced(canonical, w, x);
    if (!extended) continue;
    if (slot_divergence(*extended, w) < k + 1) continue;
    ++candidates;
    const auto witness = theorem9_balanced_fork(*extended, w, k);
    if (!witness) continue;
    ++witnesses;
    ASSERT_GE(witness->y_len, k);
    const CharString xy = w.prefix(witness->x_len + witness->y_len);
    ASSERT_TRUE(validate_fork(witness->balanced, xy).ok)
        << w.to_string() << ": " << validate_fork(witness->balanced, xy).message;
    ASSERT_TRUE(is_x_balanced(witness->balanced, xy, witness->x_len)) << w.to_string();
    ASSERT_GE(relative_margin_recurrence(xy, witness->x_len), 0) << w.to_string();
  }
  EXPECT_GT(candidates, 0);
  // The surgery succeeds on most manufactured violations (it may bail on
  // forks that are not divergence-maximal).
  EXPECT_GE(witnesses * 2, candidates);
}

INSTANTIATE_TEST_SUITE_P(Grid, Theorem9Randomized,
                         ::testing::Values(T9Case{0.2, 0.3, 28, 3}, T9Case{0.1, 0.2, 36, 4},
                                           T9Case{0.3, 0.1, 32, 3}));

}  // namespace
}  // namespace mh
