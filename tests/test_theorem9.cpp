#include "core/theorem9.hpp"

#include <gtest/gtest.h>

#include "chars/bernoulli.hpp"
#include "core/astar.hpp"
#include "core/cp.hpp"
#include "core/relative_margin.hpp"
#include "fork/balanced.hpp"
#include "fork/validate.hpp"
#include "support/random.hpp"

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
