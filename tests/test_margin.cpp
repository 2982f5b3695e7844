#include "fork/margin.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "chars/bernoulli.hpp"
#include "core/astar.hpp"
#include "fork/reach.hpp"
#include "fork_fixtures.hpp"
#include "support/random.hpp"

namespace mh {
namespace {

TEST(Margin, LinearPassMatchesBruteforceOnFixtures) {
  fixtures::Fig1 fig;
  for (std::size_t x = 0; x <= fig.w.size(); ++x)
    EXPECT_EQ(relative_margin(fig.fork, fig.w, x),
              relative_margin_bruteforce(fig.fork, fig.w, x))
        << "x_len " << x;
}

TEST(Margin, FullSuffixMarginEqualsMaxReach) {
  // mu_x(eps) = rho(x): with the whole string as prefix, every pair (and every
  // self-pair) is disjoint, so the margin equals the maximum reach (Claim 3).
  fixtures::Fig1 fig;
  EXPECT_EQ(relative_margin(fig.fork, fig.w, fig.w.size()), max_reach(fig.fork, fig.w));
}

TEST(Margin, BalancedForkHasNonNegativeMargin) {
  fixtures::Fig2 fig2;
  EXPECT_GE(margin(fig2.fork, fig2.w), 0);
  fixtures::Fig3 fig3;
  EXPECT_GE(relative_margin(fig3.fork, fig3.w, fig3.x_len), 0);
}

TEST(Margin, WitnessPairIsDisjointAndAchievesValue) {
  fixtures::Fig1 fig;
  for (std::size_t x = 0; x <= fig.w.size(); ++x) {
    const MarginWitness witness = relative_margin_witness(fig.fork, fig.w, x);
    EXPECT_TRUE(fig.fork.disjoint_over_suffix(witness.t1, witness.t2, x));
    const auto reaches = all_reaches(fig.fork, fig.w);
    EXPECT_EQ(std::min(reaches[witness.t1], reaches[witness.t2]), witness.value);
  }
}

TEST(Margin, SingleChainMarginIsNegativeEarly) {
  // A lone honest chain admits no early-diverging pair: margin over the whole
  // string must be the root's reach.
  const CharString w = CharString::parse("hhh");
  const Fork f = fixtures::chain_fork({1, 2, 3});
  EXPECT_EQ(margin(f, w), -3);  // root self-pair: reach(root) = 0 - 3
}

struct MarginCase {
  double eps, ph;
  std::size_t length;
};

class MarginRandomized : public ::testing::TestWithParam<MarginCase> {};

TEST_P(MarginRandomized, LinearPassMatchesBruteforceOnCanonicalForks) {
  const auto [eps, ph, length] = GetParam();
  const SymbolLaw law = bernoulli_condition(eps, ph);
  Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    const CharString w = law.sample_string(length, rng);
    const Fork fork = build_canonical_fork(w);
    for (std::size_t x = 0; x <= w.size(); x += 3)
      ASSERT_EQ(relative_margin(fork, w, x), relative_margin_bruteforce(fork, w, x))
          << "w = " << w.to_string() << ", x_len = " << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, MarginRandomized,
                         ::testing::Values(MarginCase{0.3, 0.3, 24}, MarginCase{0.1, 0.1, 32},
                                           MarginCase{0.5, 0.5, 16}, MarginCase{0.2, 0.05, 40}));

/// The witness search over per-vertex child lists, as Fork kept them before
/// it stored only a parent column: subtree bests by a reverse scan over each
/// vertex's children, the two best child subtrees per vertex, and the first
/// strictly better pair in vertex order. The pin for the column scans' tie
/// rules (a vertex beats its own subtrees on a tie, and so does an earlier
/// child a later one).
MarginWitness child_list_witness(const Fork& fork, const CharString& w, std::size_t x_len) {
  constexpr std::int64_t kNegInf = std::numeric_limits<std::int64_t>::min() / 4;
  struct Best {
    std::int64_t reach = kNegInf;
    VertexId arg = kRoot;
  };
  const std::size_t n = fork.vertex_count();
  std::vector<std::vector<VertexId>> children(n);
  for (VertexId v = 1; v < n; ++v) children[fork.parent(v)].push_back(v);
  const std::vector<std::int64_t> reaches = all_reaches(fork, w);
  std::vector<Best> best(n);
  for (VertexId v = static_cast<VertexId>(n); v-- > 0;) {
    best[v] = Best{reaches[v], v};
    for (VertexId c : children[v])
      if (best[c].reach > best[v].reach) best[v] = best[c];
  }
  MarginWitness out{kRoot, kRoot, kNegInf};
  auto consider = [&](VertexId t1, VertexId t2, std::int64_t value) {
    if (value > out.value) out = MarginWitness{t1, t2, value};
  };
  for (VertexId p = 0; p < n; ++p) {
    if (fork.label(p) > x_len) continue;
    consider(p, p, reaches[p]);
    Best top1, top2;
    for (VertexId c : children[p]) {
      if (best[c].reach > top1.reach) {
        top2 = top1;
        top1 = best[c];
      } else if (best[c].reach > top2.reach) {
        top2 = best[c];
      }
    }
    if (top1.reach > kNegInf) consider(p, top1.arg, std::min(reaches[p], top1.reach));
    if (top2.reach > kNegInf) consider(top1.arg, top2.arg, std::min(top1.reach, top2.reach));
  }
  return out;
}

void expect_witness_matches_child_lists(const Fork& fork, const CharString& w) {
  for (std::size_t x = 0; x <= w.size(); ++x) {
    const MarginWitness got = relative_margin_witness(fork, w, x);
    const MarginWitness want = child_list_witness(fork, w, x);
    ASSERT_EQ(got.t1, want.t1) << w.to_string() << ", x_len " << x;
    ASSERT_EQ(got.t2, want.t2) << w.to_string() << ", x_len " << x;
    ASSERT_EQ(got.value, want.value) << w.to_string() << ", x_len " << x;
  }
}

TEST(Margin, WitnessMatchesTheChildListWalkOnRandomForks) {
  // Random forks on short strings: each slot labels zero to three vertices on
  // random earlier vertices, so many vertices, and many sibling subtrees,
  // share a reach. The whole witness (t1, t2, value) must match.
  Rng rng(0x3a7);
  std::size_t tied_siblings = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.below(12);
    std::vector<Symbol> symbols;
    for (std::size_t i = 0; i < n; ++i)
      symbols.push_back(rng.bernoulli(0.5)   ? Symbol::A
                        : rng.bernoulli(0.5) ? Symbol::h
                                             : Symbol::H);
    const CharString w(symbols);
    Fork fork;
    for (std::size_t i = 1; i <= n; ++i)
      for (std::uint64_t c = rng.below(4); c-- > 0;) {
        std::vector<VertexId> earlier;
        for (VertexId v = 0; v < fork.vertex_count(); ++v)
          if (fork.label(v) < i) earlier.push_back(v);
        fork.add_vertex(earlier[rng.below(earlier.size())], static_cast<std::uint32_t>(i));
      }
    const std::vector<std::int64_t> reaches = all_reaches(fork, w);
    for (VertexId u = 1; u < fork.vertex_count(); ++u)
      for (VertexId v = u + 1; v < fork.vertex_count(); ++v)
        tied_siblings += fork.parent(u) == fork.parent(v) && reaches[u] == reaches[v];
    expect_witness_matches_child_lists(fork, w);
  }
  EXPECT_GT(tied_siblings, 400u);
}

TEST(Margin, WitnessMatchesTheChildListWalkOnCanonicalForks) {
  Rng rng(0xa57a);
  for (const MarginCase c : {MarginCase{0.3, 0.3, 24}, MarginCase{0.1, 0.1, 32},
                             MarginCase{0.5, 0.5, 16}, MarginCase{0.2, 0.05, 40}}) {
    const SymbolLaw law = bernoulli_condition(c.eps, c.ph);
    for (int trial = 0; trial < 25; ++trial) {
      const CharString w = law.sample_string(c.length, rng);
      expect_witness_matches_child_lists(build_canonical_fork(w), w);
    }
  }
}

}  // namespace
}  // namespace mh
