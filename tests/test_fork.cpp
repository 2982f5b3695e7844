#include "fork/fork.hpp"

#include <gtest/gtest.h>

#include "fork_fixtures.hpp"

namespace mh {
namespace {

TEST(Fork, TrivialForkIsJustGenesis) {
  const Fork f;
  EXPECT_EQ(f.vertex_count(), 1u);
  EXPECT_EQ(f.label(kRoot), 0u);
  EXPECT_EQ(f.depth(kRoot), 0u);
  EXPECT_EQ(f.height(), 0u);
  // The genesis is its only leaf, and it is honest.
  EXPECT_TRUE(is_closed(f, CharString::parse("A")));
}

TEST(Fork, AddVertexTracksDepthAndHeight) {
  Fork f;
  const VertexId a = f.add_vertex(kRoot, 2);
  const VertexId b = f.add_vertex(a, 5);
  const VertexId c = f.add_vertex(kRoot, 7);
  EXPECT_EQ(f.depth(a), 1u);
  EXPECT_EQ(f.depth(b), 2u);
  EXPECT_EQ(f.depth(c), 1u);
  EXPECT_EQ(f.height(), 2u);
}

TEST(Fork, RejectsNonIncreasingLabels) {
  Fork f;
  const VertexId a = f.add_vertex(kRoot, 3);
  EXPECT_THROW(f.add_vertex(a, 3), std::invalid_argument);
  EXPECT_THROW(f.add_vertex(a, 2), std::invalid_argument);
  EXPECT_THROW(f.add_vertex(kRoot, 0), std::invalid_argument);
}

TEST(Fork, PathAndLca) {
  fixtures::Fig1 fig;
  const Fork& f = fig.fork;
  const auto path = f.path_to(fig.v9a);
  ASSERT_EQ(path.size(), 7u);
  EXPECT_EQ(path.front(), kRoot);
  EXPECT_EQ(path.back(), fig.v9a);
  EXPECT_EQ(f.lca(fig.v9a, fig.v9b), kRoot);
  EXPECT_EQ(f.lca(fig.v6a, fig.v5), fig.v5);
  EXPECT_EQ(f.lca(fig.v3, fig.a4c), fig.a2b);
  EXPECT_EQ(f.lca(fig.v1, fig.v1), fig.v1);
}

TEST(Fork, OnTine) {
  fixtures::Fig1 fig;
  EXPECT_TRUE(fig.fork.on_tine(fig.v5, fig.v9a));
  EXPECT_TRUE(fig.fork.on_tine(kRoot, fig.v9a));
  EXPECT_TRUE(fig.fork.on_tine(fig.v9a, fig.v9a));
  EXPECT_FALSE(fig.fork.on_tine(fig.v9b, fig.v9a));
  EXPECT_FALSE(fig.fork.on_tine(fig.a4b, fig.v9a));
}

TEST(Fork, VerticesWithLabel) {
  fixtures::Fig1 fig;
  EXPECT_EQ(fig.fork.vertices_with_label(4).size(), 3u);
  EXPECT_EQ(fig.fork.vertices_with_label(6).size(), 2u);
  EXPECT_EQ(fig.fork.vertices_with_label(9).size(), 2u);
  EXPECT_EQ(fig.fork.vertices_with_label(5).size(), 1u);
}

TEST(Fork, LongestTines) {
  fixtures::Fig1 fig;
  const auto heads = fig.fork.longest_tines();
  ASSERT_EQ(heads.size(), 2u);
  EXPECT_EQ(fig.fork.depth(heads[0]), 6u);
  EXPECT_EQ(fig.fork.depth(heads[1]), 6u);
}

TEST(Fork, DisjointOverSuffix) {
  fixtures::Fig3 fig;
  // The Fig-3 tines share the prefix 1 -> 2 (inside x) and diverge after.
  EXPECT_TRUE(fig.fork.disjoint_over_suffix(fig.h5, fig.a6, fig.x_len));
  EXPECT_FALSE(fig.fork.disjoint_over_suffix(fig.h5, fig.a6, 1));
  // Self-pairs: disjoint iff the head lies within the prefix.
  EXPECT_TRUE(fig.fork.disjoint_over_suffix(fig.h2, fig.h2, fig.x_len));
  EXPECT_FALSE(fig.fork.disjoint_over_suffix(fig.h3, fig.h3, fig.x_len));
}

TEST(Fork, HonestDepthFunction) {
  fixtures::Fig1 fig;
  EXPECT_EQ(honest_depth(fig.fork, 1), 1u);
  EXPECT_EQ(honest_depth(fig.fork, 3), 2u);
  EXPECT_EQ(honest_depth(fig.fork, 5), 3u);
  EXPECT_EQ(honest_depth(fig.fork, 6), 4u);
  EXPECT_EQ(honest_depth(fig.fork, 9), 6u);
  EXPECT_FALSE(honest_depth(fig.fork, 42).has_value());
}

TEST(Fork, MaxHonestDepthUpto) {
  fixtures::Fig1 fig;
  EXPECT_EQ(max_honest_depth_upto(fig.fork, fig.w, 0), 0u);
  EXPECT_EQ(max_honest_depth_upto(fig.fork, fig.w, 4), 2u);  // h-depths 1, 2
  EXPECT_EQ(max_honest_depth_upto(fig.fork, fig.w, 6), 4u);
  EXPECT_EQ(max_honest_depth_upto(fig.fork, fig.w, 9), 6u);
}

TEST(Fork, ViabilityAtOnset) {
  fixtures::Fig1 fig;
  // At the onset of slot 7 (after the H6 slot), only the depth-4+ tines are
  // viable.
  EXPECT_TRUE(viable_at_onset(fig.fork, fig.w, fig.v6a, 7));
  EXPECT_TRUE(viable_at_onset(fig.fork, fig.w, fig.v6b, 7));
  EXPECT_FALSE(viable_at_onset(fig.fork, fig.w, fig.v5, 7));
  EXPECT_FALSE(viable_at_onset(fig.fork, fig.w, fig.a4b, 7));
  // Labels at or past the onset slot are excluded.
  EXPECT_FALSE(viable_at_onset(fig.fork, fig.w, fig.v6a, 6));
}

TEST(Fork, ClosednessAndHonesty) {
  fixtures::Fig1 fig;
  // Fig. 1's fork is NOT closed: the spare label-4 adversarial vertices are
  // leaves (closedness is a property of the bookkeeping forks of Section 6,
  // not of arbitrary fork diagrams).
  EXPECT_FALSE(is_closed(fig.fork, fig.w));
  EXPECT_TRUE(is_honest_vertex(fig.fork, fig.w, fig.v6a));
  EXPECT_FALSE(is_honest_vertex(fig.fork, fig.w, fig.a7));
  EXPECT_TRUE(is_honest_vertex(fig.fork, fig.w, kRoot));

  fixtures::Fig2 fig2;
  EXPECT_FALSE(is_closed(fig2.fork, fig2.w));  // adversarial leaf a6

  // A fork whose only leaves are honest is closed.
  EXPECT_TRUE(is_closed(fixtures::chain_fork({1, 2}), CharString::parse("Ah")));
}

TEST(Fork, ClosedIffEveryLeafIsHonest) {
  const CharString w = CharString::parse("hAHA");
  // An adversarial vertex with an honest child is no leaf: closed.
  Fork f;
  const VertexId h1 = f.add_vertex(kRoot, 1);
  const VertexId a2 = f.add_vertex(h1, 2);
  const VertexId h3 = f.add_vertex(a2, 3);
  EXPECT_TRUE(is_closed(f, w));
  // A second honest leaf of the H slot, on the genesis, keeps it closed.
  Fork two_tines = f;
  two_tines.add_vertex(kRoot, 3);
  EXPECT_TRUE(is_closed(two_tines, w));
  // An adversarial leaf beside the honest tine opens it...
  Fork side = f;
  side.add_vertex(h1, 4);
  EXPECT_FALSE(is_closed(side, w));
  // ...as does one at the head of the only tine.
  Fork tip = f;
  tip.add_vertex(h3, 4);
  EXPECT_FALSE(is_closed(tip, w));
}

TEST(Fork, CopySemanticsIndependent) {
  Fork f;
  f.add_vertex(kRoot, 1);
  Fork g = f;
  g.add_vertex(kRoot, 2);
  EXPECT_EQ(f.vertex_count(), 2u);
  EXPECT_EQ(g.vertex_count(), 3u);
}

}  // namespace
}  // namespace mh
