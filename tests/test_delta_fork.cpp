#include "delta/delta_fork.hpp"

#include <gtest/gtest.h>

#include "delta/reduction.hpp"
#include "fork/validate.hpp"

namespace mh {

/// Definition 23: F contains two maximum-length tines such that at least one
/// carries a vertex labeled s, both carry >= k vertices with labels > s, and
/// their last common vertex has label <= s-1.
bool delta_settlement_violation_in_fork(const Fork& fork, std::size_t s, std::size_t k) {
  const std::vector<VertexId> heads = fork.longest_tines();
  auto stats = [&](VertexId head) {
    bool carries_s = false;
    std::size_t after = 0;
    for (VertexId v = head; v != kRoot; v = fork.parent(v)) {
      if (fork.label(v) == s) carries_s = true;
      if (fork.label(v) > s) ++after;
    }
    return std::pair{carries_s, after};
  };
  for (std::size_t a = 0; a < heads.size(); ++a)
    for (std::size_t b = a + 1; b < heads.size(); ++b) {
      const auto [s1, after1] = stats(heads[a]);
      const auto [s2, after2] = stats(heads[b]);
      if (!s1 && !s2) continue;
      if (after1 < k || after2 < k) continue;
      if (fork.label(fork.lca(heads[a], heads[b])) <= s - 1) return true;
    }
  return false;
}

namespace {

TEST(DeltaFork, ValidatesRelaxedDepths) {
  // Two honest slots 1 and 2 at equal depth: invalid synchronously, valid for
  // Delta >= 1.
  const TetraString w = TetraString::parse("hh");
  Fork f;
  f.add_vertex(kRoot, 1);
  f.add_vertex(kRoot, 2);
  EXPECT_FALSE(validate_fork(f, w, 0).ok);
  EXPECT_TRUE(validate_fork(f, w, 1).ok);
}

TEST(DeltaFork, EmptySlotsMayNotCarryBlocks) {
  const TetraString w = TetraString::parse("h.h");
  Fork f;
  const VertexId a = f.add_vertex(kRoot, 1);
  f.add_vertex(a, 2);  // slot 2 is empty
  const auto result = validate_fork(f, w, 4);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("empty"), std::string::npos);
}

TEST(DeltaFork, F3StillEnforced) {
  const TetraString w = TetraString::parse("h.A");
  Fork f;  // missing the slot-1 honest vertex
  EXPECT_FALSE(validate_fork(f, w, 2).ok);
}

TEST(DeltaFork, ProjectionYieldsValidSynchronousFork) {
  // Delta-fork for "h..h" with Delta = 2: the two honest blocks may sit at
  // equal depth (2 + 2 slots apart is not > Delta... 1 + 2 < 4 so they must
  // increase). Use Delta = 3 for the relaxed case.
  const TetraString w = TetraString::parse("h..h");
  Fork f;
  f.add_vertex(kRoot, 1);
  f.add_vertex(kRoot, 4);
  ASSERT_TRUE(validate_fork(f, w, 3).ok);
  ASSERT_FALSE(validate_fork(f, w, 2).ok);

  // Project through rho_Delta with Delta = 3: both honest slots map to A
  // (each within Delta of the other? slot 1's window {2,3,4} contains slot 4:
  // -> A; slot 4's window is truncated -> A). The projected fork must be a
  // valid synchronous fork for "AA".
  const ReductionResult r = reduce(w, 3);
  ASSERT_EQ(r.reduced.to_string(), "AA");
  const Fork projected = project_to_synchronous(f, r.inverse);
  EXPECT_TRUE(validate_fork(projected, r.reduced).ok);
}

TEST(DeltaFork, ProjectionPreservesStructure) {
  const TetraString w = TetraString::parse("h..A.h");
  Fork f;
  const VertexId v1 = f.add_vertex(kRoot, 1);
  const VertexId a4 = f.add_vertex(v1, 4);
  f.add_vertex(a4, 6);
  const ReductionResult r = reduce(w, 1);
  // Slot 1: window {2} empty -> h survives; slot 6: truncated -> A.
  ASSERT_EQ(r.reduced.to_string(), "hAA");
  const Fork projected = project_to_synchronous(f, r.inverse);
  EXPECT_EQ(projected.vertex_count(), f.vertex_count());
  EXPECT_EQ(projected.label(1), 1u);
  EXPECT_EQ(projected.label(2), 2u);  // original slot 4 -> reduced position 2
  EXPECT_EQ(projected.label(3), 3u);  // original slot 6 -> reduced position 3
  EXPECT_TRUE(validate_fork(projected, r.reduced).ok);
}

TEST(DeltaFork, SettlementViolationDetection) {
  // Two max-length chains, one carrying slot 2, both with >= 1 block after
  // slot 2, meeting at the root.
  Fork f;
  const VertexId a = f.add_vertex(kRoot, 2);
  f.add_vertex(a, 4);
  const VertexId b = f.add_vertex(kRoot, 3);
  f.add_vertex(b, 5);
  EXPECT_TRUE(delta_settlement_violation_in_fork(f, 2, 1));
  EXPECT_FALSE(delta_settlement_violation_in_fork(f, 2, 2));  // needs 2 blocks after
  EXPECT_FALSE(delta_settlement_violation_in_fork(f, 1, 1));  // neither carries slot 1
}

}  // namespace
}  // namespace mh
