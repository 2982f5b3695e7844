#include "fork/margin.hpp"

#include <algorithm>
#include <limits>

#include "fork/reach.hpp"
#include "support/check.hpp"

namespace mh {

namespace {

constexpr std::int64_t kNegInf = std::numeric_limits<std::int64_t>::min() / 4;

struct SubtreeBest {
  std::int64_t reach = kNegInf;
  VertexId arg = kRoot;
};

/// The best two of a vertex's child subtrees. Children are offered latest
/// first, so `>=` lets the earliest child take a tie.
struct ChildBests {
  SubtreeBest top1, top2;

  void offer(const SubtreeBest& b) {
    if (b.reach >= top1.reach) {
      top2 = top1;
      top1 = b;
    } else if (b.reach >= top2.reach) {
      top2 = b;
    }
  }
};

}  // namespace

MarginWitness relative_margin_witness(const Fork& fork, const CharString& w, std::size_t x_len) {
  MH_REQUIRE(x_len <= w.size());
  const std::vector<std::int64_t> reaches = all_reaches(fork, w);
  const auto n = static_cast<VertexId>(fork.vertex_count());

  // Children carry larger ids than parents, so one reverse scan of the
  // parent column finishes each subtree before offering its best (max reach,
  // witness) to the parent. A vertex keeps a tie against its own subtrees.
  std::vector<ChildBests> kids(n);
  for (VertexId v = n; v-- > 1;) {
    const SubtreeBest& b = kids[v].top1;
    kids[fork.parent(v)].offer(b.reach > reaches[v] ? b : SubtreeBest{reaches[v], v});
  }

  MarginWitness out{kRoot, kRoot, kNegInf};
  auto consider = [&](VertexId t1, VertexId t2, std::int64_t value) {
    if (value > out.value) out = MarginWitness{t1, t2, value};
  };

  for (VertexId p = 0; p < n; ++p) {
    if (fork.label(p) > x_len) continue;
    // Self-pair (p, p): a tine whose head lies in x is disjoint from itself
    // over the suffix.
    consider(p, p, reaches[p]);

    // (p, u) with u strictly below p, and (u, v) below two distinct children:
    // both pairs have p as their deepest common vertex.
    const auto& [top1, top2] = kids[p];
    if (top1.reach > kNegInf) consider(p, top1.arg, std::min(reaches[p], top1.reach));
    if (top2.reach > kNegInf) consider(top1.arg, top2.arg, std::min(top1.reach, top2.reach));
  }

  MH_ASSERT_MSG(out.value > kNegInf, "the root self-pair is always admissible");
  return out;
}

std::int64_t relative_margin(const Fork& fork, const CharString& w, std::size_t x_len) {
  return relative_margin_witness(fork, w, x_len).value;
}

std::int64_t margin(const Fork& fork, const CharString& w) {
  return relative_margin(fork, w, 0);
}

std::int64_t relative_margin_bruteforce(const Fork& fork, const CharString& w,
                                        std::size_t x_len) {
  MH_REQUIRE(x_len <= w.size());
  const std::vector<std::int64_t> reaches = all_reaches(fork, w);
  std::int64_t out = kNegInf;
  const std::size_t n = fork.vertex_count();
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = u; v < n; ++v) {
      if (!fork.disjoint_over_suffix(u, v, x_len)) continue;
      out = std::max(out, std::min(reaches[u], reaches[v]));
    }
  return out;
}

}  // namespace mh
