#include "core/theorem9.hpp"

#include <algorithm>
#include <limits>

#include "core/cp.hpp"
#include "fork/balanced.hpp"
#include "support/check.hpp"

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
