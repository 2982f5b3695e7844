#include "core/cp.hpp"

#include <algorithm>

#include "core/catalan.hpp"
#include "support/check.hpp"

namespace mh {

bool is_viable_tine(const Fork& fork, const CharString& w, VertexId v) {
  return fork.depth(v) >= max_honest_depth_upto(fork, w, fork.label(v));
}

namespace {

/// Deepest vertex on the tine of t with label <= cutoff (the head of the
/// trimmed tine t-floor-k).
VertexId trim_to_label(const Fork& fork, VertexId t, std::int64_t cutoff) {
  VertexId v = t;
  while (v != kRoot && static_cast<std::int64_t>(fork.label(v)) > cutoff) v = fork.parent(v);
  return v;
}

}  // namespace

bool satisfies_k_cp_slot(const Fork& fork, const CharString& w, std::size_t k) {
  std::vector<VertexId> viable;
  for (VertexId v = 0; v < fork.vertex_count(); ++v)
    if (is_viable_tine(fork, w, v)) viable.push_back(v);

  for (VertexId t1 : viable)
    for (VertexId t2 : viable) {
      if (fork.label(t1) > fork.label(t2)) continue;
      const std::int64_t cutoff =
          static_cast<std::int64_t>(fork.label(t1)) - static_cast<std::int64_t>(k);
      const VertexId trimmed = trim_to_label(fork, t1, cutoff);
      if (!fork.on_tine(trimmed, t2)) return false;
    }
  return true;
}

std::size_t slot_divergence(const Fork& fork, const CharString& w) {
  std::vector<VertexId> viable;
  for (VertexId v = 0; v < fork.vertex_count(); ++v)
    if (is_viable_tine(fork, w, v)) viable.push_back(v);

  std::size_t best = 0;
  for (VertexId t1 : viable)
    for (VertexId t2 : viable) {
      if (fork.label(t1) > fork.label(t2)) continue;
      const VertexId meet = fork.lca(t1, t2);
      best = std::max(best, static_cast<std::size_t>(fork.label(t1) - fork.label(meet)));
    }
  return best;
}

bool cp_slot_guaranteed_by_catalan(const CharString& w, std::size_t k) {
  MH_REQUIRE(k >= 1);
  if (w.size() < k) return true;
  const CatalanFlags flags = catalan_flags(w);
  for (std::size_t start = 1; start + k - 1 <= w.size(); ++start) {
    bool found = false;
    for (std::size_t s = start; s < start + k; ++s)
      if (flags.catalan[s - 1] && w.uniquely_honest(s)) {
        found = true;
        break;
      }
    if (!found) return false;
  }
  return true;
}

long double theorem8_bound(const SymbolLaw& law, std::size_t horizon, std::size_t k) {
  return std::min(1.0L, static_cast<long double>(horizon) * bound1_tail(law, k));
}

}  // namespace mh
