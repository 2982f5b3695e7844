// Structural (relative) margin of a fork (Definition 17):
//
//   mu_x(F) = max over tine pairs t1 ~/~_x t2 of min(reach(t1), reach(t2)),
//
// where t1 ~/~_x t2 means the tines share no edge terminating at a label > |x|.
// Self-pairs are admitted by the same rule (a tine whose head label is <= |x|
// is disjoint from itself over the suffix), which is what makes
// mu_x(eps) = rho(x) (Claim 3) come out of the single definition.
//
// The computation is linear, with no DFS: one reverse scan of the parent
// column gives each vertex's two best child subtrees, and a pair's deepest
// common vertex p decides disjointness (label(p) <= |x|), so
//   mu_x(F) = max over p with label(p) <= |x| of
//             best-two combination of subtree reaches below distinct children,
//             or reach(p) paired with the best subtree reach, or reach(p) alone.
#pragma once

#include <cstdint>

#include "fork/fork.hpp"

namespace mh {

/// mu_x(F) for x = w_1..w_{x_len}. Requires x_len <= |w|.
std::int64_t relative_margin(const Fork& fork, const CharString& w, std::size_t x_len);

/// mu(F) = mu_eps(F).
std::int64_t margin(const Fork& fork, const CharString& w);

/// Reference implementation by explicit pair enumeration (O(V^2 log)); used as
/// a test oracle against the linear-pass computation.
std::int64_t relative_margin_bruteforce(const Fork& fork, const CharString& w, std::size_t x_len);

/// The two tine heads witnessing mu_x(F): an x-disjoint pair (t1, t2), possibly
/// equal, maximizing the min reach. Useful for constructing balanced forks.
struct MarginWitness {
  VertexId t1 = kRoot;
  VertexId t2 = kRoot;
  std::int64_t value = 0;
};
MarginWitness relative_margin_witness(const Fork& fork, const CharString& w, std::size_t x_len);

}  // namespace mh
