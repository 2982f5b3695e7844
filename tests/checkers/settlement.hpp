// Slot settlement (Definition 3), the settlement game, and the string-level
// violation predicates the evaluation section computes.
//
// The paper reports (Table 1) the probability that mu_x(y) >= 0 for |y| = k,
// i.e. that the optimal adversary holds two maximum-length chains diverging
// before slot s = |x|+1 precisely when the k-th slot after s concludes. We
// expose that predicate, the "within horizon" variant (a violation at any
// time >= k before the end of the string), and fork-level structural checks.
#pragma once

#include <optional>

#include "chars/char_string.hpp"
#include "core/catalan.hpp"
#include "core/relative_margin.hpp"
#include "fork/fork.hpp"
#include "support/check.hpp"

namespace mh {

/// Do the two maximum-length tines disagree about slot s (different vertices
/// labeled s, or only one of them carries such a vertex)?
bool diverge_prior_to(const Fork& fork, VertexId t1, VertexId t2, std::size_t s);

/// Fork-level violation: F contains two maximum-length tines diverging prior
/// to s (Definition 3 applied to this single fork).
bool settlement_violation_in_fork(const Fork& fork, std::size_t s);

/// Table-1 semantics: mu_x(y) >= 0 for x = w_1..w_{s-1} and |y| = k.
/// Requires s - 1 + k <= |w|.
bool margin_violation_at(const CharString& w, std::size_t s, std::size_t k);

/// Game semantics over the observed horizon: mu_x(y_j) >= 0 for some
/// j in [k, |w| - s + 1] (the adversary may win at any time >= s + k - 1).
bool margin_violation_within(const CharString& w, std::size_t s, std::size_t k);

/// Sufficient settlement condition via Theorem 3 + Eq. (1): a uniquely honest
/// Catalan slot in [s, s+k-1] forces every later viable chain through a unique
/// vertex, settling slot s with confirmation depth k.
bool settled_via_catalan(const CharString& w, std::size_t s, std::size_t k);

}  // namespace mh

namespace mh {

namespace {

/// The vertex labeled s on the tine ending at t, if any.
std::optional<VertexId> slot_vertex_on_tine(const Fork& fork, VertexId t, std::size_t s) {
  for (VertexId v = t;; v = fork.parent(v)) {
    if (fork.label(v) == s) return v;
    if (v == kRoot || fork.label(v) < s) return std::nullopt;
  }
}

}  // namespace

inline bool diverge_prior_to(const Fork& fork, VertexId t1, VertexId t2, std::size_t s) {
  const std::optional<VertexId> v1 = slot_vertex_on_tine(fork, t1, s);
  const std::optional<VertexId> v2 = slot_vertex_on_tine(fork, t2, s);
  if (!v1 && !v2) return false;  // both chains skip slot s: they agree about it
  return v1 != v2;
}

inline bool settlement_violation_in_fork(const Fork& fork, std::size_t s) {
  const std::vector<VertexId> heads = fork.longest_tines();
  for (std::size_t a = 0; a < heads.size(); ++a)
    for (std::size_t b = a + 1; b < heads.size(); ++b)
      if (diverge_prior_to(fork, heads[a], heads[b], s)) return true;
  return false;
}

inline bool margin_violation_at(const CharString& w, std::size_t s, std::size_t k) {
  MH_REQUIRE(s >= 1 && k >= 1);
  MH_REQUIRE_MSG(s - 1 + k <= w.size(), "string too short for the requested (s, k)");
  const std::vector<std::int64_t> trajectory = margin_trajectory(w, s - 1);
  return trajectory[k] >= 0;
}

inline bool margin_violation_within(const CharString& w, std::size_t s, std::size_t k) {
  MH_REQUIRE(s >= 1 && k >= 1);
  MH_REQUIRE_MSG(s - 1 + k <= w.size(), "string too short for the requested (s, k)");
  const std::vector<std::int64_t> trajectory = margin_trajectory(w, s - 1);
  for (std::size_t j = k; j < trajectory.size(); ++j)
    if (trajectory[j] >= 0) return true;
  return false;
}

inline bool settled_via_catalan(const CharString& w, std::size_t s, std::size_t k) {
  MH_REQUIRE(s >= 1 && k >= 1);
  return first_uniquely_honest_catalan(w, s, s + k - 1) != 0;
}

}  // namespace mh
