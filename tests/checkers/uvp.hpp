// The Bottleneck Property and Unique Vertex Property (Definition 4) in three
// forms:
//   * string-level via Catalan slots (Theorem 3: for w_s = h, UVP <=> Catalan;
//     Theorem 4: bivalent strings under consistent tie-breaking, two
//     consecutive Catalan slots <=> UVP of the first);
//   * string-level via relative margin (Lemma 1: UVP <=> mu_x(y) < 0 for every
//     nonempty prefix y of the suffix);
//   * fork-level structural checks, used as test oracles against exhaustive
//     fork enumeration.
#pragma once

#include "chars/char_string.hpp"
#include "checkers/viable.hpp"
#include "core/catalan.hpp"
#include "core/relative_margin.hpp"
#include "fork/fork.hpp"
#include "support/check.hpp"

namespace mh {

/// Theorem 3 characterization. Requires w_s = h; returns false otherwise
/// (only uniquely honest slots are covered by the synchronous theorem).
bool has_uvp_catalan(const CharString& w, std::size_t s);

/// Lemma 1 characterization: w_s = h and mu_x(y) < 0 for every nonempty
/// prefix y of w_{s}..w_{n}, where x = w_1..w_{s-1}.
bool has_uvp_margin(const CharString& w, std::size_t s);

/// Theorem 4 (bivalent strings, axiom A0'): slots s and s+1 both Catalan.
/// Under the consistent longest-chain selection rule this grants slot s the
/// UVP even when it is multiply honest.
bool has_uvp_consecutive_catalan(const CharString& w, std::size_t s);

/// Fork-level Bottleneck Property at slot s: for every k >= s+1, every tine
/// viable at the onset of slot k contains some vertex labeled s.
bool bottleneck_holds_in_fork(const Fork& fork, const CharString& w, std::size_t s);

/// Fork-level UVP at slot s: some vertex u labeled s lies on every tine viable
/// at the onset of every slot k >= first_onset (default s+1, Definition 4).
/// Theorem 4's guarantee for the first slot of a consecutive Catalan pair
/// binds from first_onset = s+2: the slot's concurrent honest siblings remain
/// viable for one more slot before the consistent rule starves them.
bool uvp_holds_in_fork(const Fork& fork, const CharString& w, std::size_t s,
                       std::size_t first_onset = 0);

}  // namespace mh

namespace mh {

inline bool has_uvp_catalan(const CharString& w, std::size_t s) {
  MH_REQUIRE(s >= 1 && s <= w.size());
  return w.uniquely_honest(s) && is_catalan(w, s);
}

inline bool has_uvp_margin(const CharString& w, std::size_t s) {
  MH_REQUIRE(s >= 1 && s <= w.size());
  if (!w.uniquely_honest(s)) return false;
  const std::vector<std::int64_t> trajectory = margin_trajectory(w, s - 1);
  // trajectory[0] = mu_x(eps) = rho(x) >= 0 is exempt; Lemma 1 quantifies over
  // nonempty prefixes y.
  for (std::size_t j = 1; j < trajectory.size(); ++j)
    if (trajectory[j] >= 0) return false;
  return true;
}

inline bool has_uvp_consecutive_catalan(const CharString& w, std::size_t s) {
  MH_REQUIRE(s >= 1 && s + 1 <= w.size());
  const CatalanFlags flags = catalan_flags(w);
  return flags.catalan[s - 1] && flags.catalan[s];
}

inline bool bottleneck_holds_in_fork(const Fork& fork, const CharString& w, std::size_t s) {
  MH_REQUIRE(s >= 1 && s <= w.size());
  for (std::size_t k = s + 1; k <= w.size() + 1; ++k) {
    for (VertexId t : viable_tines_at_onset(fork, w, k)) {
      bool contains_s = false;
      for (VertexId v = t;; v = fork.parent(v)) {
        if (fork.label(v) == s) {
          contains_s = true;
          break;
        }
        if (v == kRoot) break;
      }
      if (!contains_s) return false;
    }
  }
  return true;
}

inline bool uvp_holds_in_fork(const Fork& fork, const CharString& w, std::size_t s,
                       std::size_t first_onset) {
  MH_REQUIRE(s >= 1 && s <= w.size());
  if (first_onset == 0) first_onset = s + 1;
  MH_REQUIRE(first_onset >= s + 1);
  for (VertexId u : fork.vertices_with_label(static_cast<std::uint32_t>(s))) {
    bool u_on_all = true;
    for (std::size_t k = first_onset; k <= w.size() + 1 && u_on_all; ++k)
      for (VertexId t : viable_tines_at_onset(fork, w, k))
        if (!fork.on_tine(u, t)) {
          u_on_all = false;
          break;
        }
    if (u_on_all) return true;
  }
  return false;
}

}  // namespace mh
