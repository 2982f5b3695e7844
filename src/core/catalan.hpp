// Catalan slots (Definition 11): slot s is left-Catalan if every interval
// [l, s] is hH-heavy, right-Catalan if every [s, r] is hH-heavy, and Catalan if
// both. With the +1/-1 characteristic walk S these become O(n)-detectable:
//   left-Catalan  <=>  S_s is a strict new minimum of the walk,
//   right-Catalan <=>  w_s honest and the walk never exceeds S_s afterwards.
#pragma once

#include <vector>

#include "chars/char_string.hpp"
#include "chars/walk.hpp"

namespace mh {

struct CatalanFlags {
  std::vector<bool> left;     ///< 1-indexed via [s-1]
  std::vector<bool> right;
  std::vector<bool> catalan;  ///< left && right
};

/// O(n) detection of all left-/right-/full Catalan slots of w.
CatalanFlags catalan_flags(const CharString& w);

/// Convenience point queries (1-indexed slots).
bool is_catalan(const CharString& w, std::size_t s);
bool is_left_catalan(const CharString& w, std::size_t s);
bool is_right_catalan(const CharString& w, std::size_t s);

/// First uniquely honest Catalan slot in [from, to] (0 if none). This is the
/// stochastic event of Bound 1.
std::size_t first_uniquely_honest_catalan(const CharString& w, std::size_t from, std::size_t to);

/// First s in [from, to-1] such that both s and s+1 are Catalan (0 if none);
/// the event of Bound 2.
std::size_t first_consecutive_catalan_pair(const CharString& w, std::size_t from,
                                           std::size_t to);

}  // namespace mh
