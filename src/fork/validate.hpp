// Structural validation of forks against characteristic strings: the axioms
// (F1)-(F4) of Definition 2 and the Delta-relaxed (F4_Delta) of Definition 21.
#pragma once

#include <string>

#include "fork/fork.hpp"

namespace mh {

class TetraString;

struct ValidationResult {
  bool ok = true;
  std::string message;  ///< first violated axiom, empty when ok

  explicit operator bool() const noexcept { return ok; }
};

/// Checks (F1)-(F4) for F |- w. With `delta` > 0, (F4) is replaced by the
/// Delta-synchronous (F4_Delta): honest labels i + delta < j must have strictly
/// increasing depths (all-pairs). delta = 0 recovers the synchronous axiom.
ValidationResult validate_fork(const Fork& fork, const CharString& w, std::size_t delta = 0);

/// The same axioms for a Delta-fork over the semi-synchronous alphabet
/// (Definition 21), plus one rule: an empty slot labels no vertex (no leader
/// means no block).
ValidationResult validate_fork(const Fork& fork, const TetraString& w, std::size_t delta);

}  // namespace mh
