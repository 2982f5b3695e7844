// Delta-forks (Definition 21).
// validate_fork (fork/validate.hpp) checks a Delta-fork for a semi-synchronous
// string.
//
// A Delta-fork relaxes the synchronous honest-depth axiom: only honest labels
// separated by more than Delta slots must have strictly increasing depths.
// Under the reduction map (Proposition 3) every Delta-fork for w is
// isomorphic to a synchronous fork for rho_Delta(w) after relabeling.
#pragma once

#include "delta/semi_sync.hpp"
#include "fork/fork.hpp"
#include "fork/validate.hpp"

namespace mh {

/// Relabels a Delta-fork for w into the synchronous fork for rho_Delta(w)
/// via the position bijection pi (Proposition 3).
Fork project_to_synchronous(const Fork& fork, const std::vector<std::size_t>& inverse);

}  // namespace mh
