// Viable tines (the longest-chain rule at the onset of a slot), the
// quantifier of the fork-level Bottleneck and UVP checks.
#pragma once

#include <cstddef>
#include <vector>

#include "chars/char_string.hpp"
#include "fork/fork.hpp"

namespace mh {

/// A tine is *viable at the onset of slot s* if its label is < s and its length
/// is >= the depth of every honest vertex labeled < s (longest-chain rule).
inline bool viable_at_onset(const Fork& fork, const CharString& w, VertexId v, std::size_t s) {
  if (fork.label(v) >= s) return false;
  return fork.depth(v) >= max_honest_depth_upto(fork, w, s - 1);
}

/// All viable tines at the onset of slot s.
inline std::vector<VertexId> viable_tines_at_onset(const Fork& fork, const CharString& w,
                                            std::size_t s) {
  std::vector<VertexId> out;
  const std::uint32_t need = max_honest_depth_upto(fork, w, s - 1);
  for (VertexId v = 0; v < fork.vertex_count(); ++v)
    if (fork.label(v) < s && fork.depth(v) >= need) out.push_back(v);
  return out;
}

}  // namespace mh
