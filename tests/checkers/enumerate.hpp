// Exhaustive enumeration of forks for tiny characteristic strings.
//
// This is a *test oracle*: margins, settlement predicates, UVP and Catalan
// characterizations are all defined as maxima over all forks, and for strings
// of length <= 6 we can simply visit the fork space and take the maximum
// directly. The space is infinite in principle (adversarial slots may label
// any number of vertices), so the enumeration bounds per-slot multiplicities;
// upper-bound checks (Proposition 1) are exact regardless, and the matching
// lower bounds come from the A* adversary.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>

#include "fork/fork.hpp"
#include "support/check.hpp"

namespace mh {

struct EnumerationOptions {
  std::size_t max_adversarial_per_slot = 2;  ///< vertices added per A slot (0..max)
  std::size_t max_honest_per_H_slot = 2;     ///< vertices added per H slot (1..max)
  bool closed_only = true;                   ///< visit only closed forks
  std::size_t max_visits = 5'000'000;        ///< safety valve; throws when exceeded
};

/// Visits every fork for w realizable under the multiplicity bounds. Forks are
/// constructed respecting (F1)-(F4); the visitor receives each fork by const
/// reference (copies are the visitor's business).
void enumerate_forks(const CharString& w, const EnumerationOptions& options,
                     const std::function<void(const Fork&)>& visit);

/// Convenience: max of a statistic over all (closed) forks for w.
std::int64_t max_over_forks(const CharString& w, const EnumerationOptions& options,
                            const std::function<std::int64_t(const Fork&)>& statistic);

}  // namespace mh

namespace mh {

namespace {

class Enumerator {
 public:
  Enumerator(const CharString& w, const EnumerationOptions& options,
             const std::function<void(const Fork&)>& visit)
      : w_(w), options_(options), visit_(visit) {}

  void run() {
    Fork trivial;
    recurse_slot(trivial, 1, 0);
  }

 private:
  void emit(const Fork& fork) {
    MH_REQUIRE_MSG(++visits_ <= options_.max_visits, "fork enumeration budget exceeded");
    if (!options_.closed_only || is_closed(fork, w_)) visit_(fork);
  }

  void recurse_slot(const Fork& fork, std::size_t slot, std::uint32_t max_honest_depth) {
    if (slot > w_.size()) {
      emit(fork);
      return;
    }
    const Symbol symbol = w_.at(slot);
    if (symbol == Symbol::A) {
      for (std::size_t count = 0; count <= options_.max_adversarial_per_slot; ++count)
        place_vertices(fork, slot, count, /*honest=*/false, max_honest_depth);
    } else {
      const std::size_t max_count = symbol == Symbol::h ? 1 : options_.max_honest_per_H_slot;
      for (std::size_t count = 1; count <= max_count; ++count)
        place_vertices(fork, slot, count, /*honest=*/true, max_honest_depth);
    }
  }

  /// Enumerate all parent assignments for `count` vertices labeled `slot`.
  /// Parents are pre-slot vertices (labels < slot by construction); honest
  /// vertices additionally require parent depth >= max_honest_depth so the new
  /// depth strictly exceeds every earlier honest depth (F4).
  void place_vertices(const Fork& fork, std::size_t slot, std::size_t count, bool honest,
                      std::uint32_t max_honest_depth) {
    const auto base_vertices = static_cast<VertexId>(fork.vertex_count());
    std::vector<VertexId> parents(count);
    assign_parent(fork, slot, count, honest, max_honest_depth, 0, parents, base_vertices);
  }

  void assign_parent(const Fork& fork, std::size_t slot, std::size_t count, bool honest,
                     std::uint32_t max_honest_depth, std::size_t index,
                     std::vector<VertexId>& parents, VertexId base_vertices) {
    if (index == count) {
      Fork extended = fork;
      std::uint32_t new_mhd = max_honest_depth;
      for (VertexId p : parents) {
        extended.add_vertex(p, static_cast<std::uint32_t>(slot));
        if (honest) new_mhd = std::max(new_mhd, extended.depth(p) + 1);
      }
      recurse_slot(extended, slot + 1, new_mhd);
      return;
    }
    // Symmetry pruning: vertices of one slot are interchangeable, so demand a
    // non-decreasing parent sequence.
    const VertexId start = index == 0 ? 0 : parents[index - 1];
    for (VertexId p = start; p < base_vertices; ++p) {
      if (honest && fork.depth(p) < max_honest_depth) continue;
      parents[index] = p;
      assign_parent(fork, slot, count, honest, max_honest_depth, index + 1, parents,
                    base_vertices);
    }
  }

  const CharString& w_;
  const EnumerationOptions& options_;
  const std::function<void(const Fork&)>& visit_;
  std::size_t visits_ = 0;
};

}  // namespace

inline void enumerate_forks(const CharString& w, const EnumerationOptions& options,
                     const std::function<void(const Fork&)>& visit) {
  Enumerator(w, options, visit).run();
}

inline std::int64_t max_over_forks(const CharString& w, const EnumerationOptions& options,
                            const std::function<std::int64_t(const Fork&)>& statistic) {
  std::int64_t best = std::numeric_limits<std::int64_t>::min();
  enumerate_forks(w, options, [&](const Fork& f) { best = std::max(best, statistic(f)); });
  return best;
}

}  // namespace mh
