// The fork abstraction of Definition 2: a rooted tree whose vertices are labeled
// with slot indices. A *tine* is a root-to-vertex path and is identified with its
// terminal vertex, so VertexId doubles as a tine handle.
//
// A fork is three flat columns indexed by vertex id (label, parent, depth)
// plus its height. Vertices are append-only and a parent always precedes its
// children, so every subtree fact (leaves, subtree maxima) is one scan over
// the parent column, with no per-vertex child lists.
//
// Forks do not own the characteristic string they were built for; structural
// queries that need it (validation, reach, margin, viability) take the string as
// a parameter. This keeps a single tree reusable as a "fork prefix" (Def. 10)
// for every extension of its string, mirroring how the paper treats F |- x as a
// subgraph of F' |- xy.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chars/char_string.hpp"

namespace mh {

using VertexId = std::uint32_t;
inline constexpr VertexId kRoot = 0;
inline constexpr std::uint32_t kNoVertex = 0xffffffffu;

class Fork {
 public:
  /// Constructs the trivial fork: a single root vertex labeled 0 (the genesis).
  Fork();

  /// Adds a vertex labeled `label` whose parent is `parent`. The label must be
  /// strictly larger than the parent's (axiom F2). Returns the new vertex id.
  VertexId add_vertex(VertexId parent, std::uint32_t label);

  [[nodiscard]] std::size_t vertex_count() const noexcept { return parent_.size(); }
  [[nodiscard]] std::uint32_t label(VertexId v) const;
  [[nodiscard]] VertexId parent(VertexId v) const;
  /// Depth of v = length of the tine ending at v (root has depth 0).
  [[nodiscard]] std::uint32_t depth(VertexId v) const;

  /// Length of the longest tine.
  [[nodiscard]] std::uint32_t height() const noexcept { return height_; }

  /// Root-to-v vertex sequence (inclusive).
  [[nodiscard]] std::vector<VertexId> path_to(VertexId v) const;

  /// Deepest common vertex of the tines ending at u and v.
  [[nodiscard]] VertexId lca(VertexId u, VertexId v) const;

  /// True iff the tine ending at `prefix` is a (non-strict) prefix of the tine
  /// ending at v.
  [[nodiscard]] bool on_tine(VertexId prefix, VertexId v) const;

  /// All vertices with the given label (slots may host several blocks).
  [[nodiscard]] std::vector<VertexId> vertices_with_label(std::uint32_t label) const;

  /// All vertices of maximum depth (the heads of all longest tines).
  [[nodiscard]] std::vector<VertexId> longest_tines() const;

  /// The x ~ y tine relation of Definition 16: the tines ending at u and v
  /// share an edge terminating at a vertex labeled > x_len. Self-pairs follow
  /// the same rule (a tine shares its own edges). `disjoint_over_suffix` is the
  /// paper's "u ~/~_x v".
  [[nodiscard]] bool disjoint_over_suffix(VertexId u, VertexId v, std::size_t x_len) const;

 private:
  std::vector<std::uint32_t> label_;
  std::vector<VertexId> parent_;  // parent_[kRoot] = kRoot by convention
  std::vector<std::uint32_t> depth_;
  std::uint32_t height_ = 0;
};

/// The honest depth function d(.) (Section 2): the largest depth of a vertex
/// carrying the given honest label; nullopt if the label is absent.
std::optional<std::uint32_t> honest_depth(const Fork& fork, std::uint32_t label);

/// Max depth over honest vertices with label <= slot (0 if none). The length an
/// honest chain observed by slot `slot` is guaranteed to have reached.
std::uint32_t max_honest_depth_upto(const Fork& fork, const CharString& w, std::size_t slot);

/// A tine is *viable at the onset of slot s* if its label is < s and its length
/// is >= the depth of every honest vertex labeled < s (longest-chain rule).
bool viable_at_onset(const Fork& fork, const CharString& w, VertexId v, std::size_t s);

/// All viable tines at the onset of slot s.
std::vector<VertexId> viable_tines_at_onset(const Fork& fork, const CharString& w, std::size_t s);

/// A fork is closed (Definition 12) iff every leaf is honest (the trivial fork
/// is closed).
bool is_closed(const Fork& fork, const CharString& w);

/// Whether the vertex is honest under w (the root counts as honest).
bool is_honest_vertex(const Fork& fork, const CharString& w, VertexId v);

}  // namespace mh
