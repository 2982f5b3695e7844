#include "fork/fork.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace mh {

Fork::Fork() {
  label_.push_back(0);
  parent_.push_back(kRoot);
  depth_.push_back(0);
}

VertexId Fork::add_vertex(VertexId parent, std::uint32_t label) {
  MH_REQUIRE(parent < parent_.size());
  MH_REQUIRE_MSG(label > label_[parent], "labels must strictly increase along tines (F2)");
  const auto id = static_cast<VertexId>(parent_.size());
  label_.push_back(label);
  parent_.push_back(parent);
  depth_.push_back(depth_[parent] + 1);
  height_ = std::max(height_, depth_.back());
  return id;
}

std::uint32_t Fork::label(VertexId v) const {
  MH_REQUIRE(v < label_.size());
  return label_[v];
}

VertexId Fork::parent(VertexId v) const {
  MH_REQUIRE(v < parent_.size());
  return parent_[v];
}

std::uint32_t Fork::depth(VertexId v) const {
  MH_REQUIRE(v < depth_.size());
  return depth_[v];
}

std::vector<VertexId> Fork::path_to(VertexId v) const {
  MH_REQUIRE(v < parent_.size());
  std::vector<VertexId> path;
  for (VertexId cur = v;; cur = parent_[cur]) {
    path.push_back(cur);
    if (cur == kRoot) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

VertexId Fork::lca(VertexId u, VertexId v) const {
  MH_REQUIRE(u < parent_.size() && v < parent_.size());
  while (u != v) {
    if (depth_[u] > depth_[v])
      u = parent_[u];
    else
      v = parent_[v];
  }
  return u;
}

bool Fork::on_tine(VertexId prefix, VertexId v) const {
  MH_REQUIRE(prefix < parent_.size() && v < parent_.size());
  while (depth_[v] > depth_[prefix]) v = parent_[v];
  return v == prefix;
}

std::vector<VertexId> Fork::vertices_with_label(std::uint32_t label) const {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < label_.size(); ++v)
    if (label_[v] == label) out.push_back(v);
  return out;
}

std::vector<VertexId> Fork::longest_tines() const {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < depth_.size(); ++v)
    if (depth_[v] == height_) out.push_back(v);
  return out;
}

bool Fork::disjoint_over_suffix(VertexId u, VertexId v, std::size_t x_len) const {
  // Shared edges of the two tines terminate on the root-to-lca path, whose
  // largest label is the lca's. They share an edge labeled inside the suffix
  // iff label(lca) > x_len.
  return label(lca(u, v)) <= x_len;
}

std::optional<std::uint32_t> honest_depth(const Fork& fork, std::uint32_t label) {
  std::optional<std::uint32_t> best;
  for (VertexId v : fork.vertices_with_label(label))
    if (!best || fork.depth(v) > *best) best = fork.depth(v);
  return best;
}

std::uint32_t max_honest_depth_upto(const Fork& fork, const CharString& w, std::size_t slot) {
  std::uint32_t best = 0;  // the root (genesis) is honest with depth 0
  for (VertexId v = 0; v < fork.vertex_count(); ++v) {
    const std::uint32_t l = fork.label(v);
    if (l >= 1 && l <= slot && l <= w.size() && w.honest(l))
      best = std::max(best, fork.depth(v));
  }
  return best;
}

bool viable_at_onset(const Fork& fork, const CharString& w, VertexId v, std::size_t s) {
  if (fork.label(v) >= s) return false;
  return fork.depth(v) >= max_honest_depth_upto(fork, w, s - 1);
}

std::vector<VertexId> viable_tines_at_onset(const Fork& fork, const CharString& w,
                                            std::size_t s) {
  std::vector<VertexId> out;
  const std::uint32_t need = max_honest_depth_upto(fork, w, s - 1);
  for (VertexId v = 0; v < fork.vertex_count(); ++v)
    if (fork.label(v) < s && fork.depth(v) >= need) out.push_back(v);
  return out;
}

bool is_honest_vertex(const Fork& fork, const CharString& w, VertexId v) {
  const std::uint32_t l = fork.label(v);
  if (l == 0) return true;
  MH_REQUIRE(l <= w.size());
  return w.honest(l);
}

bool is_closed(const Fork& fork, const CharString& w) {
  // A leaf is a vertex no other vertex names as its parent.
  std::vector<bool> has_child(fork.vertex_count(), false);
  for (VertexId v = 1; v < fork.vertex_count(); ++v) has_child[fork.parent(v)] = true;
  for (VertexId v = 0; v < fork.vertex_count(); ++v)
    if (!has_child[v] && !is_honest_vertex(fork, w, v)) return false;
  return true;
}

}  // namespace mh
