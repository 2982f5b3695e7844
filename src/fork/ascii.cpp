#include "fork/ascii.hpp"

#include <sstream>
#include <vector>

namespace mh {

namespace {

void render_subtree(const Fork& fork, const CharString& w,
                    const std::vector<std::vector<VertexId>>& kids, VertexId v,
                    std::string prefix, bool last, std::ostringstream& out) {
  if (v == kRoot) {
    out << "(genesis)\n";
  } else {
    out << prefix << (last ? "`-- " : "|-- ");
    if (is_honest_vertex(fork, w, v))
      out << "[[" << fork.label(v) << "]]\n";
    else
      out << '[' << fork.label(v) << "]\n";
    prefix += last ? "    " : "|   ";
  }
  for (std::size_t i = 0; i < kids[v].size(); ++i)
    render_subtree(fork, w, kids, kids[v][i], prefix, i + 1 == kids[v].size(), out);
}

}  // namespace

std::string render_ascii(const Fork& fork, const CharString& w) {
  // Children in id order, the order they were added.
  std::vector<std::vector<VertexId>> kids(fork.vertex_count());
  for (VertexId v = 1; v < fork.vertex_count(); ++v) kids[fork.parent(v)].push_back(v);
  std::ostringstream out;
  out << "fork for w = " << w.to_string() << "  (height " << fork.height() << ", "
      << fork.vertex_count() << " vertices; [[n]] honest, [n] adversarial)\n";
  render_subtree(fork, w, kids, kRoot, "", true, out);
  return out.str();
}

}  // namespace mh
