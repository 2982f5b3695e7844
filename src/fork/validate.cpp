#include "fork/validate.hpp"

#include <algorithm>

#include "delta/semi_sync.hpp"

namespace mh {

namespace {

ValidationResult fail(std::string msg) { return ValidationResult{false, std::move(msg)}; }

/// Both alphabets' checker: their slot symbols share the names h and H, and
/// only the semi-synchronous one has empty slots (is_empty).
template <class String>
ValidationResult validate(const Fork& fork, const String& w, std::size_t delta) {
  using Sym = decltype(w.at(1));
  const std::size_t n = w.size();
  const std::size_t vertices = fork.vertex_count();

  // (F1) The root carries label 0; the Fork constructor enforces this, but a
  // defensive check keeps the validator self-contained.
  if (fork.label(kRoot) != 0) return fail("(F1) root must be labeled 0");

  // (F2) Strictly increasing labels along paths, and labels within [0, n].
  for (VertexId v = 0; v < vertices; ++v) {
    if (fork.label(v) > n) return fail("(F2) label exceeds string length");
    if (v != kRoot && fork.label(v) <= fork.label(fork.parent(v)))
      return fail("(F2) labels must strictly increase along tines");
    if (v != kRoot && is_empty(w.at(fork.label(v)))) return fail("empty slots cannot label blocks");
  }

  // (F3) Uniquely honest slots label exactly one vertex; multiply honest slots
  // label at least one. Adversarial slots are unconstrained. One pass counts
  // every label (F2 bounds them by n).
  std::vector<std::size_t> count(n + 1, 0);
  for (VertexId v = 0; v < vertices; ++v) ++count[fork.label(v)];
  for (std::size_t i = 1; i <= n; ++i) {
    if (w.at(i) == Sym::h && count[i] != 1)
      return fail("(F3) uniquely honest slot must label exactly one vertex");
    if (w.at(i) == Sym::H && count[i] == 0)
      return fail("(F3) multiply honest slot must label at least one vertex");
  }

  // (F4) / (F4_Delta): honest labels i (+ delta) < j imply depth(u) < depth(v)
  // for every vertex u labeled i and v labeled j. In label order the vertices
  // labeled below j - delta are a growing prefix, so one walk keeps their
  // maximum depth.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> honest;  // (label, depth)
  for (VertexId v = 0; v < vertices; ++v) {
    const std::uint32_t l = fork.label(v);
    if (l >= 1 && is_honest(w.at(l))) honest.emplace_back(l, fork.depth(v));
  }
  std::sort(honest.begin(), honest.end());
  std::size_t below = 0;
  std::uint32_t deepest = 0;
  for (const auto& [label, depth] : honest) {
    for (; honest[below].first + delta < label; ++below)
      deepest = std::max(deepest, honest[below].second);
    if (below != 0 && deepest >= depth)
      return fail("(F4) honest depths must strictly increase with slot labels");
  }

  return ValidationResult{};
}

}  // namespace

ValidationResult validate_fork(const Fork& fork, const CharString& w, std::size_t delta) {
  return validate(fork, w, delta);
}

ValidationResult validate_fork(const Fork& fork, const TetraString& w, std::size_t delta) {
  return validate(fork, w, delta);
}

}  // namespace mh
