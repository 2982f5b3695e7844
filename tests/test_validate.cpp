#include "fork/validate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "delta/semi_sync.hpp"
#include "fork_fixtures.hpp"

namespace mh {
namespace {

/// The validator before its one-pass form, kept as the fuzz reference for
/// both alphabets: one vertex scan per label for (F3) and every pair of
/// honest vertices for (F4). Over {Bot, h, H, A} it is the all-pairs Delta-fork
/// check that validate_fork replaced.
template <class String>
ValidationResult naive_validate_fork(const Fork& fork, const String& w, std::size_t delta) {
  using Sym = decltype(w.at(1));
  const auto fail = [](std::string msg) { return ValidationResult{false, std::move(msg)}; };
  const std::size_t n = w.size();
  if (fork.label(kRoot) != 0) return fail("(F1) root must be labeled 0");
  for (VertexId v = 0; v < fork.vertex_count(); ++v) {
    if (fork.label(v) > n) return fail("(F2) label exceeds string length");
    if (v != kRoot && fork.label(v) <= fork.label(fork.parent(v)))
      return fail("(F2) labels must strictly increase along tines");
    if (fork.label(v) >= 1 && is_empty(w.at(fork.label(v))))
      return fail("empty slots cannot label blocks");
  }
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t count = fork.vertices_with_label(static_cast<std::uint32_t>(i)).size();
    if (w.at(i) == Sym::h && count != 1)
      return fail("(F3) uniquely honest slot must label exactly one vertex");
    if (w.at(i) == Sym::H && count == 0)
      return fail("(F3) multiply honest slot must label at least one vertex");
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> honest;  // (label, depth)
  for (VertexId v = 0; v < fork.vertex_count(); ++v) {
    const std::uint32_t l = fork.label(v);
    if (l >= 1 && is_honest(w.at(l))) honest.emplace_back(l, fork.depth(v));
  }
  std::sort(honest.begin(), honest.end());
  for (std::size_t a = 0; a < honest.size(); ++a)
    for (std::size_t b = a + 1; b < honest.size(); ++b)
      if (honest[a].first + delta < honest[b].first && honest[a].second >= honest[b].second)
        return fail("(F4) honest depths must strictly increase with slot labels");
  return ValidationResult{};
}

/// A random fork for `w` that is valid at `delta` unless one mutation hits
/// it: every honest vertex extends a vertex at least as deep as each honest
/// vertex labeled more than `delta` slots before it, adversarial slots label
/// zero to two vertices anywhere, and empty slots label none. The mutations
/// are a duplicate or a missing honest label, a vertex past the string, an
/// honest vertex at a depth equal to, or one below, an honest vertex exactly
/// `delta` or `delta + 1` labels back, and (over {Bot, h, H, A}) a vertex
/// labeled with an empty slot.
template <class String>
Fork random_fork(const String& w, std::size_t delta, Rng& rng) {
  using Sym = decltype(w.at(1));
  enum Mutation : std::uint64_t {
    kNone, kDuplicate, kMissing, kPastString, kEqual, kInverted, kEmptyLabel
  };
  const std::uint64_t mutations = std::is_same_v<String, TetraString> ? 6 : 5;
  const std::size_t n = w.size();
  const std::uint64_t mutation = rng.bernoulli(0.3) ? kNone : 1 + rng.below(mutations);
  const std::size_t target = 1 + rng.below(n);
  const std::size_t gap = delta + rng.below(2);
  Fork f;
  std::vector<std::vector<VertexId>> by_label(n + 1);
  by_label[0].push_back(kRoot);
  // A random vertex labeled below `label`, at depth `need` or more.
  const auto any_vertex = [&](std::uint32_t label, std::uint32_t need) {
    std::vector<VertexId> deep;
    for (VertexId v = 0; v < f.vertex_count(); ++v)
      if (f.label(v) < label && f.depth(v) >= need) deep.push_back(v);
    return deep[rng.below(deep.size())];
  };
  const auto honest = [&](std::size_t slot) { return is_honest(w.at(slot)); };
  for (std::size_t i = 1; i <= n; ++i) {
    const auto label = static_cast<std::uint32_t>(i);
    if (is_empty(w.at(i))) continue;
    if (!honest(i)) {
      for (std::uint64_t c = rng.below(3); c-- > 0;)
        by_label[i].push_back(f.add_vertex(any_vertex(label, 0), label));
      continue;
    }
    std::uint32_t need = 0;
    for (std::size_t l = 1; l + delta < i; ++l)
      if (honest(l))
        for (const VertexId u : by_label[l]) need = std::max(need, f.depth(u));
    std::uint64_t copies = w.at(i) == Sym::h ? 1 : 1 + rng.below(2);
    if (i == target && mutation == kDuplicate) ++copies;
    if (i == target && mutation == kMissing) copies = 0;
    for (std::uint64_t c = 0; c < copies; ++c) {
      VertexId parent = any_vertex(label, need);
      if (i == target && (mutation == kEqual || mutation == kInverted) && gap < i &&
          honest(i - gap) && !by_label[i - gap].empty()) {
        const std::vector<VertexId>& back = by_label[i - gap];
        parent = f.parent(back[rng.below(back.size())]);
        if (mutation == kInverted && parent != kRoot) parent = f.parent(parent);
      }
      by_label[i].push_back(f.add_vertex(parent, label));
    }
  }
  const auto past = static_cast<std::uint32_t>(n + 1);
  if (mutation == kPastString) f.add_vertex(any_vertex(past, 0), past);
  if (mutation == kEmptyLabel)
    for (std::size_t i = target; i <= n; ++i)
      if (is_empty(w.at(i))) {
        const auto label = static_cast<std::uint32_t>(i);
        f.add_vertex(any_vertex(label, 0), label);
        break;
      }
  return f;
}

/// Fuzzes validate_fork against the naive reference at Delta in {0, ..., 3}
/// on forks built valid at a random Delta, some mutated, over strings that
/// `draw` returns. The verdict and message must agree on every fork; returns
/// how often each outcome occurred, keyed by its axiom tag.
template <class Draw>
std::map<std::string, std::size_t> fuzz_against_naive(std::uint64_t seed, Draw draw) {
  Rng rng(seed);
  std::map<std::string, std::size_t> outcomes;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto w = draw(1 + rng.below(14), rng);
    const std::size_t built_at = rng.below(4);
    const Fork fork = random_fork(w, built_at, rng);
    for (std::size_t delta = 0; delta <= 3; ++delta) {
      const ValidationResult fast = validate_fork(fork, w, delta);
      const ValidationResult naive = naive_validate_fork(fork, w, delta);
      EXPECT_EQ(fast.ok, naive.ok) << "trial " << trial << ", " << w.to_string() << ", Delta "
                                   << delta << ": " << naive.message;
      EXPECT_EQ(fast.message, naive.message) << "trial " << trial << ", Delta " << delta;
      if (fast.ok != naive.ok || fast.message != naive.message) return outcomes;
      ++outcomes[naive.ok ? "valid" : naive.message.substr(0, naive.message.find(' '))];
    }
  }
  return outcomes;
}

TEST(Validate, OnePassMatchesTheNaiveValidatorOnRandomForks) {
  // Every outcome must occur.
  auto outcomes = fuzz_against_naive(0xf04c, [](std::size_t n, Rng& rng) {
    std::vector<Symbol> symbols;
    for (std::size_t i = 0; i < n; ++i)
      symbols.push_back(rng.bernoulli(0.4)   ? Symbol::A
                        : rng.bernoulli(0.6) ? Symbol::h
                                             : Symbol::H);
    return CharString(symbols);
  });
  EXPECT_GT(outcomes["valid"], 1000u);
  EXPECT_GT(outcomes["(F2)"], 100u);
  EXPECT_GT(outcomes["(F3)"], 100u);
  EXPECT_GT(outcomes["(F4)"], 100u);
}

TEST(Validate, DeltaForksMatchTheNaiveValidatorOnRandomForks) {
  // The same fuzz over {Bot, h, H, A}: the empty-slot rule joins (F1)-(F4_Delta),
  // and every outcome must occur.
  auto outcomes = fuzz_against_naive(0xde17a, [](std::size_t n, Rng& rng) {
    std::vector<TetraSymbol> symbols;
    for (std::size_t i = 0; i < n; ++i)
      symbols.push_back(rng.bernoulli(0.3)   ? TetraSymbol::Bot
                        : rng.bernoulli(0.4) ? TetraSymbol::A
                        : rng.bernoulli(0.6) ? TetraSymbol::h
                                             : TetraSymbol::H);
    return TetraString(symbols);
  });
  EXPECT_GT(outcomes["valid"], 1000u);
  EXPECT_GT(outcomes["(F2)"], 100u);
  EXPECT_GT(outcomes["(F3)"], 100u);
  EXPECT_GT(outcomes["(F4)"], 100u);
  EXPECT_GT(outcomes["empty"], 100u);
}

TEST(Validate, FigureForksAreValid) {
  fixtures::Fig1 fig1;
  EXPECT_TRUE(validate_fork(fig1.fork, fig1.w)) << validate_fork(fig1.fork, fig1.w).message;
  fixtures::Fig2 fig2;
  EXPECT_TRUE(validate_fork(fig2.fork, fig2.w).ok);
  fixtures::Fig3 fig3;
  EXPECT_TRUE(validate_fork(fig3.fork, fig3.w).ok);
}

TEST(Validate, TrivialForkValidForAnyString) {
  const Fork f;
  // (F3) requires honest slots to be populated, so only all-adversarial
  // strings admit the trivial fork.
  EXPECT_TRUE(validate_fork(f, CharString::parse("AAA")).ok);
  EXPECT_FALSE(validate_fork(f, CharString::parse("AhA")).ok);
}

TEST(Validate, F2LabelBeyondString) {
  Fork f;
  f.add_vertex(kRoot, 4);
  const auto result = validate_fork(f, CharString::parse("AAA"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("(F2)"), std::string::npos);
}

TEST(Validate, F3UniquelyHonestSlotNeedsExactlyOneVertex) {
  const CharString w = CharString::parse("hA");
  {
    Fork f;  // zero vertices at slot 1
    EXPECT_FALSE(validate_fork(f, w).ok);
  }
  {
    Fork f;  // two vertices at slot 1
    f.add_vertex(kRoot, 1);
    f.add_vertex(kRoot, 1);
    const auto result = validate_fork(f, w);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.message.find("(F3)"), std::string::npos);
  }
  {
    Fork f;
    f.add_vertex(kRoot, 1);
    EXPECT_TRUE(validate_fork(f, w).ok);
  }
}

TEST(Validate, F3MultiplyHonestSlotNeedsAtLeastOne) {
  const CharString w = CharString::parse("HA");
  Fork f;
  EXPECT_FALSE(validate_fork(f, w).ok);
  f.add_vertex(kRoot, 1);
  EXPECT_TRUE(validate_fork(f, w).ok);
  f.add_vertex(kRoot, 1);
  EXPECT_TRUE(validate_fork(f, w).ok);  // several honest blocks are fine
}

TEST(Validate, F4HonestDepthsMustIncrease) {
  const CharString w = CharString::parse("hh");
  Fork f;
  f.add_vertex(kRoot, 1);
  f.add_vertex(kRoot, 2);  // depth 1 == depth 1: violates (F4)
  const auto result = validate_fork(f, w);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("(F4)"), std::string::npos);

  Fork g;
  const VertexId a = g.add_vertex(kRoot, 1);
  g.add_vertex(a, 2);
  EXPECT_TRUE(validate_fork(g, w).ok);
}

TEST(Validate, F4EqualLabelsExempt) {
  // Two honest vertices of one H slot may sit at different depths.
  const CharString w = CharString::parse("AH");
  Fork f;
  const VertexId a = f.add_vertex(kRoot, 1);
  f.add_vertex(a, 2);
  f.add_vertex(kRoot, 2);
  EXPECT_TRUE(validate_fork(f, w).ok);
}

TEST(Validate, DeltaRelaxationAllowsNearbyEqualDepths) {
  const CharString w = CharString::parse("hh");
  Fork f;
  f.add_vertex(kRoot, 1);
  f.add_vertex(kRoot, 2);  // equal depths, 1 slot apart
  EXPECT_FALSE(validate_fork(f, w, 0).ok);
  EXPECT_TRUE(validate_fork(f, w, 1).ok);   // 1 + 1 is not < 2
  EXPECT_TRUE(validate_fork(f, w, 5).ok);
}

TEST(Validate, DeltaStillConstrainsFarApartSlots) {
  const CharString w = CharString::parse("hAAAh");
  Fork f;
  f.add_vertex(kRoot, 1);
  f.add_vertex(kRoot, 5);  // equal depths, 4 slots apart
  EXPECT_TRUE(validate_fork(f, w, 4).ok);
  EXPECT_FALSE(validate_fork(f, w, 3).ok);
}

TEST(Validate, AdversarialMultiplicityUnconstrained) {
  const CharString w = CharString::parse("Ah");
  Fork f;
  const VertexId a1 = f.add_vertex(kRoot, 1);
  f.add_vertex(kRoot, 1);
  f.add_vertex(a1, 2);
  EXPECT_TRUE(validate_fork(f, w).ok);
}

}  // namespace
}  // namespace mh
