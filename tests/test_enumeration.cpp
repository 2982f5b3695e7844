#include "checkers/enumerate.hpp"

#include <gtest/gtest.h>

#include "core/relative_margin.hpp"
#include "fork/margin.hpp"
#include "fork/reach.hpp"
#include "fork/validate.hpp"

namespace mh {
namespace {

TEST(Enumerate, CountsForTrivialStrings) {
  // w = "h": exactly one fork (the single honest vertex on the root).
  std::size_t count = 0;
  enumerate_forks(CharString::parse("h"), EnumerationOptions{},
                  [&](const Fork&) { ++count; });
  EXPECT_EQ(count, 1u);
}

TEST(Enumerate, AdversarialSlotMultiplicities) {
  // w = "A" closed forks: the adversary may place 0 vertices (trivial fork is
  // closed); 1 or 2 adversarial vertices leave adversarial leaves (not
  // closed). So only 1 closed fork.
  std::size_t closed = 0;
  enumerate_forks(CharString::parse("A"), EnumerationOptions{},
                  [&](const Fork&) { ++closed; });
  EXPECT_EQ(closed, 1u);

  EnumerationOptions open;
  open.closed_only = false;
  std::size_t all = 0;
  enumerate_forks(CharString::parse("A"), open, [&](const Fork&) { ++all; });
  EXPECT_EQ(all, 3u);  // 0, 1, or 2 vertices on the root
}

TEST(Enumerate, MultiplyHonestSlotCounts) {
  // w = "H": 1 or 2 vertices on the root, both closed.
  std::size_t count = 0;
  enumerate_forks(CharString::parse("H"), EnumerationOptions{},
                  [&](const Fork&) { ++count; });
  EXPECT_EQ(count, 2u);
}

TEST(Enumerate, AllVisitedForksAreValid) {
  EnumerationOptions options;
  options.closed_only = false;
  for (const char* text : {"hA", "Ah", "HA", "AH", "hAh", "AHA", "hHA"}) {
    const CharString w = CharString::parse(text);
    enumerate_forks(w, options, [&](const Fork& f) {
      ASSERT_TRUE(validate_fork(f, w).ok)
          << text << ": " << validate_fork(f, w).message;
    });
  }
}

TEST(Enumerate, BudgetGuard) {
  EnumerationOptions tiny;
  tiny.max_visits = 1;
  EXPECT_THROW(
      enumerate_forks(CharString::parse("HH"), tiny, [](const Fork&) {}),
      std::invalid_argument);
}

// Proposition 1 (upper bound): no closed fork exceeds the Theorem-5 recurrence
// margin; Theorem 6 (achievability) is covered by test_astar. Together they
// pin mu_x(y) exactly, so here the enumerated maximum must match the
// recurrence for strings small enough that the multiplicity bounds bite
// nothing.
TEST(Enumerate, MaxClosedForkMarginMatchesRecurrence) {
  for (const char* text : {"h", "H", "A", "hA", "Ah", "HA", "AH", "HH", "hh",
                           "hAh", "AhH", "HAH", "AAh", "hHA", "AhA"}) {
    const CharString w = CharString::parse(text);
    for (std::size_t x = 0; x <= w.size(); ++x) {
      const std::int64_t recurrence = relative_margin_recurrence(w, x);
      const std::int64_t best = max_over_forks(
          w, EnumerationOptions{},
          [&](const Fork& f) { return relative_margin(f, w, x); });
      EXPECT_EQ(best, recurrence) << "w = " << text << ", x_len = " << x;
    }
  }
}

TEST(Enumerate, MaxReachMatchesRhoRecurrence) {
  for (const char* text : {"h", "A", "H", "hA", "AA", "AhA", "HAh", "hhA"}) {
    const CharString w = CharString::parse(text);
    const std::int64_t best = max_over_forks(
        w, EnumerationOptions{}, [&](const Fork& f) { return max_reach(f, w); });
    EXPECT_EQ(best, rho_of(w)) << text;
  }
}

}  // namespace
}  // namespace mh
