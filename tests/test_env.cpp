// The strict env-knob parser (support/env.hpp): the shared replacement for
// the ad-hoc parsers that treated "false"/"off" as enabled (old bench
// env_flag) and silently coerced garbage to the fallback (MH_THREADS,
// MH_OBS_BENCH_REPS). Malformed values must throw with the variable name in
// the message, never fall back. The text rules underneath also read the
// examples' command lines, where atof/strtoul used to turn "abc" into 0 and
// "-5" into 2^64-5.
#include "support/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include "engine/thread_pool.hpp"

namespace {

constexpr const char* kVar = "MH_TEST_ENV_KNOB";

TEST(EnvText, ParseSizeAcceptsPlainDigitsOnly) {
  EXPECT_EQ(mh::env::parse_size("0"), std::optional<std::size_t>(0));
  EXPECT_EQ(mh::env::parse_size("50"), std::optional<std::size_t>(50));
  EXPECT_EQ(mh::env::parse_size("18446744073709551615"),
            std::optional<std::size_t>(18446744073709551615ULL));
  for (const char* v : {"", "-5", "+5", "abc", "16x", " 4", "4 ", "1.5", "0x10", "1e3",
                        "18446744073709551616"})
    EXPECT_EQ(mh::env::parse_size(v), std::nullopt) << '"' << v << '"';
}

TEST(EnvText, ParseNumberAcceptsOneFiniteRealOnly) {
  EXPECT_EQ(mh::env::parse_number("0.3"), std::optional<double>(0.3));
  EXPECT_EQ(mh::env::parse_number("-5"), std::optional<double>(-5.0));
  EXPECT_EQ(mh::env::parse_number("1e-9"), std::optional<double>(1e-9));
  EXPECT_EQ(mh::env::parse_number("0"), std::optional<double>(0.0));
  for (const char* v : {"", "abc", "0.3x", " 0.3", "0.3 ", "nan", "inf", "-inf", "1e999",
                        "1e-400", "0.3,5"})
    EXPECT_EQ(mh::env::parse_number(v), std::nullopt) << '"' << v << '"';
}

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv(kVar); }
  void set(const char* value) { ::setenv(kVar, value, 1); }
};

TEST_F(EnvTest, FlagUnsetOrEmptyIsFalse) {
  ::unsetenv(kVar);
  EXPECT_FALSE(mh::env::flag(kVar));
  set("");
  EXPECT_FALSE(mh::env::flag(kVar));
}

TEST_F(EnvTest, FlagAcceptsBooleanSpellingsCaseInsensitively) {
  for (const char* v : {"1", "true", "TRUE", "on", "On", "yes", "YES"}) {
    set(v);
    EXPECT_TRUE(mh::env::flag(kVar)) << v;
  }
  for (const char* v : {"0", "false", "FALSE", "off", "Off", "no", "NO"}) {
    set(v);
    EXPECT_FALSE(mh::env::flag(kVar)) << v;
  }
}

// The original bug: env_flag("X") was "set and not 0", so X=false and X=off
// enabled the knob. They must parse as disabled now, and junk must throw.
TEST_F(EnvTest, FlagRejectsMalformedInsteadOfEnabling) {
  set("flase");  // the typo that used to silently enable
  EXPECT_THROW((void)mh::env::flag(kVar), std::invalid_argument);
  set("2");
  EXPECT_THROW((void)mh::env::flag(kVar), std::invalid_argument);
  set(" 1");
  EXPECT_THROW((void)mh::env::flag(kVar), std::invalid_argument);
}

TEST_F(EnvTest, FlagErrorNamesTheVariableAndValue) {
  set("maybe");
  try {
    (void)mh::env::flag(kVar);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(kVar), std::string::npos) << what;
    EXPECT_NE(what.find("maybe"), std::string::npos) << what;
  }
}

TEST_F(EnvTest, SizeParsesDigitsAndFallsBackOnlyWhenUnset) {
  ::unsetenv(kVar);
  EXPECT_EQ(mh::env::size(kVar, 7), 7u);
  set("");
  EXPECT_EQ(mh::env::size(kVar, 7), 7u);
  set("0");
  EXPECT_EQ(mh::env::size(kVar, 7), 0u);
  set("123456789");
  EXPECT_EQ(mh::env::size(kVar, 7), 123456789u);
}

// The original bug: strtoull-based knobs coerced "16x" to 16 and "-1" to
// 2^64-1 (or silently used the fallback). All malformed forms must throw.
TEST_F(EnvTest, SizeRejectsMalformed) {
  for (const char* v : {"-1", "16x", "x16", "1.5", " 4", "4 ", "0x10",
                        "99999999999999999999999999"}) {
    set(v);
    EXPECT_THROW((void)mh::env::size(kVar, 7), std::invalid_argument) << v;
  }
}

TEST_F(EnvTest, SizeEnforcesMinimum) {
  set("0");
  EXPECT_THROW((void)mh::env::size(kVar, 7, 1), std::invalid_argument);
  set("1");
  EXPECT_EQ(mh::env::size(kVar, 7, 1), 1u);
}

TEST_F(EnvTest, PositiveNumberParsesAndRejects) {
  ::unsetenv(kVar);
  EXPECT_DOUBLE_EQ(mh::env::positive_number(kVar, 2.0), 2.0);
  set("3.25");
  EXPECT_DOUBLE_EQ(mh::env::positive_number(kVar, 2.0), 3.25);
  for (const char* v : {"0", "-1.5", "nan", "inf", "2%", "fast", " 3"}) {
    set(v);
    EXPECT_THROW((void)mh::env::positive_number(kVar, 2.0), std::invalid_argument) << v;
  }
}

// threads_from_env is the highest-traffic consumer (every bench): unset and
// 0 keep meaning "auto", garbage now throws instead of running at the
// default width.
TEST(ThreadsFromEnvTest, StrictMhThreads) {
  const char* saved = std::getenv("MH_THREADS");
  const std::string saved_copy = saved ? saved : "";

  ::unsetenv("MH_THREADS");
  EXPECT_EQ(mh::engine::threads_from_env(), 0u);
  ::setenv("MH_THREADS", "4", 1);
  EXPECT_EQ(mh::engine::threads_from_env(), 4u);
  ::setenv("MH_THREADS", "0", 1);
  EXPECT_EQ(mh::engine::threads_from_env(), 0u);
  ::setenv("MH_THREADS", "fuor", 1);
  EXPECT_THROW((void)mh::engine::threads_from_env(), std::invalid_argument);

  if (saved)
    ::setenv("MH_THREADS", saved_copy.c_str(), 1);
  else
    ::unsetenv("MH_THREADS");
}

}  // namespace
