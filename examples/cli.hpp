// Positional arguments for the examples, read with the text parsers behind
// the MH_* environment knobs (support/env.hpp) or a library parser, then
// range-checked. A malformed or out-of-range argument, or one argument too
// many, prints the usage line and names the offending argument on stderr,
// then exits with status 2.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "support/env.hpp"

namespace mh::cli {

class Args {
 public:
  /// `usage` lists the positional arguments, e.g. "[k [pA [seed]]]".
  Args(int argc, char** argv, const char* usage, int max_args)
      : argc_(argc), argv_(argv), usage_(usage) {
    if (argc - 1 > max_args)
      reject(std::string("unexpected extra argument \"") + argv[max_args + 1] + "\"");
  }

  /// Argument `index` (1-based) as a real number satisfying `in_range`, which
  /// `range` describes; `fallback` when the argument is absent.
  template <typename InRange>
  [[nodiscard]] double number(int index, const char* name, double fallback, const char* range,
                              InRange in_range) const {
    if (index >= argc_) return fallback;
    const std::optional<double> value = env::parse_number(argv_[index]);
    if (!value || !in_range(*value)) reject_value(name, index, range);
    return *value;
  }

  /// Argument `index` (1-based) as an integer in [lo, hi]; `fallback` when
  /// the argument is absent.
  [[nodiscard]] std::size_t size(int index, const char* name, std::size_t fallback,
                                 std::size_t lo = 0,
                                 std::size_t hi = std::numeric_limits<std::size_t>::max()) const {
    if (index >= argc_) return fallback;
    const std::optional<std::size_t> value = env::parse_size(argv_[index]);
    if (!value || *value < lo || *value > hi)
      reject_value(name, index,
                   "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
    return *value;
  }

  /// Argument `index` (1-based) read by `parse`, which throws
  /// std::invalid_argument on a malformed value (`expected` describes a
  /// well-formed one); `parse(fallback)` when the argument is absent.
  template <typename Parse>
  [[nodiscard]] auto parsed(int index, const char* name, const char* fallback,
                            const char* expected, Parse parse) const {
    if (index >= argc_) return parse(fallback);
    try {
      return parse(argv_[index]);
    } catch (const std::invalid_argument&) {
      reject_value(name, index, expected);
    }
  }

 private:
  [[noreturn]] void reject_value(const char* name, int index, const std::string& expected) const {
    reject(std::string(name) + " must be " + expected + ", got \"" + argv_[index] + "\"");
  }

  [[noreturn]] void reject(const std::string& what) const {
    std::fprintf(stderr, "usage: %s %s\n%s: %s\n", argv_[0], usage_, argv_[0], what.c_str());
    std::exit(2);
  }

  int argc_;
  char** argv_;
  const char* usage_;
};

}  // namespace mh::cli
