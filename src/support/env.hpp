// Strict environment-knob parsing, shared by every MH_* env switch.
//
// The repo's knobs used to be parsed ad hoc: the bench harness treated
// "false" and "off" as enabled, and the numeric knobs (MH_THREADS,
// MH_OBS_BENCH_REPS, ...) silently fell back on garbage — a typo like
// MH_THREADS=fuor ran the sweep at the default width and nobody noticed.
// These parsers accept exactly the documented forms and throw
// std::invalid_argument (naming the variable and the offending value) on
// anything else. Unset or empty always means "use the fallback".
//
// The text rules underneath (parse_size, parse_number) are exposed too: the
// examples read their positional arguments with them, so a command line and
// an env knob accept the same spellings.
#pragma once

#include <cstddef>
#include <optional>

namespace mh::env {

/// Plain decimal digits end to end (no sign, space or suffix) that fit a
/// std::size_t; std::nullopt for anything else, including "".
[[nodiscard]] std::optional<std::size_t> parse_size(const char* text);

/// The whole text as one finite real (no leading space, no suffix, no
/// overflow or underflow, no nan/inf); std::nullopt for anything else.
[[nodiscard]] std::optional<double> parse_number(const char* text);

/// Boolean knob: unset/"" -> false; "1"/"true"/"on"/"yes" -> true;
/// "0"/"false"/"off"/"no" -> false (case-insensitive). Anything else throws.
[[nodiscard]] bool flag(const char* name);

/// Non-negative integer knob: unset/"" -> fallback; otherwise the value must
/// be plain digits (no sign, no suffix) and >= min_value, else throws.
[[nodiscard]] std::size_t size(const char* name, std::size_t fallback,
                               std::size_t min_value = 0);

/// Positive real knob: unset/"" -> fallback; otherwise the value must parse
/// fully as a finite number > 0, else throws.
[[nodiscard]] double positive_number(const char* name, double fallback);

}  // namespace mh::env
