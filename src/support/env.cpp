#include "support/env.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace mh::env {

namespace {

[[noreturn]] void reject(const char* name, const char* raw, const char* expected) {
  throw std::invalid_argument(std::string(name) + "=\"" + raw + "\" is malformed: expected " +
                              expected + " (unset or empty uses the default)");
}

std::string lowered(const char* raw) {
  std::string out(raw);
  for (char& c : out)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  return out;
}

}  // namespace

std::optional<std::size_t> parse_size(const char* text) {
  // strtoull alone would wrap "-1" to 2^64-1 and stop at trailing junk:
  // demand plain digits end to end.
  if (*text == '\0') return std::nullopt;
  for (const char* c = text; *c != '\0'; ++c)
    if (*c < '0' || *c > '9') return std::nullopt;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text, nullptr, 10);
  if (errno == ERANGE) return std::nullopt;
  return static_cast<std::size_t>(parsed);
}

std::optional<double> parse_number(const char* text) {
  // strtod skips leading space and stops at trailing junk: reject both.
  if (*text == '\0' || std::isspace(static_cast<unsigned char>(*text))) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text, &end);
  if (*end != '\0' || errno == ERANGE || !std::isfinite(parsed)) return std::nullopt;
  return parsed;
}

bool flag(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return false;
  const std::string v = lowered(raw);
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  reject(name, raw, "a boolean (1/0, true/false, on/off, yes/no)");
}

std::size_t size(const char* name, std::size_t fallback, std::size_t min_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const std::optional<std::size_t> parsed = parse_size(raw);
  if (!parsed) reject(name, raw, "a non-negative integer");
  if (*parsed < min_value)
    reject(name, raw, min_value == 1 ? "a positive integer" : "a larger integer");
  return *parsed;
}

double positive_number(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const std::optional<double> parsed = parse_number(raw);
  if (!parsed || *parsed <= 0.0) reject(name, raw, "a finite number > 0");
  return *parsed;
}

}  // namespace mh::env
