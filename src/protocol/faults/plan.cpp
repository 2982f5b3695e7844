#include "protocol/faults/plan.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <optional>

#include "support/check.hpp"
#include "support/env.hpp"

namespace mh::faults {

namespace {

/// Overlap of two half-open intervals.
bool intervals_overlap(std::size_t a_lo, std::size_t a_hi, std::size_t b_lo,
                       std::size_t b_hi) noexcept {
  return a_lo < b_hi && b_lo < a_hi;
}

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[128];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  MH_ASSERT(n >= 0 && static_cast<std::size_t>(n) < sizeof(buf));
  out.append(buf, static_cast<std::size_t>(n));
}

/// Tokenizer state over the serialized form: space-separated `key=value`
/// tokens with ':'-separated fields inside the value.
struct FieldParser {
  std::string_view text;

  std::string_view next_token() {
    while (!text.empty() && text.front() == ' ') text.remove_prefix(1);
    const std::size_t end = text.find(' ');
    std::string_view tok = text.substr(0, end);
    text.remove_prefix(end == std::string_view::npos ? text.size() : end);
    return tok;
  }
};

/// Numeric fields follow the env knobs' strict text rules: plain digits that
/// fit a std::size_t, or one finite real. Anything else (a sign, junk, an
/// overflow, nan or inf) is rejected, never wrapped or coerced.
std::size_t parse_size(std::string_view field) {
  const std::optional<std::size_t> value = env::parse_size(std::string(field).c_str());
  MH_REQUIRE_MSG(value.has_value(), "FaultPlan::deserialize: malformed integer");
  return *value;
}

double parse_number(std::string_view field) {
  const std::optional<double> value = env::parse_number(std::string(field).c_str());
  MH_REQUIRE_MSG(value.has_value(), "FaultPlan::deserialize: malformed number");
  return *value;
}

PartyId parse_party(std::string_view field) {
  const std::size_t value = parse_size(field);
  MH_REQUIRE_MSG(value <= std::numeric_limits<PartyId>::max(),
                 "FaultPlan::deserialize: party id out of range");
  return static_cast<PartyId>(value);
}

/// Splits `value` on ':' into exactly `n` fields.
std::vector<std::string_view> split_fields(std::string_view value, std::size_t n) {
  std::vector<std::string_view> fields;
  while (true) {
    const std::size_t colon = value.find(':');
    fields.push_back(value.substr(0, colon));
    if (colon == std::string_view::npos) break;
    value.remove_prefix(colon + 1);
  }
  MH_REQUIRE_MSG(fields.size() == n, "FaultPlan::deserialize: wrong field count");
  return fields;
}

}  // namespace

const char* fault_profile_name(FaultProfile p) noexcept {
  switch (p) {
    case FaultProfile::None: return "none";
    case FaultProfile::PartitionHeal: return "partition-heal";
    case FaultProfile::Churn: return "churn";
    case FaultProfile::LossyLinks: return "lossy-links";
    case FaultProfile::Asynchrony: return "asynchrony";
    case FaultProfile::Mixed: return "mixed";
  }
  return "?";
}

void FaultPlan::validate(std::size_t parties, std::size_t horizon) const {
  MH_REQUIRE(parties >= 1 && horizon >= 1);
  for (const PartitionSpec& p : partitions) {
    MH_REQUIRE_MSG(p.start >= 1 && p.start <= horizon, "partition start outside 1..horizon");
    MH_REQUIRE_MSG(p.heal > p.start, "partition must heal after it starts");
    MH_REQUIRE_MSG(p.group.size() == parties, "partition group vector must cover all parties");
    std::size_t side[2] = {0, 0};
    for (const std::uint8_t g : p.group) {
      MH_REQUIRE_MSG(g <= 1, "partition groups are a two-way split");
      ++side[g];
    }
    MH_REQUIRE_MSG(side[0] >= 1 && side[1] >= 1, "partition must populate both sides");
  }
  for (std::size_t i = 0; i < partitions.size(); ++i)
    for (std::size_t j = i + 1; j < partitions.size(); ++j)
      MH_REQUIRE_MSG(!intervals_overlap(partitions[i].start, partitions[i].heal,
                                        partitions[j].start, partitions[j].heal),
                     "partition intervals must not overlap");
  for (const CrashSpec& c : churn) {
    MH_REQUIRE_MSG(c.party < parties, "churn party out of range");
    MH_REQUIRE_MSG(c.crash >= 1 && c.crash <= horizon, "crash slot outside 1..horizon");
    MH_REQUIRE_MSG(c.restart > c.crash, "restart must follow the crash");
  }
  for (std::size_t i = 0; i < churn.size(); ++i)
    for (std::size_t j = i + 1; j < churn.size(); ++j)
      if (churn[i].party == churn[j].party)
        MH_REQUIRE_MSG(!intervals_overlap(churn[i].crash, churn[i].restart, churn[j].crash,
                                          churn[j].restart),
                       "a party's down-time windows must not overlap");
  for (const LinkFaultSpec& l : links) {
    MH_REQUIRE_MSG(l.start >= 1 && l.end > l.start, "link window must be non-empty");
    MH_REQUIRE_MSG(l.drop >= 0.0 && l.drop <= 1.0, "drop probability outside [0, 1]");
    MH_REQUIRE_MSG(l.dup >= 0.0 && l.dup <= 1.0, "dup probability outside [0, 1]");
    MH_REQUIRE_MSG(l.extra_prob >= 0.0 && l.extra_prob <= 1.0,
                   "extra-delay probability outside [0, 1]");
    MH_REQUIRE_MSG(l.extra_prob == 0.0 || l.extra_max >= 1,
                   "extra-delay window needs extra_max >= 1");
  }
}

std::string FaultPlan::serialize() const {
  std::string out = "mh-faultplan-v1";
  append_fmt(out, " seed=%" PRIu64, seed);
  for (const PartitionSpec& p : partitions) {
    append_fmt(out, " part=%zu:%zu:", p.start, p.heal);
    for (const std::uint8_t g : p.group) out.push_back(g ? '1' : '0');
  }
  for (const CrashSpec& c : churn)
    append_fmt(out, " crash=%u:%zu:%zu", c.party, c.crash, c.restart);
  for (const LinkFaultSpec& l : links)
    append_fmt(out, " link=%zu:%zu:%.17g:%.17g:%.17g:%zu", l.start, l.end, l.drop, l.dup,
               l.extra_prob, l.extra_max);
  return out;
}

FaultPlan FaultPlan::deserialize(std::string_view text) {
  FieldParser parser{text};
  MH_REQUIRE_MSG(parser.next_token() == "mh-faultplan-v1",
                 "FaultPlan::deserialize: missing mh-faultplan-v1 header");
  FaultPlan plan;
  while (true) {
    const std::string_view token = parser.next_token();
    if (token.empty()) break;
    const std::size_t eq = token.find('=');
    MH_REQUIRE_MSG(eq != std::string_view::npos, "FaultPlan::deserialize: malformed token");
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "seed") {
      plan.seed = parse_size(value);
    } else if (key == "part") {
      const auto fields = split_fields(value, 3);
      PartitionSpec p;
      p.start = parse_size(fields[0]);
      p.heal = parse_size(fields[1]);
      for (const char c : fields[2]) {
        MH_REQUIRE_MSG(c == '0' || c == '1', "FaultPlan::deserialize: malformed group bits");
        p.group.push_back(c == '1' ? 1 : 0);
      }
      plan.partitions.push_back(std::move(p));
    } else if (key == "crash") {
      const auto fields = split_fields(value, 3);
      plan.churn.push_back(
          CrashSpec{parse_party(fields[0]), parse_size(fields[1]), parse_size(fields[2])});
    } else if (key == "link") {
      const auto fields = split_fields(value, 6);
      plan.links.push_back(LinkFaultSpec{parse_size(fields[0]), parse_size(fields[1]),
                                         parse_number(fields[2]), parse_number(fields[3]),
                                         parse_number(fields[4]), parse_size(fields[5])});
    } else {
      MH_REQUIRE_MSG(false, "FaultPlan::deserialize: unknown token key");
    }
  }
  return plan;
}

namespace {

/// A random two-way split with both sides non-empty.
std::vector<std::uint8_t> sample_partition_groups(std::size_t parties, Rng& rng) {
  std::vector<std::uint8_t> group(parties);
  for (auto& g : group) g = rng.bernoulli(0.5) ? 1 : 0;
  // Force both sides populated (deterministically from two more draws).
  group[rng.below(parties)] = 0;
  std::size_t flip = rng.below(parties);
  if (group[flip] == 0) flip = (flip + 1) % parties;
  group[flip] = 1;
  return group;
}

void sample_partitions(FaultPlan& plan, std::size_t parties, std::size_t horizon,
                       std::size_t delta, Rng& rng) {
  // One partition in each half of the horizon keeps the intervals disjoint by
  // construction. Lengths straddle Delta: some heal within bound (observed
  // delay <= Delta), some push past it (degraded run).
  const std::size_t half = std::max<std::size_t>(horizon / 2, 2);
  const std::size_t count = 1 + rng.below(2);
  for (std::size_t i = 0; i < count && i * half + 2 < horizon; ++i) {
    PartitionSpec p;
    const std::size_t lo = i * half + 1;
    p.start = lo + rng.below(std::max<std::size_t>(half / 2, 1));
    p.heal = p.start + 1 + rng.below(2 * delta + 4);
    p.group = sample_partition_groups(parties, rng);
    plan.partitions.push_back(std::move(p));
  }
}

void sample_churn(FaultPlan& plan, std::size_t parties, std::size_t horizon, std::size_t delta,
                  Rng& rng) {
  // Up to parties/2 distinct parties churn once each: down-time in
  // [1, delta + 3] so some windows are re-sync-recoverable within bound and
  // some are not.
  const std::size_t count = 1 + rng.below(std::max<std::size_t>(parties / 2, 1));
  std::vector<std::uint8_t> used(parties, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const PartyId party = static_cast<PartyId>(rng.below(parties));
    if (used[party]) continue;
    used[party] = 1;
    CrashSpec c;
    c.party = party;
    c.crash = 1 + rng.below(std::max<std::size_t>(horizon - 1, 1));
    c.restart = c.crash + 1 + rng.below(delta + 3);
    plan.churn.push_back(c);
  }
}

void sample_links(FaultPlan& plan, std::size_t horizon, Rng& rng, bool lossy, bool async,
                  std::size_t delta) {
  LinkFaultSpec l;
  l.start = 1 + rng.below(std::max<std::size_t>(horizon / 2, 1));
  l.end = std::min(horizon + 1, l.start + 2 + rng.below(std::max<std::size_t>(horizon / 2, 1)));
  if (lossy) {
    l.drop = 0.05 + 0.25 * rng.uniform();
    l.dup = 0.10 * rng.uniform();
  }
  if (async) {
    l.extra_prob = 0.1 + 0.3 * rng.uniform();
    l.extra_max = 1 + rng.below(delta + 2);
  }
  plan.links.push_back(l);
}

}  // namespace

FaultPlan sample_fault_plan(FaultProfile profile, std::size_t parties, std::size_t horizon,
                            std::size_t delta, Rng& rng) {
  FaultPlan plan;
  if (profile == FaultProfile::None) return plan;
  plan.seed = rng();
  switch (profile) {
    case FaultProfile::None: break;
    case FaultProfile::PartitionHeal: sample_partitions(plan, parties, horizon, delta, rng); break;
    case FaultProfile::Churn: sample_churn(plan, parties, horizon, delta, rng); break;
    case FaultProfile::LossyLinks: sample_links(plan, horizon, rng, true, false, delta); break;
    case FaultProfile::Asynchrony: sample_links(plan, horizon, rng, false, true, delta); break;
    case FaultProfile::Mixed:
      sample_partitions(plan, parties, horizon, delta, rng);
      sample_churn(plan, parties, horizon, delta, rng);
      sample_links(plan, horizon, rng, true, true, delta);
      break;
  }
  plan.validate(parties, horizon);
  return plan;
}

}  // namespace mh::faults
