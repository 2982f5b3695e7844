// Declarative fault plans: the seeded, deterministic description of every
// perturbation a faulted execution suffers.
//
// A FaultPlan is pure data — slot intervals and probabilities — and every
// random draw it induces (link drops, duplications, extra delays, sampled
// plans themselves) is counter-based over engine::SeedSequence, so a faulted
// execution is a pure function of (plan, execution seed) and stays
// bit-identical across thread counts and query orders.
//
// Fault taxonomy (each maps to one axiom boundary, see EXPERIMENTS.md E16):
//
//   * Partition  — honest<->honest links across two groups are severed for
//                  [start, heal); at `heal` the transport re-syncs both sides
//                  from the public view. Stresses A4_Delta: a partition of
//                  length L realizes honest delivery delays of up to L.
//   * Churn      — a party crashes at `crash` (volatile state lost: delivery
//                  queue, chain-sync coverage, orphan buffer) and restarts
//                  at `restart` from its persisted tree, re-synced on arrival.
//                  Crashed leaders skip their leaderships (the characteristic
//                  string loses those symbols — the "effective schedule").
//   * LinkFault  — over [start, end): each honest chain-ship to a recipient
//                  is independently dropped / duplicated / delayed beyond the
//                  adversarial hold-back by up to `extra_max` extra slots
//                  (temporary asynchrony past the configured Delta).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "protocol/block.hpp"
#include "support/random.hpp"

namespace mh::faults {

/// Two-group split severing cross-group honest links for slots [start, heal).
struct PartitionSpec {
  std::size_t start = 0;
  std::size_t heal = 0;             ///< may exceed the horizon: never heals in-run
  std::vector<std::uint8_t> group;  ///< group[p] in {0, 1}, size == parties

  friend bool operator==(const PartitionSpec&, const PartitionSpec&) = default;
};

/// Party `party` is down for slots [crash, restart).
struct CrashSpec {
  PartyId party = 0;
  std::size_t crash = 0;
  std::size_t restart = 0;  ///< may exceed the horizon: never restarts in-run

  friend bool operator==(const CrashSpec&, const CrashSpec&) = default;
};

/// Per-link loss window over slots [start, end).
struct LinkFaultSpec {
  std::size_t start = 0;
  std::size_t end = 0;
  double drop = 0.0;        ///< P(chain-ship to a recipient is lost)
  double dup = 0.0;         ///< P(the shipped block is duplicated in-bucket)
  double extra_prob = 0.0;  ///< P(extra delay beyond the adversarial hold-back)
  std::size_t extra_max = 0;  ///< extra delay drawn uniformly from [1, extra_max]

  friend bool operator==(const LinkFaultSpec&, const LinkFaultSpec&) = default;
};

/// Named generation recipes for sampled plans (the scenario-matrix fault band).
enum class FaultProfile : std::uint8_t {
  None = 0,       ///< empty plan: the un-faulted baseline
  PartitionHeal,  ///< partitions that heal, some within Delta and some beyond
  Churn,          ///< crash/restart cycles with bounded down-time
  LossyLinks,     ///< per-link drop + duplication windows
  Asynchrony,     ///< bounded extra delay beyond Delta
  Mixed,          ///< all of the above at once
};

const char* fault_profile_name(FaultProfile p) noexcept;

struct FaultPlan {
  std::uint64_t seed = 0;  ///< root of the counter-based link-draw streams
  std::vector<PartitionSpec> partitions;
  std::vector<CrashSpec> churn;
  std::vector<LinkFaultSpec> links;

  [[nodiscard]] bool empty() const noexcept {
    return partitions.empty() && churn.empty() && links.empty();
  }

  /// Throws std::invalid_argument unless the plan is well-formed for
  /// `parties` nodes over slots 1..horizon: partition groups sized `parties`
  /// with both sides populated and pairwise non-overlapping actives; churn
  /// windows per-party non-overlapping with restart > crash >= 1; link
  /// windows with end > start and probabilities in [0, 1].
  void validate(std::size_t parties, std::size_t horizon) const;

  /// Compact single-line text form (the minimal-reproducer payload).
  [[nodiscard]] std::string serialize() const;
  /// Inverse of serialize(); throws std::invalid_argument on malformed input.
  static FaultPlan deserialize(std::string_view text);

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Draws a plan of the given profile, scaled to (parties, horizon, delta).
/// Pure in (profile, parties, horizon, delta, rng state); FaultProfile::None
/// yields the empty plan without consuming any randomness.
FaultPlan sample_fault_plan(FaultProfile profile, std::size_t parties, std::size_t horizon,
                            std::size_t delta, Rng& rng);

}  // namespace mh::faults
