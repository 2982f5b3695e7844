// Timing decorators for the two interfaces the slot loop calls through:
// ScheduleSource (leader lookups, the per-receive eligibility check, epoch
// advance) and Adversary (the per-slot hook, delay choice, tie-breaking).
// Both forward every call unchanged, so an execution driven through them is
// the same execution; the traced runs check that with a digest guard.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common.hpp"
#include "protocol/leader.hpp"
#include "protocol/simulation.hpp"

namespace perfbench {

/// Time spent in `calls` calls of one layer.
struct SpanTotal {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;

  SpanTotal& operator+=(const SpanTotal& other) {
    ns += other.ns;
    calls += other.calls;
    return *this;
  }
  [[nodiscard]] double ns_per_call() const {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

class TimedSchedule final : public mh::ScheduleSource {
 public:
  explicit TimedSchedule(const mh::ScheduleSource& inner) : inner_(inner) {}

  [[nodiscard]] std::size_t horizon() const noexcept override { return inner_.horizon(); }
  [[nodiscard]] std::size_t honest_parties() const noexcept override {
    return inner_.honest_parties();
  }
  [[nodiscard]] const mh::SlotLeaders& leaders(std::size_t slot) const override {
    return inner_.leaders(slot);
  }
  [[nodiscard]] bool eligible(mh::PartyId party, std::size_t slot) const override {
    if ((eligible_calls_++ % kSampleStride) == 0) samples_.emplace_back(party, slot);
    return inner_.eligible(party, slot);
  }
  void advance_to(std::size_t slot, const mh::BlockTree& public_view) const override {
    const Clock::time_point start = Clock::now();
    inner_.advance_to(slot, public_view);
    advance_ += SpanTotal{ns_since(start), 1};
  }

  [[nodiscard]] std::uint64_t eligible_calls() const noexcept { return eligible_calls_; }
  [[nodiscard]] const SpanTotal& advance() const noexcept { return advance_; }

  /// The cost of eligible() without the cost of timing it: a call is a few
  /// nanoseconds, below one clock read, so the sampled queries (one in
  /// kSampleStride, in call order) are replayed `repeats` times against the
  /// wrapped schedule inside a single span.
  [[nodiscard]] SpanTotal replay_sampled_eligible(std::size_t repeats) const {
    std::uint64_t admitted = 0;
    const Clock::time_point start = Clock::now();
    for (std::size_t r = 0; r < repeats; ++r)
      for (const auto& [party, slot] : samples_) admitted += inner_.eligible(party, slot) ? 1 : 0;
    const SpanTotal total{ns_since(start), repeats * samples_.size()};
    replay_sink_ += admitted;
    return total;
  }

 private:
  static constexpr std::uint64_t kSampleStride = 16;

  const mh::ScheduleSource& inner_;
  // The slot loop is serial and one decorator serves one execution, so plain
  // counters suffice (queries are const, hence mutable).
  mutable std::uint64_t eligible_calls_ = 0;
  mutable std::vector<std::pair<mh::PartyId, std::size_t>> samples_;
  mutable std::uint64_t replay_sink_ = 0;  ///< keeps the replayed calls observable
  mutable SpanTotal advance_;
};

class TimedAdversary final : public mh::Adversary {
 public:
  explicit TimedAdversary(mh::Adversary& inner) : inner_(inner) {}

  void begin(mh::Simulation& sim) override {
    const Clock::time_point start = Clock::now();
    inner_.begin(sim);
    add(start);
  }
  void on_slot_begin(std::size_t slot, mh::Simulation& sim) override {
    const Clock::time_point start = Clock::now();
    inner_.on_slot_begin(slot, sim);
    add(start);
  }
  std::vector<std::size_t> delivery_delays(const mh::Block& block, std::size_t slot,
                                           mh::Simulation& sim) override {
    const Clock::time_point start = Clock::now();
    std::vector<std::size_t> delays = inner_.delivery_delays(block, slot, sim);
    add(start);
    return delays;
  }
  mh::BlockHash break_tie(mh::PartyId node, const std::vector<mh::BlockHash>& candidates,
                          mh::Simulation& sim) override {
    const Clock::time_point start = Clock::now();
    const mh::BlockHash head = inner_.break_tie(node, candidates, sim);
    add(start);
    return head;
  }

  [[nodiscard]] const SpanTotal& total() const noexcept { return total_; }

 private:
  void add(Clock::time_point start) { total_ += SpanTotal{ns_since(start), 1}; }

  mh::Adversary& inner_;
  SpanTotal total_;
};

}  // namespace perfbench
