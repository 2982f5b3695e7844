// Sharded reduction: how per-chunk partial results combine into the final
// statistic. Partials are always folded in ascending chunk order, so the
// reduction is a pure function of (seed, n_samples) — thread count and
// scheduling cannot perturb even floating-point results.
#pragma once

#include <cstddef>
#include <vector>

namespace mh::engine {

/// A shard partial that can absorb another shard's result without
/// double-counting (RunningStats, experiment tallies, ...).
template <typename T>
concept Mergeable = requires(T into, const T& from) { into.merge(from); };

struct Reduce {
  static void merge_into(std::size_t& into, std::size_t from) noexcept { into += from; }
  static void merge_into(double& into, double from) noexcept { into += from; }

  /// Element-wise vector merge (histograms). `into` grows as needed, so a
  /// default-constructed (empty) shard is an absorbing zero.
  template <typename T>
  static void merge_into(std::vector<T>& into, const std::vector<T>& from) {
    if (into.size() < from.size()) into.resize(from.size());
    for (std::size_t i = 0; i < from.size(); ++i) merge_into(into[i], from[i]);
  }

  template <Mergeable T>
  static void merge_into(T& into, const T& from) {
    into.merge(from);
  }

  /// Fold partials into a default-constructed accumulator, in index order.
  template <typename T>
  static T fold(const std::vector<T>& partials) {
    T out{};
    for (const T& partial : partials) merge_into(out, partial);
    return out;
  }
};

}  // namespace mh::engine
