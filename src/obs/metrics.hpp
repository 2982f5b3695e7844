// Deterministic metrics: a Registry of named Counter / Gauge / Histogram
// instruments backed by per-thread shards.
//
// Design contract (pinned by tests/test_obs.cpp):
//
//   * recording is wait-free on the hot path — each thread writes a relaxed
//     atomic in its own cache-line-padded shard, so enabling metrics never
//     takes a lock, never allocates, and never touches an engine::SeedSequence
//     stream: simulation / oracle / DP results are bit-identical with metrics
//     on or off, for any thread count;
//   * shard merges are commutative integer sums (max for gauges), so snapshot
//     values are thread-count invariant; the registry iterates instruments in
//     registration order and the exporters additionally sort by name, so the
//     emitted artifact is stable run to run;
//   * histograms are log-bucketed base 2: bucket 0 holds exact zeros, bucket
//     i >= 1 holds values in [2^(i-1), 2^i).
//
// The call sites across engine / protocol / core / oracle (obs/obs.hpp) are
// in every build and record only while the run-time switch obs::enabled()
// is on.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mh::obs {

namespace detail {
/// The switch: -1 until the first read resolves it from MH_OBS, then 0 or 1.
/// Constant-initialized, so it is safe to read during static initialization.
inline std::atomic<int> enabled_state{-1};
bool resolve_enabled() noexcept;
}  // namespace detail

/// Runtime switch; instruments record only while true. Initialized from the
/// MH_OBS environment variable ("1"/"on"/"true"), default off. Inline so a
/// switched-off hook costs one relaxed load and a branch, not a call.
inline bool enabled() noexcept {
  const int state = detail::enabled_state.load(std::memory_order_relaxed);
  return state < 0 ? detail::resolve_enabled() : state != 0;
}
void set_enabled(bool on) noexcept;

/// Stable small index for the calling thread, used to pick a shard. Assigned
/// on first use; indices wrap modulo the shard count (shards are shared, not
/// owned, so wrapping stays correct — sums are commutative).
std::size_t thread_shard_index() noexcept;

/// Shards per instrument. Plenty for the engine's pool sizes; threads beyond
/// this share shards without affecting merged values.
inline constexpr std::size_t kShards = 32;

namespace detail {
struct alignas(64) ShardCell {
  std::atomic<std::uint64_t> v{0};
};
void atomic_store_min(std::atomic<std::uint64_t>& a, std::uint64_t v) noexcept;
void atomic_store_max(std::atomic<std::uint64_t>& a, std::uint64_t v) noexcept;
}  // namespace detail

/// Monotone event count. Merge = sum over shards.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[thread_shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept;

 private:
  std::array<detail::ShardCell, kShards> shards_{};
};

/// Last-written level per shard; merge = MAX over shards that ever recorded
/// (deterministic regardless of which thread recorded which sample — a
/// high-water mark, which is what queue depths and band widths want).
class Gauge {
 public:
  void set(std::int64_t v) noexcept;
  [[nodiscard]] std::int64_t value() const noexcept;  ///< 0 when never set
  [[nodiscard]] bool ever_set() const noexcept;

 private:
  struct alignas(64) Slot {
    std::atomic<std::int64_t> v{0};
    std::atomic<bool> set{false};
  };
  std::array<Slot, kShards> slots_{};
};

/// Log-bucketed (base-2) histogram of unsigned samples with exact count /
/// sum / min / max side channels. Merge = per-bucket sums.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  /// Bucket 0 = {0}; bucket i >= 1 covers [2^(i-1), 2^i).
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept;
  /// Inclusive lower bound of a bucket (0, 1, 2, 4, 8, ...).
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t bucket) noexcept;

  void record(std::uint64_t v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] std::uint64_t sum() const noexcept;
  [[nodiscard]] std::uint64_t min() const noexcept;  ///< 0 when empty
  [[nodiscard]] std::uint64_t max() const noexcept;  ///< 0 when empty
  [[nodiscard]] std::uint64_t bucket_count(std::size_t bucket) const noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  };
  std::array<Shard, kShards> shards_{};
};

/// Monotonic wall clock in nanoseconds (steady_clock).
std::uint64_t now_ns() noexcept;

/// Records the wall-clock duration (ns) of its scope into the histogram of
/// the same name in Registry::global(). Inert — no clock read, no lookup —
/// unless obs::enabled() was true at construction. Timing is
/// nondeterministic: duration histograms feed dashboards and bench
/// artifacts, never results.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_ = nullptr;  ///< null when inert
  std::uint64_t begin_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Registry: named instruments with stable addresses, merged snapshots.
// ---------------------------------------------------------------------------

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
  bool ever_set = false;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};

  /// Mean sample, 0 when empty.
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// A merged, point-in-time view of every registered instrument, each kind in
/// its registration order.
struct Snapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

class Registry {
 public:
  /// The process-wide registry every MH_OBS_* hook records into.
  static Registry& global();

  /// Look up or create. Re-registering an existing name with the SAME kind
  /// returns the existing instrument; registering it with a DIFFERENT kind
  /// throws std::logic_error (name collisions are always a bug).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Merged values of every instrument, each kind in registration order.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct Entry {
    MetricKind kind;
    std::size_t slot;  ///< index into the kind-specific vector
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> by_name_;
  // Deques-of-unique_ptr semantics via vector<unique_ptr>: stable addresses.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
};

}  // namespace mh::obs
