#include "obs/metrics.hpp"

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "support/env.hpp"

namespace mh::obs {

namespace {

// The shared strict parser (support/env.hpp) replaces the old local
// accept-list. enabled() is noexcept and runs during static init, so a
// malformed MH_OBS cannot propagate: report it and abort instead of
// silently recording nothing.
bool env_truthy(const char* name) noexcept {
  try {
    return env::flag(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mh: %s\n", e.what());
    std::abort();
  }
}

}  // namespace

bool detail::resolve_enabled() noexcept {
  const int from_env = env_truthy("MH_OBS") ? 1 : 0;
  // Only the unresolved state is replaced: a racing set_enabled() wins.
  int state = -1;
  if (enabled_state.compare_exchange_strong(state, from_env, std::memory_order_relaxed))
    return from_env != 0;
  return state != 0;
}

void set_enabled(bool on) noexcept {
  (void)enabled();  // parse MH_OBS first: a malformed value aborts either way
  detail::enabled_state.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::size_t thread_shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx = next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return idx;
}

namespace detail {

void atomic_store_min(std::atomic<std::uint64_t>& a, std::uint64_t v) noexcept {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_store_max(std::atomic<std::uint64_t>& a, std::uint64_t v) noexcept {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const detail::ShardCell& s : shards_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (detail::ShardCell& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

void Gauge::set(std::int64_t v) noexcept {
  Slot& slot = slots_[thread_shard_index()];
  slot.v.store(v, std::memory_order_relaxed);
  slot.set.store(true, std::memory_order_relaxed);
}

std::int64_t Gauge::value() const noexcept {
  std::int64_t best = 0;
  bool any = false;
  for (const Slot& slot : slots_) {
    if (!slot.set.load(std::memory_order_relaxed)) continue;
    const std::int64_t v = slot.v.load(std::memory_order_relaxed);
    best = any ? (v > best ? v : best) : v;
    any = true;
  }
  return best;
}

bool Gauge::ever_set() const noexcept {
  for (const Slot& slot : slots_)
    if (slot.set.load(std::memory_order_relaxed)) return true;
  return false;
}

void Gauge::reset() noexcept {
  for (Slot& slot : slots_) {
    slot.v.store(0, std::memory_order_relaxed);
    slot.set.store(false, std::memory_order_relaxed);
  }
}

std::size_t Histogram::bucket_of(std::uint64_t v) noexcept {
  if (v == 0) return 0;
  const std::size_t b = static_cast<std::size_t>(std::bit_width(v));
  return b < kBuckets ? b : kBuckets - 1;
}

std::uint64_t Histogram::bucket_lo(std::size_t bucket) noexcept {
  return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
}

void Histogram::record(std::uint64_t v) noexcept {
  Shard& shard = shards_[thread_shard_index()];
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(v, std::memory_order_relaxed);
  detail::atomic_store_min(shard.min, v);
  detail::atomic_store_max(shard.max, v);
  shard.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.count.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Histogram::sum() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.sum.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Histogram::min() const noexcept {
  std::uint64_t best = ~std::uint64_t{0};
  bool any = false;
  for (const Shard& s : shards_) {
    if (s.count.load(std::memory_order_relaxed) == 0) continue;
    const std::uint64_t v = s.min.load(std::memory_order_relaxed);
    best = any && best < v ? best : v;
    any = true;
  }
  return any ? best : 0;
}

std::uint64_t Histogram::max() const noexcept {
  std::uint64_t best = 0;
  for (const Shard& s : shards_) {
    const std::uint64_t v = s.max.load(std::memory_order_relaxed);
    best = v > best ? v : best;
  }
  return best;
}

std::uint64_t Histogram::bucket_count(std::size_t bucket) const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.buckets[bucket].load(std::memory_order_relaxed);
  return total;
}

void Histogram::reset() noexcept {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(~std::uint64_t{0}, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

namespace {
[[noreturn]] void kind_collision(std::string_view name) {
  throw std::logic_error("obs::Registry: metric name registered twice with different kinds: " +
                         std::string(name));
}
}  // namespace

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    if (it->second.kind != MetricKind::Counter) kind_collision(name);
    return *counters_[it->second.slot].second;
  }
  counters_.emplace_back(std::string(name), std::make_unique<Counter>());
  by_name_.emplace(std::string(name), Entry{MetricKind::Counter, counters_.size() - 1});
  return *counters_.back().second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    if (it->second.kind != MetricKind::Gauge) kind_collision(name);
    return *gauges_[it->second.slot].second;
  }
  gauges_.emplace_back(std::string(name), std::make_unique<Gauge>());
  by_name_.emplace(std::string(name), Entry{MetricKind::Gauge, gauges_.size() - 1});
  return *gauges_.back().second;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    if (it->second.kind != MetricKind::Histogram) kind_collision(name);
    return *histograms_[it->second.slot].second;
  }
  histograms_.emplace_back(std::string(name), std::make_unique<Histogram>());
  by_name_.emplace(std::string(name), Entry{MetricKind::Histogram, histograms_.size() - 1});
  return *histograms_.back().second;
}

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.push_back({name, c->value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    snap.gauges.push_back({name, g->value(), g->ever_set()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.min = h->min();
    hs.max = h->max();
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) hs.buckets[b] = h->bucket_count(b);
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::size_t Registry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return by_name_.size();
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ScopedTimer::ScopedTimer(const char* name) {
  if (!enabled()) return;
  hist_ = &Registry::global().histogram(name);
  begin_ns_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
  if (hist_ != nullptr) hist_->record(now_ns() - begin_ns_);
}

}  // namespace mh::obs
