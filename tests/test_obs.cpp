// The observability layer's design contract (src/obs):
//
//   * shard merges are thread-count invariant — counters / histograms sum,
//     gauges take the max, so {1, 2, 8} recording threads produce identical
//     merged values;
//   * histogram buckets are log base-2 with exact boundaries (bucket 0 = {0},
//     bucket i >= 1 = [2^(i-1), 2^i)) and exact count/sum/min/max;
//   * the hooks and ScopedTimer record only while obs::enabled() is on, and
//     the library's hooks are in every build;
//   * the registry rejects a name registered under two different kinds and
//     deduplicates same-kind re-registration to one instrument;
//   * the golden pin: enabling metric recording changes NO result bit — the
//     pinned transport digests and the settlement-DP series are identical
//     with recording on and off.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "chars/bernoulli.hpp"
#include "core/exact_dp.hpp"
#include "obs/obs.hpp"
#include "protocol/transport_probe.hpp"

namespace {

/// Restores the runtime recording switch on scope exit; tests flip it freely.
class EnabledGuard {
 public:
  EnabledGuard() : was_(mh::obs::enabled()) {}
  ~EnabledGuard() { mh::obs::set_enabled(was_); }

 private:
  bool was_;
};

void record_from_threads(std::size_t n_threads, const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  for (std::size_t t = 0; t < n_threads; ++t) threads.emplace_back(body, t);
  for (std::thread& th : threads) th.join();
}

TEST(ObsMetrics, CounterMergeIsThreadCountInvariant) {
  for (const std::size_t n_threads : {1u, 2u, 8u}) {
    mh::obs::Counter counter;
    record_from_threads(n_threads, [&](std::size_t) {
      for (int i = 0; i < 1000; ++i) counter.add();
      counter.add(5);
    });
    EXPECT_EQ(counter.value(), n_threads * 1005u) << n_threads << " threads";
  }
}

TEST(ObsMetrics, HistogramMergeIsThreadCountInvariant) {
  // Every thread records the identical sample set, so count / sum / buckets
  // scale linearly with the thread count and min / max are invariant.
  const std::array<std::uint64_t, 6> samples{0, 1, 3, 8, 100, 1 << 20};
  for (const std::size_t n_threads : {1u, 2u, 8u}) {
    mh::obs::Histogram hist;
    record_from_threads(n_threads, [&](std::size_t) {
      for (const std::uint64_t v : samples) hist.record(v);
    });
    EXPECT_EQ(hist.count(), n_threads * samples.size());
    EXPECT_EQ(hist.sum(), n_threads * (0 + 1 + 3 + 8 + 100 + (1u << 20)));
    EXPECT_EQ(hist.min(), 0u);
    EXPECT_EQ(hist.max(), 1u << 20);
    for (const std::uint64_t v : samples)
      EXPECT_GE(hist.bucket_count(mh::obs::Histogram::bucket_of(v)), n_threads)
          << "sample " << v;
  }
}

TEST(ObsMetrics, GaugeMergesToMaxAcrossThreads) {
  mh::obs::Gauge gauge;
  EXPECT_FALSE(gauge.ever_set());
  EXPECT_EQ(gauge.value(), 0);
  record_from_threads(8, [&](std::size_t t) { gauge.set(static_cast<std::int64_t>(t * 10)); });
  EXPECT_TRUE(gauge.ever_set());
  EXPECT_EQ(gauge.value(), 70);  // max over the per-thread levels
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  using H = mh::obs::Histogram;
  EXPECT_EQ(H::bucket_of(0), 0u);
  EXPECT_EQ(H::bucket_of(1), 1u);
  EXPECT_EQ(H::bucket_of(2), 2u);
  EXPECT_EQ(H::bucket_of(3), 2u);  // still inside [2, 4)
  EXPECT_EQ(H::bucket_of(4), 3u);
  EXPECT_EQ(H::bucket_of(7), 3u);
  EXPECT_EQ(H::bucket_of(8), 4u);
  EXPECT_EQ(H::bucket_of((1u << 20) - 1), 20u);
  EXPECT_EQ(H::bucket_of(1u << 20), 21u);
  // The top bucket absorbs everything past 2^62.
  EXPECT_EQ(H::bucket_of(~std::uint64_t{0}), H::kBuckets - 1);

  EXPECT_EQ(H::bucket_lo(0), 0u);
  EXPECT_EQ(H::bucket_lo(1), 1u);
  EXPECT_EQ(H::bucket_lo(2), 2u);
  EXPECT_EQ(H::bucket_lo(3), 4u);
  EXPECT_EQ(H::bucket_lo(21), 1u << 20);

  // bucket_lo(bucket_of(v)) <= v for every v >= lower boundary probes.
  for (const std::uint64_t v : {1u, 2u, 3u, 5u, 16u, 1000u, (1u << 30)}) {
    const std::size_t b = H::bucket_of(v);
    EXPECT_LE(H::bucket_lo(b), v);
    if (b + 1 < H::kBuckets) {
      EXPECT_GT(H::bucket_lo(b + 1), v);
    }
  }
}

TEST(ObsTimer, ScopedTimerFeedsRegistryHistogramOnlyWhileEnabled) {
  EnabledGuard guard;
  mh::obs::Histogram& hist = mh::obs::Registry::global().histogram("test.obs.timer_ns");
  const std::uint64_t before = hist.count();
  mh::obs::set_enabled(false);
  { mh::obs::ScopedTimer timer("test.obs.timer_ns"); }
  EXPECT_EQ(hist.count(), before);
  mh::obs::set_enabled(true);
  { mh::obs::ScopedTimer timer("test.obs.timer_ns"); }
  EXPECT_EQ(hist.count(), before + 1);
}

TEST(ObsHooks, RecordOnlyWhileEnabledAndSkipArgumentsWhenOff) {
  EnabledGuard guard;
  mh::obs::Counter& counter = mh::obs::Registry::global().counter("test.obs.hook_count");
  const std::uint64_t before = counter.value();
  int evaluated = 0;
  const auto hook = [&] { MH_OBS_COUNT("test.obs.hook_count", ++evaluated); };
  mh::obs::set_enabled(false);
  hook();
  EXPECT_EQ(counter.value(), before);
  EXPECT_EQ(evaluated, 0);  // a disabled hook never evaluates its argument
  mh::obs::set_enabled(true);
  hook();
  EXPECT_EQ(counter.value(), before + 1);
  EXPECT_EQ(evaluated, 1);
}

// The library's own hooks are compiled into every build: switching recording
// on is enough to see the protocol and DP layers report.
TEST(ObsHooks, LibraryLayersRecordWhenSwitchedOn) {
  EnabledGuard guard;
  mh::obs::Registry& registry = mh::obs::Registry::global();
  mh::obs::Counter& slots = registry.counter("protocol.sim.slots");
  mh::obs::Counter& cells = registry.counter("dp.cells_touched");
  const mh::SymbolLaw law = mh::bernoulli_condition(0.3, 0.3);

  mh::obs::set_enabled(false);
  const std::uint64_t slots_before = slots.value();
  const std::uint64_t cells_before = cells.value();
  (void)mh::balance_transport_probe(4, 32, 7);
  (void)mh::exact_settlement_series(law, 10);
  EXPECT_EQ(slots.value(), slots_before);
  EXPECT_EQ(cells.value(), cells_before);

  mh::obs::set_enabled(true);
  (void)mh::balance_transport_probe(4, 32, 7);
  (void)mh::exact_settlement_series(law, 10);
  EXPECT_EQ(slots.value(), slots_before + 32);
  EXPECT_GT(cells.value(), cells_before);
}

TEST(ObsRegistry, SameNameSameKindIsOneInstrument) {
  mh::obs::Registry& registry = mh::obs::Registry::global();
  mh::obs::Counter& a = registry.counter("test.obs.dedup");
  mh::obs::Counter& b = registry.counter("test.obs.dedup");
  EXPECT_EQ(&a, &b);
}

TEST(ObsRegistry, NameCollisionAcrossKindsThrows) {
  mh::obs::Registry& registry = mh::obs::Registry::global();
  registry.counter("test.obs.collision");
  EXPECT_THROW(registry.gauge("test.obs.collision"), std::logic_error);
  EXPECT_THROW(registry.histogram("test.obs.collision"), std::logic_error);
}

TEST(ObsRegistry, SnapshotMergesRegisteredInstruments) {
  mh::obs::Registry& registry = mh::obs::Registry::global();
  mh::obs::Counter& counter = registry.counter("test.obs.snapshot_counter");
  const std::uint64_t before = counter.value();
  counter.add(42);
  const mh::obs::Snapshot snapshot = registry.snapshot();
  bool found = false;
  for (const mh::obs::CounterSnapshot& c : snapshot.counters)
    if (c.name == "test.obs.snapshot_counter") {
      found = true;
      EXPECT_EQ(c.value, before + 42);
    }
  EXPECT_TRUE(found);
}

// The golden pin: switching metric recording on must not move a single bit of
// any simulation or analytic result. The transport probes cover the protocol
// stack (network / node / tree / sim hooks); the settlement series covers the
// banded-DP kernel hooks.
TEST(ObsGoldenPin, MetricsOnEqualsMetricsOffAndMatchesPin) {
  EnabledGuard guard;

  mh::obs::set_enabled(false);
  const mh::TransportProbeOutcome balance_off = mh::balance_transport_probe(
      mh::kBalanceProbePinParties, mh::kBalanceProbePinHorizon, mh::kBalanceProbePinSeed);
  const mh::TransportProbeOutcome randomized_off = mh::randomized_transport_probe(
      mh::kRandomizedProbePinParties, mh::kRandomizedProbePinHorizon,
      mh::kRandomizedProbePinSeed, mh::kRandomizedProbePinDelta);

  mh::obs::set_enabled(true);
  const mh::TransportProbeOutcome balance_on = mh::balance_transport_probe(
      mh::kBalanceProbePinParties, mh::kBalanceProbePinHorizon, mh::kBalanceProbePinSeed);
  const mh::TransportProbeOutcome randomized_on = mh::randomized_transport_probe(
      mh::kRandomizedProbePinParties, mh::kRandomizedProbePinHorizon,
      mh::kRandomizedProbePinSeed, mh::kRandomizedProbePinDelta);

  EXPECT_EQ(balance_off.digest, mh::kBalanceProbePinDigest);
  EXPECT_EQ(balance_on.digest, mh::kBalanceProbePinDigest);
  EXPECT_EQ(randomized_off.digest, mh::kRandomizedProbePinDigest);
  EXPECT_EQ(randomized_on.digest, mh::kRandomizedProbePinDigest);
  EXPECT_EQ(balance_on.blocks, balance_off.blocks);
  EXPECT_EQ(randomized_on.divergence, randomized_off.divergence);
}

TEST(ObsGoldenPin, SettlementSeriesBitIdenticalWithMetricsOn) {
  EnabledGuard guard;
  const mh::SymbolLaw law = mh::bernoulli_condition(0.3, 0.3);

  mh::obs::set_enabled(false);
  const mh::SettlementSeries off = mh::exact_settlement_series(law, 40);
  mh::obs::set_enabled(true);
  const mh::SettlementSeries on = mh::exact_settlement_series(law, 40);

  ASSERT_EQ(on.violation.size(), off.violation.size());
  for (std::size_t k = 0; k < off.violation.size(); ++k)
    EXPECT_EQ(on.violation[k], off.violation[k]) << "k = " << k;  // bitwise, not approx
}

}  // namespace
