// Tests for the parallel experiment engine: determinism across thread counts
// (the load-bearing property), scheduling primitives, and the sharded reducer.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "analysis/sweep.hpp"
#include "sim/experiments.hpp"
#include "sim/monte_carlo.hpp"
#include "support/stats.hpp"

namespace mh {
namespace {

// ---------------------------------------------------------------------------
// SeedSequence
// ---------------------------------------------------------------------------

TEST(SeedSequence, IsAPureFunctionOfRootAndIndex) {
  const engine::SeedSequence a(42);
  const engine::SeedSequence b(42);
  for (std::uint64_t i : {0ull, 1ull, 2ull, 1000ull, 1ull << 40}) {
    EXPECT_EQ(a.derive(i), b.derive(i));
  }
}

TEST(SeedSequence, NeighbouringStreamsDecorrelate) {
  const engine::SeedSequence seq(7);
  Rng r0 = seq.stream(0);
  Rng r1 = seq.stream(1);
  // Crude but effective: the two streams should not produce equal words.
  std::size_t equal = 0;
  for (int i = 0; i < 64; ++i)
    if (r0() == r1()) ++equal;
  EXPECT_EQ(equal, 0u);
  EXPECT_NE(seq.derive(0), seq.derive(1));
  EXPECT_NE(engine::SeedSequence(1).derive(5), engine::SeedSequence(2).derive(5));
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  const std::size_t n_chunks = 1000;
  std::vector<std::atomic<int>> hits(n_chunks);
  engine::ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  pool.for_each_chunk(n_chunks, [&](std::size_t c) { ++hits[c]; });
  for (std::size_t c = 0; c < n_chunks; ++c) EXPECT_EQ(hits[c].load(), 1);
}

TEST(ThreadPool, IsReusableAcrossJobs) {
  engine::ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::size_t> total{0};
    pool.for_each_chunk(round * 17 + 1, [&](std::size_t) { ++total; });
    EXPECT_EQ(total.load(), static_cast<std::size_t>(round * 17 + 1));
  }
}

TEST(ThreadPool, EmptyJobIsANoOp) {
  engine::ThreadPool pool(2);
  pool.for_each_chunk(0, [&](std::size_t) { FAIL() << "no chunk should run"; });
}

TEST(ThreadPool, PropagatesTheFirstException) {
  engine::ThreadPool pool(4);
  EXPECT_THROW(
      pool.for_each_chunk(256,
                          [&](std::size_t c) {
                            if (c == 3) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<std::size_t> total{0};
  pool.for_each_chunk(8, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 8u);
}

// ---------------------------------------------------------------------------
// Reduce
// ---------------------------------------------------------------------------

TEST(Reduce, VectorMergeIsElementWiseAndGrows) {
  std::vector<std::size_t> into{1, 2};
  engine::Reduce::merge_into(into, std::vector<std::size_t>{10, 10, 10});
  ASSERT_EQ(into.size(), 3u);
  EXPECT_EQ(into[0], 11u);
  EXPECT_EQ(into[1], 12u);
  EXPECT_EQ(into[2], 10u);
  // Merging an empty shard (a default-constructed partial) changes nothing.
  engine::Reduce::merge_into(into, std::vector<std::size_t>{});
  EXPECT_EQ(into, (std::vector<std::size_t>{11, 12, 10}));
}

TEST(Reduce, FoldEqualsPairwiseMerges) {
  // Associativity of the reducer: fold(a, b, c) == (a + b) + c == a + (b + c),
  // for counts, histograms, and RunningStats-based tallies.
  const std::vector<std::size_t> counts{3, 5, 11};
  EXPECT_EQ(engine::Reduce::fold(counts), 19u);

  RunningStats a, b, c;
  for (double x : {1.0, 2.0}) a.add(x);
  for (double x : {10.0, 11.0, 12.0}) b.add(x);
  c.add(-4.0);

  RunningStats left = a;
  left.merge(b);
  left.merge(c);

  RunningStats bc = b;
  bc.merge(c);
  RunningStats right = a;
  right.merge(bc);

  EXPECT_EQ(left.count(), 6u);
  EXPECT_EQ(right.count(), 6u);
  EXPECT_NEAR(left.mean(), right.mean(), 1e-12);

  const RunningStats folded = engine::Reduce::fold(std::vector<RunningStats>{a, b, c});
  EXPECT_EQ(folded.count(), 6u);
  EXPECT_NEAR(folded.mean(), left.mean(), 1e-12);
}

// ---------------------------------------------------------------------------
// run_sharded
// ---------------------------------------------------------------------------

engine::EngineOptions options_with(std::size_t threads, std::uint64_t seed = 9,
                                   std::size_t chunk_size = 0) {
  engine::EngineOptions opt;
  opt.threads = threads;
  opt.seed = seed;
  opt.chunk_size = chunk_size;
  return opt;
}

TEST(RunSharded, EmptyWorkloadReturnsDefaultPartial) {
  const std::size_t count = engine::run_sharded<std::size_t>(
      0, options_with(8), [](std::uint64_t, Rng&, std::size_t&) { FAIL(); });
  EXPECT_EQ(count, 0u);
  const auto histogram = engine::run_sharded<std::vector<std::size_t>>(
      0, options_with(1), [](std::uint64_t, Rng&, std::vector<std::size_t>&) { FAIL(); });
  EXPECT_TRUE(histogram.empty());
}

TEST(RunSharded, SingleSampleRunsOnceWithStreamZero) {
  const engine::SeedSequence seq(9);
  Rng expected = seq.stream(0);
  const std::uint64_t expected_word = expected();
  for (std::size_t threads : {1u, 8u}) {
    std::size_t calls = 0;
    const std::uint64_t word = engine::run_sharded<std::uint64_t>(
        1, options_with(threads), [&](std::uint64_t index, Rng& rng, std::uint64_t& out) {
          EXPECT_EQ(index, 0u);
          ++calls;
          out += rng();
        });
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(word, expected_word);
  }
}

TEST(RunSharded, SumOfStreamsIsThreadAndChunkInvariant) {
  auto sum_with = [](std::size_t threads, std::size_t chunk_size) {
    return engine::run_sharded<std::uint64_t>(
        10'000, options_with(threads, 123, chunk_size),
        [](std::uint64_t, Rng& rng, std::uint64_t& acc) { acc += rng() >> 32; });
  };
  const std::uint64_t serial = sum_with(1, 0);
  EXPECT_EQ(sum_with(2, 0), serial);
  EXPECT_EQ(sum_with(8, 0), serial);
  // Chunk geometry is part of the plan, and the plan is a function of n only;
  // an explicit chunk_size of 1 must still visit the same streams.
  EXPECT_EQ(sum_with(8, 1), serial);
  EXPECT_EQ(sum_with(3, 7), serial);
}

// ---------------------------------------------------------------------------
// Thread-count invariance of every estimator and experiment driver
// ---------------------------------------------------------------------------

McOptions mc_options(std::size_t threads) {
  McOptions opt;
  opt.samples = 4'000;
  opt.seed = 2024;
  opt.horizon_slack = 128;
  opt.threads = threads;
  return opt;
}

void expect_same_counts(const Proportion& a, const Proportion& b) {
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_DOUBLE_EQ(a.estimate, b.estimate);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(ThreadInvariance, AllFiveMcEstimators) {
  const SymbolLaw law = bernoulli_condition(0.3, 0.4);
  const TetraLaw tetra = theorem7_law(0.5, 0.2, 0.2);
  for (std::size_t threads : {2u, 8u}) {
    expect_same_counts(mc_settlement_violation(law, 30, mc_options(1)),
                       mc_settlement_violation(law, 30, mc_options(threads)));
    expect_same_counts(mc_no_unique_catalan(law, 20, mc_options(1)),
                       mc_no_unique_catalan(law, 20, mc_options(threads)));
    expect_same_counts(mc_no_consecutive_catalan(law, 20, mc_options(1)),
                       mc_no_consecutive_catalan(law, 20, mc_options(threads)));
    expect_same_counts(mc_delta_settlement_failure(tetra, 2, 12, mc_options(1)),
                       mc_delta_settlement_failure(tetra, 2, 12, mc_options(threads)));
    expect_same_counts(mc_cp_window_failure(law, 60, 15, mc_options(1)),
                       mc_cp_window_failure(law, 60, 15, mc_options(threads)));
  }
}

TEST(ThreadInvariance, ProtocolExperimentDrivers) {
  const SymbolLaw law{0.40, 0.25, 0.35};
  const TetraLaw tetra = theorem7_law(0.6, 0.2, 0.2);
  ProtocolExperimentConfig config;
  config.horizon = 60;
  config.runs = 40;
  config.seed = 99;

  auto run_sync = [&](std::size_t threads) {
    config.threads = threads;
    return run_protocol_experiment(law, AttackKind::PrivateChain, 1, 10, config);
  };
  auto run_delta = [&](std::size_t threads) {
    config.threads = threads;
    ProtocolExperimentConfig delta_config = config;
    delta_config.delta = 2;
    return run_protocol_experiment_delta(tetra, AttackKind::Balance, 1, 10, delta_config);
  };

  const ProtocolExperimentResult sync1 = run_sync(1);
  const ProtocolExperimentResult delta1 = run_delta(1);
  for (std::size_t threads : {2u, 8u}) {
    const ProtocolExperimentResult sync_n = run_sync(threads);
    expect_same_counts(sync1.settlement_violations, sync_n.settlement_violations);
    expect_same_counts(sync1.cp_violations, sync_n.cp_violations);
    EXPECT_DOUBLE_EQ(sync1.mean_slot_divergence, sync_n.mean_slot_divergence);
    EXPECT_DOUBLE_EQ(sync1.mean_chain_length, sync_n.mean_chain_length);

    const ProtocolExperimentResult delta_n = run_delta(threads);
    expect_same_counts(delta1.settlement_violations, delta_n.settlement_violations);
    expect_same_counts(delta1.cp_violations, delta_n.cp_violations);
    EXPECT_DOUBLE_EQ(delta1.mean_slot_divergence, delta_n.mean_slot_divergence);
    EXPECT_DOUBLE_EQ(delta1.mean_chain_length, delta_n.mean_chain_length);
  }
}

// ---------------------------------------------------------------------------
// Thread-count invariance of the analysis-layer sweeps (each cell is an
// exact DP pass writing its preassigned slot; the fan must not matter)
// ---------------------------------------------------------------------------

TEST(ThreadInvariance, AnalysisSweepsBitIdentical) {
  const std::vector<SymbolLaw> laws = {bernoulli_condition(0.3, 0.4), table1_law(0.2, 0.5),
                                       SymbolLaw{0.40, 0.25, 0.35}};
  SweepOptions serial;
  serial.threads = 1;
  const std::vector<SettlementSeries> series1 = sweep_settlement_series(laws, 40, serial);

  for (const std::size_t threads : {2u, 8u}) {
    SweepOptions opt;
    opt.threads = threads;
    const std::vector<SettlementSeries> series = sweep_settlement_series(laws, 40, opt);
    ASSERT_EQ(series.size(), series1.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
      EXPECT_EQ(series[i].violation, series1[i].violation) << "law " << i;
      EXPECT_EQ(series[i].always_violating, series1[i].always_violating);
      EXPECT_EQ(series[i].never_violating, series1[i].never_violating);
    }
  }
}

}  // namespace
}  // namespace mh
