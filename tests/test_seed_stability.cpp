// Golden seed-stability pins. The engine's counter-based SeedSequence is the
// root of every experiment's reproducibility: a refactor that changes its
// derivation (or the downstream Rng expansion, schedule sampling, or
// simulator consumption order) would silently shift every Monte-Carlo number
// in the repo. These tests pin
//
//   * the derived seeds and first 8 draws of streams {0, 1, 17} at root 42;
//   * the keyed derivation of every StreamDomain at root 42;
//   * the first-execution verdict code of every scenario-matrix cell at the
//     default matrix seed,
//
// so any such drift fails loudly here instead of quietly invalidating
// EXPERIMENTS.md. If a change is *intentional* (a new RNG, a new derivation),
// regenerate the constants and say so in the commit.
#include <gtest/gtest.h>

#include <cstdint>

#include "checkers/first_run_codes.hpp"
#include "engine/seed_sequence.hpp"
#include "oracle/scenario.hpp"

namespace mh {
namespace {

struct GoldenStream {
  std::uint64_t index;
  std::uint64_t derived;
  std::uint64_t draws[8];
};

// Root seed 42; regenerate with: for s in {0,1,17}: SeedSequence(42).stream(s).
constexpr GoldenStream kGolden[] = {
    {0,
     0x6fbd8464a1696e51ULL,
     {0x944cb3dd3232e9a2ULL, 0xe99b6476bf98a60eULL, 0x65170314fe7fd3bfULL,
      0xc3ce99e402161213ULL, 0x36d044fbc0820971ULL, 0xd94e8fb3e081c448ULL,
      0x8361d849cfa0393bULL, 0x3ec1736829f89442ULL}},
    {1,
     0x1f4e86a81d457cc6ULL,
     {0xdf80c2c7480e87caULL, 0x107e6a8928593021ULL, 0x5c0965f7446211c5ULL,
      0x00abfbc75099304fULL, 0x0fbb2be6c86a6aa1ULL, 0xba408998b9d68677ULL,
      0x8e529d1dc86e2148ULL, 0xebc9322e4a67b5c3ULL}},
    {17,
     0xa7b415ee61dad267ULL,
     {0x7bf98c982249561fULL, 0x77fa7e6bb8d44b0aULL, 0xcede01a242c41a49ULL,
      0xb87ca42ae9a59c0bULL, 0xabd97577dc5701e8ULL, 0xa7cf238e6fa2d25aULL,
      0xec65e4907a168cdcULL, 0x5fce73e0a70dc245ULL}},
};

TEST(SeedStability, SeedSequenceStreamsArePinned) {
  const engine::SeedSequence seq(42);
  for (const GoldenStream& golden : kGolden) {
    EXPECT_EQ(seq.derive(golden.index), golden.derived) << "stream " << golden.index;
    Rng rng = seq.stream(golden.index);
    for (int i = 0; i < 8; ++i)
      EXPECT_EQ(rng(), golden.draws[i]) << "stream " << golden.index << " draw " << i;
  }
}

struct GoldenKeyed {
  engine::StreamDomain domain;
  std::uint64_t a, b, c;
  std::uint64_t derived;
  std::uint64_t first_draw;
};

// Root seed 42, one key per domain in its own key words. LinkLatency and
// LinkFault share a key: only the domain tells their streams apart.
constexpr GoldenKeyed kGoldenKeyed[] = {
    {engine::StreamDomain::LinkLatency, 17, 3, 5, 0xf1e96cfb0ca02aeeULL, 0xa9fcfd7e43c1d131ULL},
    {engine::StreamDomain::LinkFault, 17, 3, 5, 0xad5359acda174843ULL, 0xa8af38d81f16ce3fULL},
    {engine::StreamDomain::Topology, 0, 0, 0, 0xe73f81d34eb6d06aULL, 0x6086d138168041d3ULL},
    {engine::StreamDomain::Lottery, 0x1234, 17, 3, 0x61882c6ab770b539ULL, 0x35977010478514c9ULL},
    {engine::StreamDomain::EpochNonce, 2, 0, 0, 0x3298849d9c8c379cULL, 0x1345b2b994b5b4f1ULL},
    {engine::StreamDomain::FaultPlan, 5, 0, 0, 0x9825de45096bd7ebULL, 0xb7bbfc005e50a6ffULL},
    {engine::StreamDomain::RecurrenceMc, 0, 0, 0, 0x454fe73cb676c405ULL, 0x85e5846631b786e4ULL},
};

TEST(SeedStability, KeyedStreamsArePinned) {
  const engine::SeedSequence seq(42);
  for (const GoldenKeyed& golden : kGoldenKeyed) {
    const auto domain = static_cast<std::uint64_t>(golden.domain);
    EXPECT_EQ(seq.derive(golden.domain, golden.a, golden.b, golden.c), golden.derived)
        << "domain " << domain;
    Rng rng = seq.stream(golden.domain, golden.a, golden.b, golden.c);
    EXPECT_EQ(rng(), golden.first_draw) << "domain " << domain;
  }
}

TEST(SeedStability, ScenarioMatrixFirstVerdictsArePinned) {
  // One verdict character per cell, row-major in (tie, delta, strategy, law)
  // at the default matrix seed 2027. '.' = quiet run, 'a' = margin allows but
  // the adversary failed, 'V' = simulated violation (analytically permitted);
  // '!' (an invariant breach) must never appear.
  oracle::MatrixConfig config;
  config.runs = 2;  // first_run only reads execution 0; keep the pin cheap
  config.mc_samples = 500;
  const oracle::MatrixResult result = oracle::run_scenario_matrix(config);
  EXPECT_EQ(first_run_codes(result), ".aaa.aaaaVaaaaaV.aaa.aaaaaaa.aaaaaaa");
}

TEST(SeedStability, FaultBandFirstVerdictsArePinned) {
  // The chaos band's fingerprint at its stock seed 6101, row-major in
  // (fault, tie, delta, strategy, law). Beyond the un-faulted alphabet, 'd'
  // marks a degraded run whose observed-Delta projection held and 'u' an
  // unbounded one; '!' must never appear. This pins the FaultPlan samplers
  // and the whole injector/transport/re-sync pipeline: any drift in their
  // draw order or fault application shows up here first.
  oracle::MatrixConfig config = oracle::fault_band_config();
  config.runs = 2;
  config.mc_samples = 500;
  const oracle::MatrixResult result = oracle::run_scenario_matrix(config);
  EXPECT_EQ(first_run_codes(result),
            "aV.aVVaa.aaaaaaaddddddad.aadadadaaaaaaaaaaaaaaaa"
            "dduuuuuuuuauaudu.dddaVaddaddadddudddduddudduduau");
}

}  // namespace
}  // namespace mh
