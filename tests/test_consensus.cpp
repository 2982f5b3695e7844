// The epoch-managed consensus layer: stake registry, epoch nonces, the VRF
// lottery, the epoch-driven schedule source, and the epoch face of the
// differential oracle.
#include "protocol/consensus/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <tuple>

#include "checkers/chi_square.hpp"
#include "engine/seed_sequence.hpp"
#include "engine/thread_pool.hpp"
#include "oracle/epoch.hpp"
#include "protocol/adversary.hpp"
#include "protocol/blocktree.hpp"
#include "protocol/simulation.hpp"
#include "support/stats.hpp"

namespace mh::consensus {
namespace {

// --- StakeRegistry ---------------------------------------------------------

TEST(StakeRegistry, UniformSharesAndAccessors) {
  const StakeRegistry reg = StakeRegistry::uniform(4, 0.2);
  EXPECT_EQ(reg.honest_parties(), 4u);
  EXPECT_NEAR(reg.adversarial_share(), 0.2, 1e-15);
  for (PartyId p = 0; p < 4; ++p) EXPECT_NEAR(reg.share(p), 0.2, 1e-15);
  EXPECT_NEAR(reg.total_stake(), 1.0, 1e-15);
  const std::vector<double> shares = reg.honest_shares();
  ASSERT_EQ(shares.size(), 4u);
  for (double s : shares) EXPECT_NEAR(s, 0.2, 1e-15);
}

TEST(StakeRegistry, RejectsDegenerateWeights) {
  EXPECT_THROW(StakeRegistry({1.0, -0.5}, 0.2), std::invalid_argument);
  EXPECT_THROW(StakeRegistry({1.0, 2.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(StakeRegistry({0.0, 0.0}, 1.0), std::invalid_argument);  // no honest weight
  EXPECT_THROW(StakeRegistry({}, 0.0), std::invalid_argument);
  EXPECT_THROW(StakeRegistry::uniform(3, 1.0), std::invalid_argument);
}

TEST(StakeRegistry, ShiftsApplyAtTheirEpochInOrder) {
  StakeRegistry reg({2.0, 2.0}, 1.0);
  reg.add_shift({1, 0, 6.0});          // entering epoch 1, party 0 -> 6
  reg.add_shift({2, kAdversary, 0.0});  // entering epoch 2, coalition exits
  reg.add_shift({1, 0, 4.0});          // same epoch, later registration wins
  reg.advance_to_epoch(0);
  EXPECT_NEAR(reg.share(0), 0.4, 1e-15);
  reg.advance_to_epoch(1);
  EXPECT_NEAR(reg.stake(0), 4.0, 1e-15);
  EXPECT_NEAR(reg.share(0), 4.0 / 7.0, 1e-15);
  EXPECT_EQ(reg.current_epoch(), 1u);
  reg.advance_to_epoch(2);
  EXPECT_NEAR(reg.adversarial_share(), 0.0, 1e-15);
  EXPECT_NEAR(reg.share(0), 4.0 / 6.0, 1e-15);
}

TEST(StakeRegistry, SkippedBoundariesStillApplyEveryDueShift) {
  StakeRegistry reg({1.0, 1.0}, 0.0);
  reg.add_shift({1, 0, 3.0});
  reg.add_shift({3, 1, 5.0});
  reg.advance_to_epoch(4);  // jumps over epochs 1..3 in one call
  EXPECT_NEAR(reg.stake(0), 3.0, 1e-15);
  EXPECT_NEAR(reg.stake(1), 5.0, 1e-15);
}

TEST(StakeRegistry, EpochsNeverRewindAndPastShiftsAreRejected) {
  StakeRegistry reg({1.0}, 0.0);
  reg.advance_to_epoch(2);
  EXPECT_THROW(reg.advance_to_epoch(1), std::invalid_argument);
  EXPECT_THROW(reg.add_shift({2, 0, 2.0}), std::invalid_argument);  // boundary crossed
  EXPECT_NO_THROW(reg.add_shift({3, 0, 2.0}));
  EXPECT_THROW(reg.add_shift({0, 5, 1.0}), std::invalid_argument);  // no such party
}

// --- EpochManager ----------------------------------------------------------

TEST(EpochManager, SlotArithmetic) {
  const EpochManager mgr(EpochConfig{.epoch_length = 8}, 1);
  EXPECT_THROW((void)mgr.epoch_of(0), std::invalid_argument);
  EXPECT_EQ(mgr.epoch_of(1), 0u);
  EXPECT_EQ(mgr.epoch_of(8), 0u);
  EXPECT_EQ(mgr.epoch_of(9), 1u);
  EXPECT_EQ(mgr.epoch_start(0), 1u);
  EXPECT_EQ(mgr.epoch_end(0), 8u);
  EXPECT_EQ(mgr.epoch_start(3), 25u);
  EXPECT_EQ(mgr.epochs_covering(8), 1u);
  EXPECT_EQ(mgr.epochs_covering(9), 2u);
  EXPECT_EQ(mgr.epochs_covering(24), 3u);
}

TEST(EpochManager, WindowResolution) {
  EXPECT_EQ(EpochConfig{.epoch_length = 32}.window(), 21u);  // floor(2R/3)
  EXPECT_EQ((EpochConfig{.epoch_length = 1}).window(), 1u);  // floored at 1
  EXPECT_EQ((EpochConfig{.epoch_length = 32, .nonce_window = 5}).window(), 5u);
  EXPECT_THROW((EpochConfig{.epoch_length = 4, .nonce_window = 5}).validate(),
               std::invalid_argument);
}

TEST(EpochManager, NonceIsDeterministicAndWindowSensitive) {
  const EpochManager mgr(EpochConfig{.epoch_length = 8}, 99);
  BlockTree tree;
  // A short canonical chain: blocks at slots 2 and 5 (inside epoch 0's
  // window of floor(16/3) = 5 slots) and slot 7 (outside it).
  const Block b2 = make_block(genesis_block().hash, 2, 0, 11);
  const Block b5 = make_block(b2.hash, 5, 1, 22);
  const Block b7 = make_block(b5.hash, 7, 2, 33);
  tree.add(b2);
  tree.add(b5);
  tree.add(b7);

  // Epoch 0 ignores the chain entirely.
  BlockTree empty;
  EXPECT_EQ(mgr.fold_nonce(0, tree), mgr.fold_nonce(0, empty));

  // Epoch 1 folds the window blocks: deterministic, and sensitive to them.
  const std::uint64_t nonce = mgr.fold_nonce(1, tree);
  EXPECT_EQ(nonce, mgr.fold_nonce(1, tree));
  EXPECT_NE(nonce, mgr.fold_nonce(1, empty));

  // The trailing (grinding-protected) slot 7 does NOT move the nonce: a tree
  // without b7 folds the same window set.
  BlockTree window_only;
  window_only.add(b2);
  window_only.add(b5);
  EXPECT_EQ(nonce, mgr.fold_nonce(1, window_only));

  // Different genesis seeds decouple the whole lottery.
  const EpochManager other(EpochConfig{.epoch_length = 8}, 100);
  EXPECT_NE(nonce, other.fold_nonce(1, tree));
  EXPECT_NE(mgr.fold_nonce(0, empty), other.fold_nonce(0, empty));
}

// --- SlotLeaderSelection ---------------------------------------------------

TEST(SlotLeaderSelection, PhiEndpointsAndMonotonicity) {
  EXPECT_EQ(phi(0.3, 0.0), 0.0);
  EXPECT_NEAR(phi(0.3, 1.0), 0.3, 1e-15);
  double prev = 0.0;
  for (double s = 0.1; s <= 1.0; s += 0.1) {
    const double p = phi(0.3, s);
    EXPECT_GT(p, prev);
    prev = p;
  }
  EXPECT_THROW((void)phi(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)phi(0.3, 1.5), std::invalid_argument);
}

TEST(SlotLeaderSelection, DrawsArePureInTheKey) {
  const SlotLeaderSelection sel(0.4, 7);
  const std::uint64_t nonce = 0xabcdef;
  // Repetition and query order cannot change an outcome.
  for (std::size_t slot = 1; slot <= 64; ++slot)
    for (PartyId p = 0; p < 4; ++p)
      EXPECT_EQ(sel.eligible(nonce, slot, p, 0.2), sel.eligible(nonce, slot, p, 0.2));
  // The nonce genuinely re-keys the lottery: some slot must flip.
  bool any_flip = false;
  for (std::size_t slot = 1; slot <= 64 && !any_flip; ++slot)
    if (sel.eligible(nonce, slot, 0, 0.2) != sel.eligible(nonce + 1, slot, 0, 0.2))
      any_flip = true;
  EXPECT_TRUE(any_flip);
  // draw_slot is the per-party product of eligible(), except that a coalition
  // win absorbs the slot (A symbols admit no honest co-leaders).
  const StakeRegistry reg = StakeRegistry::uniform(4, 0.25);
  bool saw_absorption = false;
  for (std::size_t slot = 1; slot <= 256; ++slot) {
    const SlotLeaders leaders = sel.draw_slot(nonce, slot, reg);
    EXPECT_EQ(leaders.adversarial, sel.eligible(nonce, slot, kAdversary, 0.25));
    if (leaders.adversarial) {
      EXPECT_TRUE(leaders.honest.empty());
      for (PartyId p = 0; p < 4; ++p)
        if (sel.eligible(nonce, slot, p, reg.share(p))) saw_absorption = true;
    } else {
      for (PartyId p = 0; p < 4; ++p) {
        const bool in = std::find(leaders.honest.begin(), leaders.honest.end(), p) !=
                        leaders.honest.end();
        EXPECT_EQ(in, sel.eligible(nonce, slot, p, reg.share(p)));
      }
    }
  }
  EXPECT_TRUE(saw_absorption);  // honest co-winners genuinely forfeited somewhere
}

TEST(SlotLeaderSelection, WinFrequencyWithinClopperPearsonBand) {
  const double f = 0.35, share = 0.3;
  const SlotLeaderSelection sel(f, 12345);
  const std::size_t trials = 20'000;
  std::size_t wins = 0;
  for (std::size_t slot = 1; slot <= trials; ++slot)
    if (sel.eligible(0x1234, slot, 0, share)) ++wins;
  const Proportion band = clopper_pearson_interval(wins, trials, 0.999999);
  const double expect = phi(f, share);
  EXPECT_LE(band.lo, expect);
  EXPECT_GE(band.hi, expect);
}

// --- EpochSchedule ---------------------------------------------------------

TEST(EpochSchedule, MaterializesPerEpochAndGuardsTheFrontier) {
  const ConsensusConfig config{.f = 0.5, .epoch = EpochConfig{.epoch_length = 8}};
  const EpochSchedule sched(config, StakeRegistry::uniform(4, 0.25), 20, 777);
  EXPECT_EQ(sched.horizon(), 20u);
  EXPECT_EQ(sched.honest_parties(), 4u);
  EXPECT_EQ(sched.epoch_count(), 3u);
  EXPECT_EQ(sched.materialized_epochs(), 0u);

  // Nothing is readable before the driver advances the schedule.
  EXPECT_THROW((void)sched.leaders(1), std::invalid_argument);
  EXPECT_THROW((void)sched.eligible(0, 1), std::invalid_argument);
  // Genesis and beyond-horizon answers need no materialization.
  EXPECT_TRUE(sched.leaders(0).honest.empty());
  EXPECT_FALSE(sched.eligible(0, 0));
  EXPECT_FALSE(sched.eligible(0, 21));
  EXPECT_THROW((void)sched.leaders(21), std::invalid_argument);

  BlockTree tree;
  sched.advance_to(1, tree);
  EXPECT_EQ(sched.materialized_epochs(), 1u);
  EXPECT_EQ(sched.materialized_slots(), 8u);
  EXPECT_NO_THROW((void)sched.leaders(8));
  EXPECT_THROW((void)sched.leaders(9), std::invalid_argument);  // epoch 1 unopened

  sched.advance_to(9, tree);
  EXPECT_EQ(sched.materialized_epochs(), 2u);
  sched.advance_to(20, tree);  // final epoch is clipped to the horizon
  EXPECT_EQ(sched.materialized_epochs(), 3u);
  EXPECT_EQ(sched.materialized_slots(), 20u);

  // advance_to is idempotent and the realized snapshot matches the frontier.
  sched.advance_to(20, tree);
  EXPECT_EQ(sched.materialized_epochs(), 3u);
  const LeaderSchedule realized = sched.realized();
  EXPECT_EQ(realized.horizon(), 20u);
  for (std::size_t t = 1; t <= 20; ++t) {
    EXPECT_EQ(realized.leaders(t).honest, sched.leaders(t).honest);
    EXPECT_EQ(realized.leaders(t).adversarial, sched.leaders(t).adversarial);
  }
}

TEST(EpochSchedule, SameSeedSameScheduleDifferentSeedDiffers) {
  const ConsensusConfig config{.f = 0.5, .epoch = EpochConfig{.epoch_length = 16}};
  BlockTree tree;
  const EpochSchedule a(config, StakeRegistry::uniform(4, 0.25), 48, 42);
  const EpochSchedule b(config, StakeRegistry::uniform(4, 0.25), 48, 42);
  const EpochSchedule c(config, StakeRegistry::uniform(4, 0.25), 48, 43);
  a.advance_to(48, tree);
  b.advance_to(48, tree);
  c.advance_to(48, tree);
  bool differs = false;
  for (std::size_t t = 1; t <= 48; ++t) {
    EXPECT_EQ(a.leaders(t).honest, b.leaders(t).honest);
    EXPECT_EQ(a.leaders(t).adversarial, b.leaders(t).adversarial);
    if (a.leaders(t).honest != c.leaders(t).honest ||
        a.leaders(t).adversarial != c.leaders(t).adversarial)
      differs = true;
  }
  EXPECT_TRUE(differs);
  for (std::size_t e = 0; e < 3; ++e) EXPECT_EQ(a.epoch_nonce(e), b.epoch_nonce(e));
}

TEST(EpochSchedule, InducedLawMatchesPraosFormulaOnUniformStakes) {
  // For a uniform snapshot the per-party induced law must agree with the
  // closed form of the equal-share lottery, q = (1-f)^share per party:
  // no honest winner q^n, exactly one n (1-q) q^(n-1), to within a few ulps.
  const double f = 0.3, adv = 0.25;
  for (const std::size_t n : {std::size_t{2}, std::size_t{6}, std::size_t{100}}) {
    const double parties = static_cast<double>(n);
    const double log_q = (1.0 - adv) / parties * std::log1p(-f);
    const double p_adv = phi(f, adv);
    const double none = std::exp(parties * log_q);
    const double one = parties * -std::expm1(log_q) * std::exp((parties - 1.0) * log_q);
    const std::vector<double> shares(n, (1.0 - adv) / parties);
    const TetraLaw general = induced_law(f, shares, adv);
    EXPECT_NEAR(general.pBot, (1.0 - p_adv) * none, 1e-14);
    EXPECT_NEAR(general.ph, (1.0 - p_adv) * one, 1e-14);
    EXPECT_NEAR(general.pH, (1.0 - p_adv) * (1.0 - none - one), 1e-14);
    EXPECT_NEAR(general.pA, p_adv, 1e-14);
  }
}

TEST(EpochSchedule, SkewedStakesShiftTheInducedLaw) {
  // One whale + many minnows produces strictly fewer multi-leader slots than
  // the uniform split of the same total (the H mass is Schur-concave).
  const double f = 0.4;
  const TetraLaw uniform = induced_law(f, {0.25, 0.25, 0.25}, 0.25);
  const TetraLaw skewed = induced_law(f, {0.65, 0.05, 0.05}, 0.25);
  EXPECT_LT(skewed.pH, uniform.pH);
  EXPECT_NEAR(skewed.pBot, uniform.pBot, 1e-14);  // same total honest share
  EXPECT_NEAR(skewed.pA, uniform.pA, 1e-14);
}

TEST(EpochSchedule, StakeShiftChangesTheEpochLaw) {
  const ConsensusConfig config{.f = 0.5, .epoch = EpochConfig{.epoch_length = 8}};
  StakeRegistry reg = StakeRegistry::uniform(4, 0.25);
  reg.add_shift({1, 0, 0.5});  // party 0 doubles entering epoch 1
  const EpochSchedule sched(config, std::move(reg), 24, 5);
  BlockTree tree;
  sched.advance_to(24, tree);
  ASSERT_EQ(sched.materialized_epochs(), 3u);
  EXPECT_NE(sched.epoch_honest_shares(0), sched.epoch_honest_shares(1));
  EXPECT_EQ(sched.epoch_honest_shares(1), sched.epoch_honest_shares(2));
  const TetraLaw law0 = sched.epoch_induced_law(0);
  const TetraLaw law1 = sched.epoch_induced_law(1);
  EXPECT_NE(law0.ph, law1.ph);
  // Epoch nonces stay distinct across the boundary (fresh lottery keys).
  EXPECT_NE(sched.epoch_nonce(0), sched.epoch_nonce(1));
}

TEST(EpochSchedule, SpotlightScheduleAndNoncesArePinned) {
  // The E19 spotlight cell (shift-adv/private): six equal honest parties and
  // a 0.25 coalition, party 0 and the coalition buying in at epoch 1, three
  // 32-slot epochs at f = 1/2 under a private-chain attack, at seed 1904.
  // The tests above compare schedules with each other; this pins the
  // lottery's draws and the nonce fold's values. '.' marks an empty slot.
  const ConsensusConfig config{.f = 0.5, .epoch = EpochConfig{.epoch_length = 32}};
  StakeRegistry registry = StakeRegistry::uniform(6, 0.25);
  registry.add_shift({1, 0, 0.0625});
  registry.add_shift({1, kAdversary, 0.3125});
  const EpochSchedule schedule(config, std::move(registry), 96, 1904);
  PrivateChainAdversary adversary(2, 6);
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 1904}, 0, &adversary);
  sim.run();
  EXPECT_EQ(schedule.realized().characteristic().to_string(),
            ".h.HAA.AhAhhhA...hH..h...hh..A.H"
            "...HA.hhA..h.hhHh..hHAhh...AA..."
            "AAh.H...A.hhA.AH.hhA...h..A...H.");
  ASSERT_EQ(schedule.materialized_epochs(), 3u);
  EXPECT_EQ(schedule.epoch_nonce(0), 0x9bee3fa7130051c9ULL);
  EXPECT_EQ(schedule.epoch_nonce(1), 0xfc9441ba036fab00ULL);
  EXPECT_EQ(schedule.epoch_nonce(2), 0xf182b84d3246b368ULL);
}

// --- the party-level lottery against its induced law ------------------------

/// The lottery's draws over one 10^4-slot epoch of equal stakes, materialized
/// from a genesis-only chain.
constexpr std::size_t kLotterySlots = 10'000;
EpochSchedule one_epoch_lottery(double f, double adv, std::size_t parties,
                                std::uint64_t seed) {
  const ConsensusConfig config{.f = f, .epoch = EpochConfig{.epoch_length = kLotterySlots}};
  EpochSchedule sched(config, StakeRegistry::uniform(parties, adv), kLotterySlots, seed);
  sched.advance_to(kLotterySlots, BlockTree{});
  return sched;
}

std::array<std::size_t, 4> symbol_counts(const EpochSchedule& sched) {
  const TetraString w = sched.realized().characteristic();
  std::array<std::size_t, 4> counts{};  // Bot, h, H, A
  for (std::size_t t = 1; t <= w.size(); ++t) ++counts[static_cast<std::size_t>(w.at(t))];
  return counts;
}

std::vector<double> equal_shares(std::size_t parties, double adv) {
  return std::vector<double>(parties, (1.0 - adv) / static_cast<double>(parties));
}

TEST(Lottery, PraosLotteryInducedLawMatchesEmpirical) {
  const double f = 0.3, adv_stake = 0.25;
  const std::size_t parties = 6;
  const EpochSchedule sched = one_epoch_lottery(f, adv_stake, parties, 14);
  const TetraLaw predicted = sched.epoch_induced_law(0);
  const std::array<double, 4> expected{predicted.pBot, predicted.ph, predicted.pH,
                                       predicted.pA};
  EXPECT_LT(chi_square_statistic(symbol_counts(sched), expected),
            chi_square_critical(3, 0.001));
}

TEST(Lottery, PraosLotteryWithinClopperPearsonBands) {
  // Exact-band agreement between the lottery and its analytic induced law:
  // each symbol's frequency over the 10^4-slot epoch must sit inside the
  // Clopper-Pearson band around the induced mass (no normal approximation —
  // pH here is a rare event).
  const double f = 0.25, adv_stake = 0.2;
  const std::size_t parties = 8;
  const EpochSchedule sched = one_epoch_lottery(f, adv_stake, parties, 20);
  const TetraLaw predicted = sched.epoch_induced_law(0);
  const std::array<std::size_t, 4> counts = symbol_counts(sched);
  const std::array<double, 4> masses{predicted.pBot, predicted.ph, predicted.pH,
                                     predicted.pA};
  for (std::size_t s = 0; s < 4; ++s) {
    const Proportion band = clopper_pearson_interval(counts[s], kLotterySlots, 0.999999);
    EXPECT_LE(band.lo, masses[s]) << "symbol " << s;
    EXPECT_GE(band.hi, masses[s]) << "symbol " << s;
    EXPECT_TRUE(clopper_pearson_covers(counts[s], kLotterySlots, masses[s], 0.999999));
  }
}

TEST(Lottery, PraosInducedLawSums) {
  const TetraLaw law = induced_law(0.2, equal_shares(10, 0.3), 0.3);
  EXPECT_NEAR(law.pBot + law.ph + law.pH + law.pA, 1.0, 1e-12);
  EXPECT_GT(law.pH, 0.0);  // concurrent honest leaders occur by design
}

TEST(Lottery, InducedLawPrecisionAtCommitteeScale) {
  // The one-winner mass goes through the small-share regime: n * phi * q^(n-1)
  // with share ~ 1/n. Long-double reference at n = 10^5 equal shares.
  const double f = 0.1, adv = 0.25;
  const std::size_t n = 100000;
  const long double share = (1.0L - (long double)adv) / static_cast<long double>(n);
  const long double Lq = share * std::log1pl(-(long double)f);
  const long double p_adv = -std::expm1l((long double)adv * std::log1pl(-(long double)f));
  const long double no_honest = std::exp(static_cast<long double>(n) * Lq);
  const long double one_honest = static_cast<long double>(n) * (-std::expm1l(Lq)) *
                                 std::exp(static_cast<long double>(n - 1) * Lq);
  const TetraLaw law = induced_law(f, equal_shares(n, adv), adv);
  const long double ref_ph = (1.0L - p_adv) * one_honest;
  const long double ref_bot = (1.0L - p_adv) * no_honest;
  EXPECT_LE(std::fabs((long double)law.ph - ref_ph) / ref_ph, 1e-12L);
  EXPECT_LE(std::fabs((long double)law.pBot - ref_bot) / ref_bot, 1e-12L);
  EXPECT_NEAR(law.pBot + law.ph + law.pH + law.pA, 1.0, 1e-12);
}

// --- the epoch face of the oracle ------------------------------------------

oracle::EpochRunConfig shifted_cell() {
  oracle::EpochRunConfig config;
  config.consensus.f = 0.5;
  config.consensus.epoch.epoch_length = 32;
  config.honest_parties = 6;
  config.adversarial_stake = 0.25;
  // Mid-run redistribution: entering epoch 1 the coalition buys half of party
  // 0's stake (one spec down, one spec up — the adaptive-corruption axis).
  config.shifts = {{1, 0, 0.0625}, {1, kAdversary, 0.3125}};
  config.horizon = 96;
  config.target_slot = 2;
  config.k = 6;
  return config;
}

TEST(EpochOracle, ShiftedExecutionGradesCleanWithAllCells) {
  oracle::EpochRunConfig config = shifted_cell();
  engine::SeedSequence streams(2024);
  for (std::uint64_t i = 0; i < 8; ++i) {
    Rng rng = streams.stream(i);
    const oracle::EpochVerdict verdict = oracle::check_epoch_execution(config, rng);
    EXPECT_TRUE(verdict.clean()) << "cell " << i << " code " << verdict.code();
    EXPECT_TRUE(verdict.all_graded);
    ASSERT_EQ(verdict.cells.size(), 3u);  // 96 slots / 32-slot epochs, none ungraded
    for (const oracle::EpochCell& cell : verdict.cells) {
      EXPECT_TRUE(cell.law_within_band) << "epoch " << cell.epoch;
      EXPECT_EQ(cell.slots, 32u);
      // The reduced (Proposition 4) law is attached and normalized.
      EXPECT_NEAR(cell.reduced.ph + cell.reduced.pH + cell.reduced.pA, 1.0, 1e-12);
    }
    // The shift moved the epoch-1 law (more adversarial mass, less honest).
    EXPECT_GT(verdict.cells[1].induced.pA, verdict.cells[0].induced.pA);
  }
}

TEST(EpochOracle, VerdictsAreThreadCountInvariant) {
  const oracle::EpochRunConfig config = shifted_cell();
  const std::size_t cells = 12;
  const auto sweep = [&](std::size_t threads) {
    std::vector<char> codes(cells);
    std::vector<std::uint64_t> nonces(cells);
    std::vector<std::int64_t> margins(cells);
    engine::SeedSequence streams(777);
    engine::for_each_index(cells, threads, [&](std::size_t i) {
      Rng rng = streams.stream(i);
      const oracle::EpochVerdict v = oracle::check_epoch_execution(config, rng);
      codes[i] = v.code();
      margins[i] = v.run.fork_margin;
      std::uint64_t folded = 0;
      for (const oracle::EpochCell& cell : v.cells)
        folded = fnv1a_accumulate(folded, cell.nonce);
      nonces[i] = folded;
    });
    return std::tuple{codes, nonces, margins};
  };
  const auto serial = sweep(1);
  EXPECT_EQ(serial, sweep(2));
  EXPECT_EQ(serial, sweep(8));
}

}  // namespace
}  // namespace mh::consensus
