// Double spend, end to end: what a settlement violation costs an application.
// A merchant ships goods once the payment transaction is buried k blocks deep;
// the attacker quietly mints a private chain carrying a conflicting spend of
// the same coin and releases it after confirmation. The run prints whether the
// paper's confirmation rule (pick k from the exact settlement series) was
// enough for the schedule the lottery produced.
//
//   ./double_spend [k [pA [seed]]]
#include <cstdio>

#include "cli.hpp"
#include "core/exact_dp.hpp"
#include "protocol/adversary.hpp"
#include "protocol/ledger.hpp"

int main(int argc, char** argv) {
  const mh::cli::Args args(argc, argv, "[k [pA [seed]]]", 3);
  const std::size_t k = args.size(1, "k", 6, 1, 1000);
  const double pA = args.number(2, "pA", 0.45, "a number in [0, 0.5)",
                                [](double x) { return x >= 0.0 && x < 0.5; });
  const std::uint64_t seed = args.size(3, "seed", 99);

  mh::SymbolLaw law{0.35, 1.0 - 0.35 - pA, pA};
  law.validate();
  std::printf("law: ph %.2f, pH %.2f, pA %.2f; merchant confirmation depth k = %zu\n", law.ph,
              law.pH, law.pA, k);
  std::printf("exact optimal violation probability at this depth: %.3Le\n\n",
              mh::settlement_violation_probability(law, k));

  const std::size_t horizon = 12 * k;
  mh::Rng rng(seed);
  const mh::LeaderSchedule schedule =
      mh::LeaderSchedule::from_symbol_law(law, horizon, 6, rng);

  mh::PrivateChainAdversary attacker(1, k);
  mh::Simulation sim(schedule, mh::SimulationConfig{mh::TieBreak::AdversarialOrder, seed}, 0,
                     &attacker);

  // Run until the payment is confirmed; record the merchant's view.
  mh::PayloadStore store;
  const mh::Transaction payment{1, /*conflict=*/7, /*sender=*/0, /*amount=*/1000};
  const mh::Transaction respend{2, /*conflict=*/7, /*sender=*/0, /*amount=*/1000};
  bool payment_attached = false;
  mh::BlockHash merchant_view = mh::genesis_block().hash;
  bool shipped = false;

  for (std::size_t t = 1; t <= horizon; ++t) {
    sim.run_until(t);
    const mh::BlockTree& chain = sim.global_tree();
    // The customer's payment rides in the first honest block; the attacker's
    // conflicting spend rides in its first private block.
    if (!payment_attached && sim.all_blocks().size() > 1) {
      for (const mh::Block& b : sim.all_blocks()) {
        if (b.slot == 0) continue;
        if (b.issuer != mh::kAdversary && store.batch(b.hash) == nullptr) {
          store.attach(b.hash, {payment});
          payment_attached = true;
          break;
        }
      }
    }
    for (const mh::Block& b : sim.all_blocks())
      if (b.issuer == mh::kAdversary && store.batch(b.hash) == nullptr)
        store.attach(b.hash, {respend});

    if (!shipped && payment_attached) {
      const mh::HonestNode& merchant = sim.nodes()[0];
      if (mh::confirmed_spend(chain, merchant.best_head(), store, 7, k)) {
        merchant_view = merchant.best_head();
        shipped = true;
        std::printf("slot %zu: payment confirmed %zu deep -> merchant ships\n", t, k);
      }
    }
  }

  if (!shipped) {
    std::printf("payment never reached depth %zu within %zu slots; nothing shipped.\n", k,
                horizon);
    return 0;
  }

  const mh::BlockHash final_view = sim.nodes()[0].best_head();
  const bool robbed = mh::double_spend_succeeded(sim.global_tree(), merchant_view, final_view,
                                                 store, 7, k);
  const mh::LedgerState ledger = mh::replay_chain(sim.global_tree(), final_view, store);
  std::printf("final ledger accepts tx #%llu for coin 7\n",
              static_cast<unsigned long long>(
                  ledger.accepted.empty() ? 0 : ledger.accepted.front().id));
  std::printf("double spend %s\n", robbed ? "SUCCEEDED: goods shipped, payment reversed"
                                          : "failed: the merchant kept the payment");
  return 0;
}
