// Settlement calculator: the Table-1 engine as a CLI. Computes the exact
// k-settlement violation probabilities for a stake-based deployment: given an
// adversarial stake share and the Praos active-slot coefficient f, derive the
// induced (ph, pH, pA) law, then print the settlement series and compare
// against the Praos- and SnowWhite-style certificates.
//
//   ./settlement_calculator [adversarial_stake [f [parties]]]
#include <cstdio>
#include <vector>

#include "analysis/baselines.hpp"
#include "cli.hpp"
#include "core/exact_dp.hpp"
#include "delta/reduction.hpp"
#include "protocol/consensus/schedule.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  const mh::cli::Args args(argc, argv, "[adversarial_stake [f [parties]]]", 3);
  const double stake = args.number(1, "adversarial_stake", 0.30, "a number in [0, 1]",
                                   [](double x) { return x >= 0.0 && x <= 1.0; });
  const double f = args.number(2, "f", 0.25, "a number in (0, 1)",
                               [](double x) { return x > 0.0 && x < 1.0; });
  const std::size_t parties = args.size(3, "parties", 50, 1, 10'000'000);

  std::printf("deployment: adversarial stake %.2f, active-slot coefficient f = %.2f, %zu honest parties\n",
              stake, f, parties);

  // Equal stakes: every honest party holds (1 - stake) / parties.
  const std::vector<double> shares(parties, (1.0 - stake) / static_cast<double>(parties));
  const mh::TetraLaw induced = mh::consensus::induced_law(f, shares, stake);
  std::printf("induced slot law: empty %.4f, h %.4f, H %.4f, A %.4f\n", induced.pBot,
              induced.ph, induced.pH, induced.pA);

  // Condition on active slots (the synchronous analysis operates on them).
  const mh::SymbolLaw law = mh::reduced_law(induced, 0);
  std::printf("conditioned on active slots: ph %.4f, pH %.4f, pA %.4f\n\n", law.ph, law.pH,
              law.pA);

  if (!law.honest_majority()) {
    std::printf("ph + pH <= pA: no consistency possible.\n");
    return 1;
  }

  const std::size_t k_max = 400;
  const mh::SettlementSeries series = mh::exact_settlement_series(law, k_max);
  mh::TextTable table({"k (active slots)", "exact P(k)", "Praos certificate",
                       "SnowWhite certificate"});
  for (std::size_t k : {25u, 50u, 100u, 200u, 400u})
    table.add_row({std::to_string(k), mh::paper_scientific(series.violation[k]),
                   mh::paper_scientific(mh::praos_settlement_error(law, k)),
                   mh::paper_scientific(mh::snow_white_settlement_error(law, k))});
  std::printf("%s\n", table.render().c_str());
  std::printf("note: with many parties the concurrent-leader mass pH = %.4f makes the\n",
              law.pH);
  std::printf("Praos certificate lag the exact error; this paper's analysis closes the gap.\n");
  return 0;
}
