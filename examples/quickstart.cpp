// Quickstart: how long until a PoS transaction is settled?
//
// Given the leader-election probabilities (ph, pH, pA), the library computes
// the exact probability that a slot's settlement is violated after k further
// slots — including the regime with many concurrent honest leaders where this
// paper's ph + pH > pA threshold is the only known guarantee.
//
//   ./quickstart [pA [ph [target_error]]]
#include <algorithm>
#include <cstdio>

#include "analysis/thresholds.hpp"
#include "cli.hpp"
#include "core/exact_dp.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  const mh::cli::Args args(argc, argv, "[pA [ph [target_error]]]", 3);
  const double pA = args.number(1, "pA", 0.35, "a number in [0, 1]",
                                [](double x) { return x >= 0.0 && x <= 1.0; });
  const double ph = args.number(2, "ph", 0.25, "a number in [0, 1 - pA]",
                                [pA](double x) { return x >= 0.0 && x <= 1.0 - pA; });
  const double target = args.number(3, "target_error", 1e-9, "a number in (0, 1]",
                                    [](double x) { return x > 0.0 && x <= 1.0; });

  mh::SymbolLaw law{ph, std::max(0.0, 1.0 - pA - ph), pA};
  law.validate();

  std::printf("leader election law: ph = %.3f, pH = %.3f, pA = %.3f\n", law.ph, law.pH,
              law.pA);
  const mh::RegimeReport regime = mh::classify_regime(law);
  std::printf("security thresholds:\n");
  std::printf("  this work  (ph + pH > pA): %s\n", regime.this_work_applies ? "OK" : "VIOLATED");
  std::printf("  Praos      (ph - pH > pA): %s\n", regime.praos_applies ? "OK" : "violated");
  std::printf("  Snow White (ph      > pA): %s\n\n", regime.snow_white_applies ? "OK" : "violated");

  if (!regime.this_work_applies) {
    std::printf("no consistency guarantee exists for this law (dishonest majority).\n");
    return 1;
  }

  const std::size_t k_max = 600;
  const mh::SettlementSeries series = mh::exact_settlement_series(law, k_max);

  mh::TextTable table({"confirmation depth k", "Pr[settlement violated]"});
  for (std::size_t k : {10u, 25u, 50u, 100u, 200u, 400u, 600u})
    table.add_row({std::to_string(k), mh::paper_scientific(series.violation[k])});
  std::printf("%s\n", table.render().c_str());

  for (std::size_t k = 1; k <= k_max; ++k) {
    if (static_cast<double>(series.violation[k]) < target) {
      std::printf("first depth with violation probability below %.1e: k = %zu\n", target, k);
      return 0;
    }
  }
  std::printf("no depth up to %zu reaches the %.1e target; increase k_max.\n", k_max, target);
  return 0;
}
