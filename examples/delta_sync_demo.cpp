// Delta-synchronous demo: how network delay erodes consistency. Samples a
// semi-synchronous slot string, applies the reduction map rho_Delta, and shows
// how honest slots near other honest slots turn effectively adversarial —
// then prices the damage with the Theorem-7 bound.
//
//   ./delta_sync_demo [f [Delta]]
#include <cstdio>

#include "cli.hpp"
#include "delta/delta_settlement.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  const mh::cli::Args args(argc, argv, "[f [Delta]]", 2);
  const double f = args.number(1, "f", 0.15, "a number in (0, 1]",
                               [](double x) { return x > 0.0 && x <= 1.0; });
  const std::size_t delta = args.size(2, "Delta", 2, 0, 60);

  const mh::TetraLaw law = mh::theorem7_law(f, 0.2 * f, 0.5 * f);
  std::printf("active-slot coefficient f = %.2f; per-slot law: empty %.3f, h %.3f, H %.3f, A %.3f\n",
              f, law.pBot, law.ph, law.pH, law.pA);

  mh::Rng rng(11);
  const mh::TetraString w = law.sample_string(60, rng);
  const mh::ReductionResult reduced = mh::reduce(w, delta);
  std::printf("\nraw string     : %s\n", w.to_string().c_str());
  std::printf("rho_%zu-reduced : %s\n", delta, reduced.reduced.to_string().c_str());
  std::printf("(honest slots within %zu slots of another honest slot become A)\n\n", delta);

  std::printf("reduced-law health and Theorem-7 settlement bound (k = 200):\n\n");
  mh::TextTable table({"Delta", "eps'", "bound at k=100", "bound at k=200", "bound at k=400"});
  for (std::size_t d = 0; d <= 8; d += 2) {
    table.add_row({std::to_string(d), mh::fixed(mh::theorem7_epsilon(law, d), 4),
                   mh::paper_scientific(mh::theorem7_bound(law, d, 100)),
                   mh::paper_scientific(mh::theorem7_bound(law, d, 200)),
                   mh::paper_scientific(mh::theorem7_bound(law, d, 400))});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("sparser slots (smaller f) keep eps' positive for larger Delta: the\n");
  std::printf("classic Praos trade-off between throughput and delay tolerance.\n");
  return 0;
}
