// Fork explorer: feed a characteristic string, see what the optimal adversary
// can do with it. Prints the canonical fork (Figure-4 adversary), the Catalan
// slots, which slots enjoy the Unique Vertex Property, and the margin
// trajectory that decides settlement.
//
//   ./fork_explorer [characteristic-string]     e.g.  ./fork_explorer hAhAhHAAH
#include <cstdio>
#include <string_view>

#include "cli.hpp"
#include "core/astar.hpp"
#include "core/catalan.hpp"
#include "core/relative_margin.hpp"
#include "fork/ascii.hpp"
#include "fork/margin.hpp"

int main(int argc, char** argv) {
  const mh::cli::Args args(argc, argv, "[characteristic-string]", 1);
  const mh::CharString w =
      args.parsed(1, "characteristic-string", "hAhAhHAAH", "a string over {h, H, A}",
                  [](std::string_view text) { return mh::CharString::parse(text); });

  std::printf("characteristic string: %s  (h: unique honest, H: concurrent honest, A: adversarial)\n\n",
              w.to_string().c_str());

  const mh::Fork fork = mh::build_canonical_fork(w);
  std::printf("canonical fork built by the optimal online adversary A*:\n\n%s\n",
              mh::render_ascii(fork, w).c_str());

  const mh::CatalanFlags flags = mh::catalan_flags(w);
  std::printf("slot : ");
  for (std::size_t s = 1; s <= w.size(); ++s) std::printf("%3zu", s);
  std::printf("\nsym  : ");
  for (std::size_t s = 1; s <= w.size(); ++s) std::printf("%3c", mh::to_char(w.at(s)));
  std::printf("\nCat  : ");
  for (std::size_t s = 1; s <= w.size(); ++s)
    std::printf("%3c", flags.catalan[s - 1] ? '*' : '.');
  std::printf("   (* = Catalan slot: a barrier for the adversary)\nUVP  : ");
  // Theorem 3: a uniquely honest slot has the UVP exactly when it is Catalan.
  for (std::size_t s = 1; s <= w.size(); ++s)
    std::printf("%3c", w.uniquely_honest(s) && flags.catalan[s - 1] ? 'U' : '.');
  std::printf("   (U = every future viable chain passes this block)\n\n");

  std::printf("margin trajectory mu_eps(w_1..t) (slot 1 is settled while < 0):\n  t  : ");
  const std::vector<std::int64_t> trajectory = mh::margin_trajectory(w, 0);
  for (std::size_t t = 0; t < trajectory.size(); ++t) std::printf("%4zu", t);
  std::printf("\n  mu : ");
  for (const std::int64_t m : trajectory) std::printf("%4lld", static_cast<long long>(m));
  std::printf("\n\nstructural check: mu_eps(F*) = %lld, recurrence = %lld\n",
              static_cast<long long>(mh::margin(fork, w)),
              static_cast<long long>(mh::relative_margin_recurrence(w, 0)));
  return 0;
}
