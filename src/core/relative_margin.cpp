#include "core/relative_margin.hpp"

#include "support/check.hpp"

namespace mh {

MarginProcess::MarginProcess(std::int64_t initial_rho)
    : rho_(initial_rho), mu_(initial_rho) {
  MH_REQUIRE(initial_rho >= 0);
}

void MarginProcess::step(Symbol b) {
  if (b == Symbol::A) {
    ++rho_;
    ++mu_;
    return;
  }
  // The margin rule reads the pre-step rho(xy), so update mu first.
  if (mu_ == 0 && (rho_ > 0 || b == Symbol::H)) {
    // mu stays pinned at zero: either a spare high-reach tine keeps a second
    // maximal chain alive (rho > 0), or the multiply honest slot itself forks
    // into two concurrent maximal chains (rho = 0, b = H).
  } else {
    --mu_;
  }
  rho_ = rho_ > 0 ? rho_ - 1 : 0;
}

std::int64_t rho_of(const CharString& w) {
  MarginProcess p;
  for (Symbol s : w.symbols()) p.step(s);
  return p.rho();
}

std::int64_t relative_margin_recurrence(const CharString& w, std::size_t x_len) {
  return margin_trajectory(w, x_len).back();
}

std::vector<std::int64_t> margin_trajectory(const CharString& w, std::size_t x_len) {
  MH_REQUIRE(x_len <= w.size());
  // Advance rho through x, then track (rho, mu) jointly through y.
  MarginProcess prefix;
  for (std::size_t t = 1; t <= x_len; ++t) prefix.step(w.at(t));

  MarginProcess p(prefix.rho());
  std::vector<std::int64_t> out;
  out.reserve(w.size() - x_len + 1);
  out.push_back(p.mu());
  for (std::size_t t = x_len + 1; t <= w.size(); ++t) {
    p.step(w.at(t));
    out.push_back(p.mu());
  }
  return out;
}

}  // namespace mh
