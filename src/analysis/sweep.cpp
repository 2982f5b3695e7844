#include "analysis/sweep.hpp"

#include "engine/thread_pool.hpp"

namespace mh {

std::vector<SettlementSeries> sweep_settlement_series(const std::vector<SymbolLaw>& laws,
                                                      std::size_t k_max,
                                                      const SweepOptions& opt) {
  for (const SymbolLaw& law : laws) law.validate();  // fail fast, before spawning workers
  std::vector<SettlementSeries> out(laws.size());
  engine::for_each_index(laws.size(), opt.threads, [&](std::size_t i) {
    out[i] = exact_settlement_series(laws[i], k_max, InitialReach::Stationary, opt.precision);
  });
  return out;
}

std::vector<long double> sweep_eventual_insecurity(const std::vector<SymbolLaw>& laws,
                                                   const std::vector<std::size_t>& ks,
                                                   const SweepOptions& opt) {
  for (const SymbolLaw& law : laws) law.validate();
  std::vector<long double> out(laws.size() * ks.size(), 0.0L);
  engine::for_each_index(out.size(), opt.threads, [&](std::size_t cell) {
    const std::size_t i = cell / ks.size();
    const std::size_t j = cell % ks.size();
    out[cell] = eventual_settlement_insecurity(laws[i], ks[j], InitialReach::Stationary,
                                               opt.precision);
  });
  return out;
}

}  // namespace mh
