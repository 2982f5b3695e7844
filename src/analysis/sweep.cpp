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

}  // namespace mh
