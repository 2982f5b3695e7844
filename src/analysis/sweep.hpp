// Engine-parallel parameter sweeps over the exact settlement DPs.
//
// Table 1 and the threshold comparison evaluate the Section-6.6 DP over grids
// of i.i.d. laws; every (law, k) cell is independent, so the sweep fans the
// cells across the experiment engine's ThreadPool (one DP pass per cell,
// claimed dynamically) and writes each result into its preassigned output
// slot. Reduction is therefore ordered by construction: results are a pure
// function of the inputs and bit-for-bit identical for every thread count,
// the same contract engine::run_sharded gives the Monte-Carlo estimators.
#pragma once

#include <cstddef>
#include <vector>

#include "chars/bernoulli.hpp"
#include "core/exact_dp.hpp"

namespace mh {

struct SweepOptions {
  std::size_t threads = 0;  ///< engine parallelism; 0 = hardware concurrency
  DpPrecision precision = DpPrecision::Reference;
};

/// One full settlement series P(0..k_max) per law (a single DP pass yields
/// the whole k-series, so the law is the natural cell). out[i] corresponds to
/// laws[i].
std::vector<SettlementSeries> sweep_settlement_series(const std::vector<SymbolLaw>& laws,
                                                      std::size_t k_max,
                                                      const SweepOptions& opt = {});

}  // namespace mh
