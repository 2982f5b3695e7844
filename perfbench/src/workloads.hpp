// The three workloads. Each runs one batch job repeatedly for the run's
// budget and returns either the end-to-end metrics (args.trace == false) or
// the per-layer metrics of a separate traced pass (args.trace == true).
#pragma once

#include "common.hpp"

namespace perfbench {

/// 256 honest parties x 10^4 slots, balance attack, Delta = 0.
Result run_lockstep_deep(const Args& args);
/// Several thousand short graded executions over the four oracle faces.
Result run_oracle_band(const Args& args);
/// The 36-law Table-1 grid through sweep_settlement_series at k <= 300.
Result run_settlement_dp(const Args& args);

/// Thread count of the two engine-parallel workloads (oracle_band and
/// settlement_dp); fixed so that runs compare across machines with at least
/// this many cores.
inline constexpr std::size_t kEngineThreads = 4;

}  // namespace perfbench
