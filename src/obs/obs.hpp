// Umbrella header + the instrumentation hook macros the rest of the library
// uses. The hooks are compiled into every build; their one gate is the
// run-time switch obs::enabled() (MH_OBS=1 in the environment, or
// obs::set_enabled(true)). While it is off a hook costs one relaxed atomic
// load and a predictable branch, and its arguments are never evaluated; the
// recording body is marked unlikely, so it is laid out away from the hot
// path. A hook that does more than a single add belongs in an out-of-line
// cold helper called as `if (obs::enabled()) helper(...)`, so hot loops keep
// their code layout (see BandedDp::step).
//
// Instruments resolve once per call site through a function-local static, so
// the steady-state hot path is a per-thread relaxed atomic increment — no
// lock, no lookup. Metric names are dot-scoped by layer:
//
//   engine.pool.*     chunk scheduling, task latency, idle/steal counts
//   protocol.net.*    blocks shipped/relayed/delivered, coverage hits, chain sync
//   protocol.node.*   deliveries, orphan buffering/flushing
//   protocol.tree.*   ancestry walk lengths
//   protocol.sim.*    slot loop progress
//   dp.*              banded-kernel band widths, cells touched, precision path
//   oracle.*          per-cell timings, phase timers, MC<->DP band slack
//
// Recording never perturbs results: instruments touch no RNG stream and no
// simulation state, and shard merges are commutative sums (metrics.hpp).
#pragma once

#include "obs/metrics.hpp"

#define MH_OBS_CONCAT_INNER(a, b) a##b
#define MH_OBS_CONCAT(a, b) MH_OBS_CONCAT_INNER(a, b)

/// counter(name) += n.
#define MH_OBS_COUNT(name, n)                                         \
  do {                                                                \
    if (::mh::obs::enabled()) [[unlikely]] {                          \
      static ::mh::obs::Counter& mh_obs_counter_ =                    \
          ::mh::obs::Registry::global().counter(name);                \
      mh_obs_counter_.add(static_cast<std::uint64_t>(n));             \
    }                                                                 \
  } while (0)

/// gauge(name) = v (snapshot merges take the max across shards).
#define MH_OBS_GAUGE_SET(name, v)                                     \
  do {                                                                \
    if (::mh::obs::enabled()) [[unlikely]] {                          \
      static ::mh::obs::Gauge& mh_obs_gauge_ =                        \
          ::mh::obs::Registry::global().gauge(name);                  \
      mh_obs_gauge_.set(static_cast<std::int64_t>(v));                \
    }                                                                 \
  } while (0)

/// histogram(name).record(v) — log-bucketed, v must be unsigned-convertible.
#define MH_OBS_HIST(name, v)                                          \
  do {                                                                \
    if (::mh::obs::enabled()) [[unlikely]] {                          \
      static ::mh::obs::Histogram& mh_obs_hist_ =                     \
          ::mh::obs::Registry::global().histogram(name);              \
      mh_obs_hist_.record(static_cast<std::uint64_t>(v));             \
    }                                                                 \
  } while (0)

/// Duration histogram (ns) of the enclosing scope, under the given name.
#define MH_OBS_TIMER(name) ::mh::obs::ScopedTimer MH_OBS_CONCAT(mh_obs_timer_, __LINE__)(name)
