// E15 — the observability overhead gate: proves the metrics layer costs < 2%
// wall-clock on the E14 transport acceptance cell, and that enabling it
// changes no result bit.
//
// The probe cell (default 256 parties x 10^4 slots, the E14 acceptance
// point) runs alternately with metric recording off and on, same seed every
// time; medians over MH_OBS_BENCH_REPS repetitions (default 3, CI uses 5)
// absorb scheduler noise. Two hard gates, each failing the process:
//
//   * every run — on or off — must produce the golden digest of the cell
//     (instrumentation perturbing results is a correctness bug, not a perf
//     bug);
//   * median overhead must stay below MH_OBS_MAX_OVERHEAD_PCT (default 2.0).
//
// MH_BENCH_JSON=BENCH_obs.json archives the unified artifact (timings in the
// results block, the enabled runs' metrics in the metrics block).
#include <benchmark/benchmark.h>

#include "bench_harness.hpp"

#include <cstdio>
#include <cstdlib>

#include "protocol/transport_probe.hpp"

namespace {

struct OverheadOutcome {
  double off_ms = 0.0;  ///< median sim wall-clock, recording off
  double on_ms = 0.0;   ///< median sim wall-clock, recording on
  double overhead_pct = 0.0;
  std::size_t parties = 0;
  std::size_t horizon = 0;
  std::size_t reps = 0;
  bool digests_match = false;
  bool ok = false;
};

OverheadOutcome g_outcome;

bool overhead_report() {
  const std::size_t parties = mh::env::size("MH_OBS_BENCH_PARTIES", 256, 1);
  const std::size_t horizon = mh::env::size("MH_OBS_BENCH_HORIZON", 10000, 1);
  const std::size_t reps = mh::env::size("MH_OBS_BENCH_REPS", 3, 1);
  const double max_overhead_pct = mh::env::positive_number("MH_OBS_MAX_OVERHEAD_PCT", 2.0);
  constexpr std::uint64_t kSeed = 20240914;

  // The harness may have force-enabled recording for --list-metrics; restore
  // whatever state we entered with after the off runs.
  const bool was_enabled = mh::obs::enabled();

  std::printf("obs overhead gate: %zu parties x %zu slots, median of %zu "
              "(MH_OBS_BENCH_{PARTIES,HORIZON,REPS})\n",
              parties, horizon, reps);

  std::uint64_t expect_digest = 0;
  bool digests_match = true;
  const auto probe = [&](bool enabled) {
    mh::obs::set_enabled(enabled);
    const mh::TransportProbeOutcome out =
        mh::balance_transport_probe(parties, horizon, kSeed);
    if (expect_digest == 0) expect_digest = out.digest;
    if (out.digest != expect_digest) digests_match = false;
    return out.seconds * 1e3;
  };

  // One warmup pair, then alternating off/on so drift (thermal, page cache)
  // hits both sides equally.
  probe(false);
  probe(true);
  std::vector<double> off_ms, on_ms;
  for (std::size_t r = 0; r < reps; ++r) {
    off_ms.push_back(probe(false));
    on_ms.push_back(probe(true));
  }
  mh::obs::set_enabled(was_enabled);

  OverheadOutcome& o = g_outcome;
  o.parties = parties;
  o.horizon = horizon;
  o.reps = reps;
  o.off_ms = mh::bench::median(off_ms);
  o.on_ms = mh::bench::median(on_ms);
  o.overhead_pct = 100.0 * (o.on_ms - o.off_ms) / o.off_ms;
  o.digests_match = digests_match;
  o.ok = digests_match && o.overhead_pct <= max_overhead_pct;

  std::printf("  metrics off: %.1f ms   metrics on: %.1f ms   overhead: %+.2f%%\n",
              o.off_ms, o.on_ms, o.overhead_pct);
  std::printf("  digests (on == off == 0x%016llx): %s\n",
              static_cast<unsigned long long>(expect_digest),
              digests_match ? "match" : "MISMATCH");
  std::printf("  gate: overhead <= %.1f%% -> %s\n\n", max_overhead_pct, o.ok ? "pass" : "FAIL");
  return o.ok;
}

mh::obs::Json overhead_results() {
  mh::obs::Json results = mh::obs::Json::object();
  results.set("parties", g_outcome.parties);
  results.set("horizon", g_outcome.horizon);
  results.set("reps", g_outcome.reps);
  results.set("off_ms", g_outcome.off_ms);
  results.set("on_ms", g_outcome.on_ms);
  results.set("overhead_pct", g_outcome.overhead_pct);
  results.set("digests_match", g_outcome.digests_match);
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  mh::bench::MainOptions options;
  options.results = overhead_results;
  return mh::bench::run_main(argc, argv, "obs", overhead_report, options);
}
