// E15 — the observability overhead gate: proves the metrics layer costs < 2%
// wall-clock on the E14 transport acceptance cell, and that enabling it
// changes no result bit.
//
// The probe cell (default 256 parties x 10^4 slots, the E14 acceptance
// point) runs in MH_OBS_BENCH_REPS pairs (default 3) of one run with metric
// recording off and one with it on, same seed every time. Each pair yields
// one overhead, (on - off) / off; which side of a pair runs first
// alternates, so drift within a pair (thermal, a neighbour's load) favours
// neither side, and the median over pairs absorbs the pairs a burst of host
// noise hit. What the median over pairs cannot absorb is the process itself:
// one process's layout (heap, code alignment) biases all of its pairs alike,
// and same-code processes' medians spread by a few percent. With
// MH_OBS_BENCH_PROCS=N (default 1; CI uses 5 x 15 pairs) the binary re-runs
// itself as N fresh processes, one after another, and gates on the median of
// their per-process medians. Two hard gates, each failing the process:
//
//   * every run — on or off, in every process — must produce the same digest
//     of the cell (instrumentation perturbing results is a correctness bug,
//     not a perf bug);
//   * the median overhead must stay below MH_OBS_MAX_OVERHEAD_PCT
//     (default 2.0).
//
// MH_BENCH_JSON=BENCH_obs.json archives the unified artifact (timings in the
// results block, the enabled runs' metrics in the metrics block; with
// several processes the metrics block is empty, the children recorded them).
#include <benchmark/benchmark.h>

#include "bench_harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

#include "protocol/transport_probe.hpp"

namespace {

/// One process's medians over its off/on pairs.
struct PairMedians {
  double off_ms = 0.0;        ///< median sim wall-clock, recording off
  double on_ms = 0.0;         ///< median sim wall-clock, recording on
  double overhead_pct = 0.0;  ///< median of the per-pair overheads
  std::uint64_t digest = 0;   ///< the cell's digest; 0 when runs disagreed
};

struct OverheadOutcome {
  PairMedians medians;  ///< over processes when there are several
  std::size_t parties = 0;
  std::size_t horizon = 0;
  std::size_t reps = 0;
  std::size_t procs = 0;
  bool digests_match = false;
  bool ok = false;
};

OverheadOutcome g_outcome;

/// The tagged line a child process reports its medians on.
constexpr const char* kChildLine =
    "obs pairs: off_ms=%lf on_ms=%lf overhead_pct=%lf digest=%llx";

PairMedians time_pairs(std::size_t parties, std::size_t horizon, std::size_t reps) {
  constexpr std::uint64_t kSeed = 20240914;
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

  const mh::bench::PairTiming t = mh::bench::time_pairs([&] { return probe(false); },
                                                        [&] { return probe(true); }, reps);
  return PairMedians{t.a, t.b, 100.0 * (t.ratio - 1.0), digests_match ? expect_digest : 0};
}

/// time_pairs in a fresh process: this binary again, with one process and no
/// artifact, read back from its tagged line. The child's exit status is its
/// own gate and is not consulted; a child that prints no line (a crash)
/// yields nothing.
std::optional<PairMedians> time_pairs_in_child(const std::string& exe) {
  const std::string cmd = "MH_OBS_BENCH_PROCS=1 MH_BENCH_JSON= '" + exe +
                          "' --benchmark_filter=NONE";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return std::nullopt;
  std::optional<PairMedians> out;
  char line[512];
  while (std::fgets(line, sizeof line, pipe) != nullptr) {
    PairMedians m;
    unsigned long long digest = 0;
    if (std::sscanf(line, kChildLine, &m.off_ms, &m.on_ms, &m.overhead_pct, &digest) == 4) {
      m.digest = digest;
      out = m;
    }
  }
  pclose(pipe);
  return out;
}

bool overhead_report() {
  const std::size_t parties = mh::env::size("MH_OBS_BENCH_PARTIES", 256, 1);
  const std::size_t horizon = mh::env::size("MH_OBS_BENCH_HORIZON", 10000, 1);
  const std::size_t reps = mh::env::size("MH_OBS_BENCH_REPS", 3, 1);
  const std::size_t procs = mh::env::size("MH_OBS_BENCH_PROCS", 1, 1);
  const double max_overhead_pct = mh::env::positive_number("MH_OBS_MAX_OVERHEAD_PCT", 2.0);

  std::printf("obs overhead gate: %zu parties x %zu slots, median of %zu off/on pairs "
              "in %zu process(es) (MH_OBS_BENCH_{PARTIES,HORIZON,REPS,PROCS})\n",
              parties, horizon, reps, procs);

  OverheadOutcome& o = g_outcome;
  o.parties = parties;
  o.horizon = horizon;
  o.reps = reps;
  o.procs = procs;
  if (procs == 1) {
    // The harness may have force-enabled recording for --list-metrics;
    // restore whatever state we entered with after the off runs.
    const bool was_enabled = mh::obs::enabled();
    o.medians = time_pairs(parties, horizon, reps);
    mh::obs::set_enabled(was_enabled);
    o.digests_match = o.medians.digest != 0;
    const PairMedians& m = o.medians;
    std::printf(kChildLine, m.off_ms, m.on_ms, m.overhead_pct,
                static_cast<unsigned long long>(m.digest));
    std::printf("\n");
  } else {
    const std::string exe = std::filesystem::read_symlink("/proc/self/exe").string();
    std::vector<double> off_ms, on_ms, overhead_pct;
    std::uint64_t expect_digest = 0;
    o.digests_match = true;
    for (std::size_t p = 0; p < procs; ++p) {
      const std::optional<PairMedians> m = time_pairs_in_child(exe);
      if (!m) {
        std::printf("  process %zu: reported no medians\n", p + 1);
        o.digests_match = false;
        continue;
      }
      std::printf("  process %zu: off %.1f ms, on %.1f ms, median pair overhead %+.2f%%, "
                  "digest 0x%016llx\n",
                  p + 1, m->off_ms, m->on_ms, m->overhead_pct,
                  static_cast<unsigned long long>(m->digest));
      if (expect_digest == 0) expect_digest = m->digest;
      if (m->digest == 0 || m->digest != expect_digest) o.digests_match = false;
      off_ms.push_back(m->off_ms);
      on_ms.push_back(m->on_ms);
      overhead_pct.push_back(m->overhead_pct);
    }
    if (!off_ms.empty())
      o.medians = PairMedians{mh::bench::median(off_ms), mh::bench::median(on_ms),
                              mh::bench::median(overhead_pct), expect_digest};
  }
  const PairMedians& m = o.medians;
  o.ok = o.digests_match && m.overhead_pct <= max_overhead_pct;

  std::printf("  metrics off: %.1f ms   metrics on: %.1f ms (medians)   "
              "median overhead: %+.2f%%\n",
              m.off_ms, m.on_ms, m.overhead_pct);
  std::printf("  digests (on == off == 0x%016llx): %s\n",
              static_cast<unsigned long long>(m.digest),
              o.digests_match ? "match" : "MISMATCH");
  std::printf("  gate: overhead <= %.1f%% -> %s\n\n", max_overhead_pct, o.ok ? "pass" : "FAIL");
  return o.ok;
}

mh::obs::Json overhead_results() {
  mh::obs::Json results = mh::obs::Json::object();
  results.set("parties", g_outcome.parties);
  results.set("horizon", g_outcome.horizon);
  results.set("reps", g_outcome.reps);
  results.set("procs", g_outcome.procs);
  results.set("off_ms", g_outcome.medians.off_ms);
  results.set("on_ms", g_outcome.medians.on_ms);
  results.set("overhead_pct", g_outcome.medians.overhead_pct);
  results.set("digests_match", g_outcome.digests_match);
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  mh::bench::MainOptions options;
  options.results = overhead_results;
  return mh::bench::run_main(argc, argv, "obs", overhead_report, options);
}
