// Shared driver for the bench/ executables.
//
// Every bench used to hand-roll the same main(): thread banner, a stdout
// report, benchmark::Initialize + RunSpecifiedBenchmarks, exit code. The
// harness centralizes that plus the observability plumbing:
//
//   * --list-metrics: switch metric recording on and print the registry
//     snapshot as an aligned table after the run;
//   * MH_BENCH_JSON=<path>: write the unified "mh-bench-v1" artifact (run
//     metadata + metrics snapshot) — the BENCH_*.json files CI archives;
//   * timing helpers (a median, and alternating A/B pairs) for benches that
//     measure outside google-benchmark: the bench_obs_overhead and
//     bench_faults overhead gates.
//
// The report callback returns false to fail the process (seed-pin drift,
// dirty oracle matrices); post_run_clean re-checks after the timed
// benchmarks, for flags the timed iterations may set.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "engine/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"
#include "support/env.hpp"

namespace mh::bench {

/// "[lo, hi]", the report tables' interval cell. Built by appends: GCC 12
/// reports a false -Wrestrict overlap for a literal prepended to a
/// temporary string ("[" + s).
inline std::string interval(const std::string& lo, const std::string& hi) {
  std::string out = "[";
  out += lo;
  out += ", ";
  out += hi;
  out += ']';
  return out;
}

/// Median of the samples (average of the middle two for even sizes).
inline double median(std::vector<double> samples) {
  MH_REQUIRE(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

/// Medians of an A/B timing taken in alternating pairs.
struct PairTiming {
  double a = 0.0;      ///< median time of side A
  double b = 0.0;      ///< median time of side B
  double ratio = 0.0;  ///< median over pairs of B / A
};

/// Times `pairs` A/B pairs after one untimed warmup pair; run_a() and
/// run_b() each run one side once and return its time (any unit, the same
/// for both). Which side runs first alternates, so drift within a pair
/// favours neither side, and the median of the per-pair ratios absorbs the
/// pairs a burst of host noise hit.
template <class A, class B>
PairTiming time_pairs(A&& run_a, B&& run_b, std::size_t pairs) {
  MH_REQUIRE(pairs >= 1);
  run_a();
  run_b();
  std::vector<double> a, b, ratio;
  for (std::size_t i = 0; i < pairs; ++i) {
    const bool b_first = i % 2 == 1;
    const double first = b_first ? run_b() : run_a();
    const double second = b_first ? run_a() : run_b();
    a.push_back(b_first ? second : first);
    b.push_back(b_first ? first : second);
    ratio.push_back(b.back() / a.back());
  }
  return PairTiming{median(std::move(a)), median(std::move(b)), median(std::move(ratio))};
}

struct MainOptions {
  bool thread_banner = true;  ///< print the "engine: N thread(s)" header
  /// Re-checked after the timed benchmarks ran (they may flip failure flags
  /// the pre-run report cannot see); false fails the process.
  std::function<bool()> post_run_clean{};
  /// Bench-specific block for the MH_BENCH_JSON artifact; when unset the
  /// results block is just {"report_ok": ...}.
  std::function<obs::Json()> results{};
};

/// Strict boolean env knob — the shared parser in support/env.hpp, which
/// rejects malformed values instead of treating "false"/"off" as enabled.
inline bool env_flag(const char* name) { return ::mh::env::flag(name); }

/// The shared main(): report, timed benchmarks, metrics dump + JSON artifact.
/// `bench_name` is the artifact name stamped into MH_BENCH_JSON output.
inline int run_main(int argc, char** argv, const char* bench_name,
                    const std::function<bool()>& report, MainOptions options = {}) {
  // --list-metrics is ours, not google-benchmark's: strip it before
  // Initialize. It implies recording on.
  bool dump = false;
  for (int i = 1; i < argc;) {
    if (std::strcmp(argv[i], "--list-metrics") == 0) {
      dump = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      argv[--argc] = nullptr;
    } else {
      ++i;
    }
  }
  if (dump) obs::set_enabled(true);

  if (options.thread_banner) engine::print_thread_banner();
  bool ok = report ? report() : true;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (options.post_run_clean) ok = options.post_run_clean() && ok;

  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  if (dump) {
    if (snapshot.empty())
      std::printf("\nmetrics: registry is empty\n");
    else
      std::printf("\n%s", obs::metrics_table(snapshot).c_str());
  }

  if (const char* path = std::getenv("MH_BENCH_JSON"); path != nullptr && *path != '\0') {
    obs::Json results = options.results ? options.results() : obs::Json::object();
    results.set("report_ok", ok);
    obs::JsonExporter::write_file(path, obs::RunMeta::current(bench_name), snapshot,
                                  std::move(results));
    std::printf("bench harness: wrote %s\n", path);
  }
  return ok ? 0 : 1;
}

}  // namespace mh::bench
