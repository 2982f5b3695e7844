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
//   * median-of-N timing helpers (warmup + repetitions) for benches that
//     measure outside google-benchmark (e.g. bench_obs_overhead).
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

/// Median of the samples (average of the middle two for even sizes).
inline double median(std::vector<double> samples) {
  MH_REQUIRE(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

/// Wall-clock median-of-reps of fn() in nanoseconds, after `warmup` untimed
/// calls.
template <class F>
inline double time_median_ns(F&& fn, std::size_t warmup, std::size_t reps) {
  MH_REQUIRE(reps >= 1);
  for (std::size_t i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const std::uint64_t begin = obs::now_ns();
    fn();
    samples.push_back(static_cast<double>(obs::now_ns() - begin));
  }
  return median(std::move(samples));
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
