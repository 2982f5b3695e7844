// perfbench — the repository's benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload for the given measuring budget and prints a report,
// then, as its last stdout line, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set of a separate traced pass. Exit status 0 means the run
// completed (correctness is in the JSON); 2 means bad arguments or an error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Result;

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "lockstep_deep|oracle_band|settlement_dp --seed N "
               "--seconds S --trace 0|1\n",
               problem.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  if (used != text.size() || text.front() == '-')
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  return value;
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t seconds = parse_u64(flag, value);
      if (seconds < 1 || seconds > 600) usage("--seconds must lie in [1, 600]");
      args.seconds = static_cast<double>(seconds);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

void print_result(const Result& result) {
  const bool correct = result.failed == 0;
  std::printf("failed_frac: %.6f (%llu failed of %llu attempted)\n",
              static_cast<double>(result.failed) / static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const perfbench::Metric& m : result.metrics)
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Result (*run)(const Args&) = nullptr;
  if (args.workload == "lockstep_deep") run = perfbench::run_lockstep_deep;
  else if (args.workload == "oracle_band") run = perfbench::run_oracle_band;
  else if (args.workload == "settlement_dp") run = perfbench::run_settlement_dp;
  else usage("unknown workload '" + args.workload + "'");
  try {
    std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
    print_result(run(args));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  return 0;
}
