// Shared plumbing of the benchmark driver: command-line arguments, the
// result record every workload returns, order statistics, memory probes and
// the steady-clock helpers the per-layer spans are built from.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring budget of one run
  bool trace = false;     ///< false: end-to-end metrics; true: per-layer metrics
};

/// One named number with its unit, printed into the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports: the correctness tally and its metrics.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed checks, a failed traced-run guard included
  std::vector<Metric> metrics;
};

/// The end-to-end metric set (tracing off). `throughput` is work units per
/// second: block x recipient acceptances, graded executions or full
/// k-series, by workload.
void add_end_to_end(Result& result, double throughput, double setup_s);

/// The per-layer metric set (traced run). Every workload reports every name;
/// a layer the workload never calls reads 0.
class LayerMetrics {
 public:
  LayerMetrics();
  void set(const std::string& name, double value);
  void append_to(Result& result) const;

 private:
  std::map<std::string, double> values_;
};

/// Median / nearest-rank percentile (q in [0, 1]) of a sample; 0 when empty.
double median(std::vector<double> values);
double percentile(std::vector<double> values, double q);

/// Process peak resident set size (getrusage high-water mark), MiB.
double peak_rss_mib();

/// Prints "guard <name>: pass|FAIL" and returns `ok`.
bool report_guard(const std::string& name, bool ok);

/// Prints the traced-vs-untraced wall time of one repetition.
void report_tracing_overhead(double untraced_s, double traced_s);

}  // namespace perfbench
