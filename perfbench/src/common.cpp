#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

// name -> unit, in the order BENCHMARK.json lists them.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"sim.slot_us_p50", "us"},
    {"sim.slot_us_p99", "us"},
    {"sim.setup_ns_per_party", "ns"},
    {"schedule.eligible_calls", "count"},
    {"schedule.ns_per_eligible", "ns"},
    {"schedule.advance_us_per_epoch", "us"},
    {"adversary.ns_per_slot", "ns"},
    {"net.broadcast_ns_per_block", "ns"},
    {"net.collect_ns_per_delivery", "ns"},
    {"net.deliveries_per_held", "ratio"},
    {"node.receive_ns_per_delivery", "ns"},
    {"node.accept_ratio", "ratio"},
    {"tree.held_blocks", "count"},
    {"tree.public_add_ns_per_block", "ns"},
    {"tree.bytes_per_held", "B"},
    {"oracle.schedule_us", "us"},
    {"oracle.simulate_us", "us"},
    {"oracle.project_us", "us"},
    {"oracle.validate_us", "us"},
    {"oracle.reduce_us", "us"},
    {"oracle.degraded_runs", "count"},
    {"oracle.unbounded_runs", "count"},
    {"faults.injected_per_run", "count"},
    {"faults.resync_blocks_per_run", "count"},
    {"dp.init_ms_per_law", "ms"},
    {"dp.kernel_ms_per_law", "ms"},
    {"dp.law_ms_max", "ms"},
    {"engine.busy_frac", "ratio"},
    {"engine.tail_ms", "ms"},
};

}  // namespace

void add_end_to_end(Result& result, double throughput, double setup_s) {
  result.metrics.push_back({"throughput", throughput, "1/s"});
  result.metrics.push_back({"setup_s", setup_s, "s"});
  result.metrics.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
}

LayerMetrics::LayerMetrics() {
  for (const auto& [name, unit] : kLayerMetrics) values_[name] = 0.0;
}

void LayerMetrics::set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::logic_error("unknown layer metric " + name);
  it->second = std::isfinite(value) ? value : 0.0;
}

void LayerMetrics::append_to(Result& result) const {
  for (const auto& [name, unit] : kLayerMetrics)
    result.metrics.push_back({name, values_.at(name), unit});
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q == 0.5 && values.size() % 2 == 0)
    return 0.5 * (values[values.size() / 2 - 1] + values[values.size() / 2]);
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

bool report_guard(const std::string& name, bool ok) {
  std::printf("guard %s: %s\n", name.c_str(), ok ? "pass" : "FAIL");
  return ok;
}

void report_tracing_overhead(double untraced_s, double traced_s) {
  std::printf("tracing overhead: untraced %.4f s, traced %.4f s, difference %+.4f s (%+.1f%%)\n",
              untraced_s, traced_s, traced_s - untraced_s,
              untraced_s > 0.0 ? 100.0 * (traced_s - untraced_s) / untraced_s : 0.0);
}

}  // namespace perfbench
