// Exporters for the unified BENCH_* artifact schema and human-readable dumps.
//
// Every bench emits the same JSON shape (schema "mh-bench-v1"):
//
//   {
//     "schema":  "mh-bench-v1",
//     "bench":   "<name>",
//     "meta":    { "git_rev", "threads", "obs_enabled", "unix_time" },
//     "results": { ...bench-specific rows... },
//     "metrics": { "counters": [...], "gauges": [...], "histograms": [...] }
//   }
//
// Metric arrays are sorted by name so artifacts diff cleanly run to run;
// histogram buckets are emitted sparsely ({"lo": 2^(i-1), "count": n} for
// non-empty buckets only). metrics_table renders the same snapshot with
// support/table for the benches' --list-metrics flag.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace mh::obs {

/// A tiny ordered JSON document builder (objects keep insertion order).
class Json {
 public:
  Json() : Json(nullptr) {}  // null
  Json(std::nullptr_t);
  Json(bool b);
  Json(double d);
  Json(std::uint64_t u);
  Json(std::int64_t i);
  Json(int i) : Json(static_cast<std::int64_t>(i)) {}
  Json(unsigned u) : Json(static_cast<std::uint64_t>(u)) {}
  // uint64_t is `unsigned long` on LP64; cover the remaining width-64 type.
  template <class T, class = std::enable_if_t<std::is_same_v<T, unsigned long long> &&
                                              !std::is_same_v<T, std::uint64_t>>>
  Json(T u) : Json(static_cast<std::uint64_t>(u)) {}
  Json(const char* s);
  Json(std::string s);

  Json(const Json&);
  Json(Json&&) noexcept;
  Json& operator=(Json);
  ~Json();

  static Json object();
  static Json array();

  /// Object member set; replaces an existing key in place. Returns *this.
  Json& set(std::string key, Json value);
  /// Array append. Returns *this.
  Json& push(Json value);

  [[nodiscard]] std::string dump(int indent = 2) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  void render(std::string& out, int indent, int level) const;
};

/// Run metadata stamped into every exported artifact.
struct RunMeta {
  std::string bench;       ///< artifact name ("oracle", "protocol_scale", ...)
  std::size_t threads = 0; ///< resolved engine parallelism
  bool obs_enabled = false;

  /// Meta with git_rev / obs_enabled / threads resolved from the build and
  /// the process environment (MH_THREADS).
  static RunMeta current(std::string bench);
};

/// Git revision baked into the build (CMake's MH_GIT_REV), "unknown" outside
/// a git checkout.
const char* build_git_rev() noexcept;

class JsonExporter {
 public:
  /// The unified document; `results` is the bench-specific block (pass
  /// Json::object() when there is nothing to report).
  static Json document(const RunMeta& meta, const Snapshot& snapshot, Json results);
  static std::string render(const RunMeta& meta, const Snapshot& snapshot, Json results);
  /// Render + write; throws std::runtime_error when the file cannot be written.
  static void write_file(const std::string& path, const RunMeta& meta,
                         const Snapshot& snapshot, Json results);
};

/// The snapshot as an aligned text table (support/table), sorted by name —
/// the --list-metrics rendering.
std::string metrics_table(const Snapshot& snapshot);

}  // namespace mh::obs
