// E14/E17 — the protocol transport at scale: deep-horizon executions with up
// to 1024 honest parties, a 10^5-party committee cell, and (behind
// MH_BENCH_DEEP=1) a 10^6-party smoke cell plus a 10^7-slot horizon cell —
// exercising the slot-bucketed chain-synced Network, the SoA BlockTree and
// the nodes' membership views over it.
// Per-slot transport cost is proportional to the slot's NEW blocks, so
// wall-clock grows ~linearly in the horizon where the seed transport (full
// ancestor-chain rebroadcast + queue scans) grew quadratically — the
// "simulate long enough to see the linear-consistency regime" requirement.
//
// The report fans the (parties x horizon) sweep across engine::for_each_index
// (MH_THREADS) and prints blocks, wall-clock, and slots/s per cell. Before
// timing anything it verifies the two golden seed pins from
// protocol/transport_probe.hpp — digests of a fixed balance-attack execution
// and a fixed randomized-adversary execution (the latter covers Delta-delays,
// partial leaks, and orphan flushes). The wide cells (10^5 parties and the
// deep tier) carry their own pinned digests. Any transport or tree refactor
// that shifts delivery order, acceptance order, or the public view trips a
// pin and the process exits non-zero, failing the CI bench job.
//
// MH_BENCH_JSON=<path> archives every cell outcome (blocks, wall, digest,
// gate verdict) in the results block — the BENCH_protocol_scale.json
// trajectory CI keeps run over run. Deep-tier cells add their footprint:
// the whole probe's wall time (schedule draw, run, end-of-run observers and
// teardown) and the process's peak RSS after the cell.
#include <benchmark/benchmark.h>

#include "bench_harness.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/seed_sequence.hpp"
#include "engine/thread_pool.hpp"
#include "protocol/blocktree.hpp"
#include "protocol/transport_probe.hpp"
#include "support/table.hpp"

namespace {

/// One sweep cell: seeded from SeedSequence(97).derive(derivation). A
/// non-zero pin is a golden digest gate — drift fails the process.
struct ScaleCell {
  std::size_t parties;
  std::size_t horizon;
  std::size_t derivation;
  std::uint64_t pin = 0;
};

// The quick sweep: every party-count axis value at horizons the seed
// transport could not reach interactively, plus the 10^5-party committee
// cell (~0.5 s on one core — cheap enough for the CI bench-smoke job, wide
// enough that per-party set-up and the node loop are on the hot path). The
// registered benchmarks carry the mid-size deep cells (horizon up to 1e5).
constexpr ScaleCell kSweepCells[] = {
    {16, 10000, 0},
    {64, 10000, 1},
    {256, 2500, 2},
    {1024, 1000, 3},
    {100000, 25, 4, 0xae56b39a9e692465ULL},
};

// The deep tier (MH_BENCH_DEEP=1): a 10^6-party smoke cell (~0.25 GB peak,
// under 1 s) and a 10^7-slot horizon cell (~3.6 GB peak, ~40 s, 1.25e7
// blocks in every view) — the scale points E17 quotes; the report prints
// each cell's measured footprint. Run serially: two of these side by side
// would double the peak footprint for no timing benefit.
constexpr ScaleCell kDeepCells[] = {
    {1000000, 16, 5, 0x3a321fa47de34b4dULL},
    {16, 10000000, 6, 0xd6da7d1820c614b2ULL},
};

struct CellRecord {
  mh::TransportProbeOutcome outcome;
  std::uint64_t pin = 0;
  bool pin_ok = true;
  double total_s = 0.0;       ///< the whole probe call; outcome.seconds is sim.run() alone
  double peak_rss_mib = 0.0;  ///< process high-water mark after the cell (deep tier)
};

std::vector<CellRecord> g_sweep_records;
std::vector<CellRecord> g_deep_records;
bool g_deep_enabled = false;

bool check_seed_pins() {
  const mh::TransportProbeOutcome balance = mh::balance_transport_probe(
      mh::kBalanceProbePinParties, mh::kBalanceProbePinHorizon, mh::kBalanceProbePinSeed);
  const mh::TransportProbeOutcome randomized = mh::randomized_transport_probe(
      mh::kRandomizedProbePinParties, mh::kRandomizedProbePinHorizon,
      mh::kRandomizedProbePinSeed, mh::kRandomizedProbePinDelta);
  const bool ok = balance.digest == mh::kBalanceProbePinDigest &&
                  randomized.digest == mh::kRandomizedProbePinDigest;
  std::printf("seed pins: balance 0x%016llx (want 0x%016llx), randomized 0x%016llx "
              "(want 0x%016llx) -> %s\n\n",
              static_cast<unsigned long long>(balance.digest),
              static_cast<unsigned long long>(mh::kBalanceProbePinDigest),
              static_cast<unsigned long long>(randomized.digest),
              static_cast<unsigned long long>(mh::kRandomizedProbePinDigest),
              ok ? "ok" : "DRIFT");
  return ok;
}

/// getrusage's ru_maxrss: the process's peak so far (KiB on Linux), so it
/// never falls between cells.
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

CellRecord run_cell(const ScaleCell& cell) {
  const mh::engine::SeedSequence seeds(97);
  CellRecord rec;
  const auto start = std::chrono::steady_clock::now();
  rec.outcome =
      mh::balance_transport_probe(cell.parties, cell.horizon, seeds.derive(cell.derivation));
  rec.total_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  rec.pin = cell.pin;
  rec.pin_ok = cell.pin == 0 || rec.outcome.digest == cell.pin;
  return rec;
}

/// `footprint` adds the deep tier's total-wall and peak-RSS columns.
bool print_cells(const char* title, const std::vector<CellRecord>& records, bool footprint) {
  std::printf("%s\n\n", title);
  bool ok = true;
  std::vector<std::string> header{"parties", "horizon",    "blocks",     "wall [s]",
                                  "slots/s", "divergence", "digest gate"};
  if (footprint) {
    header.emplace_back("total [s]");
    header.emplace_back("process peak RSS, monotone [MiB]");
  }
  mh::TextTable table(std::move(header));
  for (const CellRecord& rec : records) {
    const mh::TransportProbeOutcome& out = rec.outcome;
    ok = ok && rec.pin_ok;
    std::vector<std::string> row{
        std::to_string(out.parties), std::to_string(out.horizon), std::to_string(out.blocks),
        mh::fixed(out.seconds, 3),
        std::to_string(static_cast<std::size_t>(static_cast<double>(out.horizon) / out.seconds)),
        std::to_string(out.divergence), rec.pin == 0 ? "-" : (rec.pin_ok ? "ok" : "DRIFT")};
    if (footprint) {
      row.push_back(mh::fixed(rec.total_s, 3));
      row.push_back(mh::fixed(rec.peak_rss_mib, 0));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  return ok;
}

bool sweep_report() {
  constexpr std::size_t n = sizeof(kSweepCells) / sizeof(kSweepCells[0]);
  std::vector<CellRecord> records(n);
  mh::engine::for_each_index(n, mh::engine::threads_from_env(),
                             [&](std::size_t i) { records[i] = run_cell(kSweepCells[i]); });
  g_sweep_records = records;
  return print_cells(
      "Protocol transport scale sweep (balance attack, law "
      "(ph,pH,pA)=(.40,.25,.35), Delta=0)",
      records, false);
}

bool deep_report() {
  g_deep_enabled = mh::bench::env_flag("MH_BENCH_DEEP");
  if (!g_deep_enabled) {
    std::printf("deep tier: skipped (MH_BENCH_DEEP=1 runs the 10^6-party smoke cell "
                "and the 10^7-slot horizon cell)\n\n");
    return true;
  }
  // Serial on purpose (memory, not time, is the binding constraint); each
  // cell returns its arena storage before the next begins, and the trim
  // drops the donated free-list buffers (GBs after the horizon cell's two
  // trees) before anything else runs.
  std::vector<CellRecord> records;
  for (const ScaleCell& cell : kDeepCells) {
    records.push_back(run_cell(cell));
    records.back().peak_rss_mib = peak_rss_mib();
    mh::BlockTree::arena_trim();
  }
  g_deep_records = records;
  return print_cells("Deep tier (MH_BENCH_DEEP=1): committee-scale smoke + deep horizon",
                     records, true);
}

mh::obs::Json cell_json(const CellRecord& rec, bool footprint) {
  char digest_hex[19];
  std::snprintf(digest_hex, sizeof(digest_hex), "0x%016llx",
                static_cast<unsigned long long>(rec.outcome.digest));
  mh::obs::Json cell = mh::obs::Json::object();
  cell.set("parties", rec.outcome.parties);
  cell.set("horizon", rec.outcome.horizon);
  cell.set("blocks", rec.outcome.blocks);
  cell.set("divergence", rec.outcome.divergence);
  cell.set("wall_s", rec.outcome.seconds);
  cell.set("slots_per_s", static_cast<double>(rec.outcome.horizon) / rec.outcome.seconds);
  cell.set("digest", digest_hex);
  cell.set("digest_gated", rec.pin != 0);
  cell.set("digest_ok", rec.pin_ok);
  if (footprint) {
    cell.set("total_s", rec.total_s);
    cell.set("peak_rss_mib", rec.peak_rss_mib);
  }
  return cell;
}

mh::obs::Json scale_results() {
  mh::obs::Json sweep = mh::obs::Json::array();
  for (const CellRecord& rec : g_sweep_records) sweep.push(cell_json(rec, false));
  mh::obs::Json deep = mh::obs::Json::array();
  for (const CellRecord& rec : g_deep_records) deep.push(cell_json(rec, true));
  mh::obs::Json results = mh::obs::Json::object();
  results.set("sweep", std::move(sweep));
  results.set("deep_enabled", g_deep_enabled);
  results.set("deep", std::move(deep));
  return results;
}

// range(0) = parties, range(1) = horizon. The (256, 10000) cell is the
// acceptance point of the transport rewrite (seed transport: ~20 min; now
// ~0.25 s with node views over one block store); (16, 100000) is the
// deep-horizon regime the registered benchmarks can reach without the
// MH_BENCH_DEEP gate.
void BM_ProtocolScale(benchmark::State& state) {
  const auto parties = static_cast<std::size_t>(state.range(0));
  const auto horizon = static_cast<std::size_t>(state.range(1));
  std::uint64_t seed = 1861;
  for (auto _ : state) {
    const mh::TransportProbeOutcome out =
        mh::balance_transport_probe(parties, horizon, seed++);
    benchmark::DoNotOptimize(out.digest);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(horizon));
}
BENCHMARK(BM_ProtocolScale)
    ->Args({64, 2000})
    ->Args({256, 10000})
    ->Args({16, 100000})
    ->Args({1024, 2500})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  mh::bench::MainOptions options;
  options.results = scale_results;
  return mh::bench::run_main(
      argc, argv, "protocol_scale",
      [] {
        const bool pins_ok = check_seed_pins();  // seed-pin drift fails the CI bench job
        if (!pins_ok) return false;
        const bool sweep_ok = sweep_report();
        const bool deep_ok = deep_report();
        return sweep_ok && deep_ok;
      },
      options);
}
