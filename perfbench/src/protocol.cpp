// lockstep_deep: one serial balance-attack execution per repetition, on the
// law and network shape of the E14 transport cells.
//
// Untraced, a repetition is: draw the schedule and construct the Simulation
// (setup), then run() (the timed part). Repetitions cycle through
// kCellsPerRun cells. Throughput counts block x recipient acceptances (blocks
// held across the views, genesis excluded) over the timed seconds: the work a
// run does scales with them, and their number varies by cell, which slots
// per second would report as speed. It is total work over total time rather
// than a median repetition, because host contention makes repetition times
// bimodal and a median jumps between the modes.
// Repetitions run back to back on one thread, so only the first finds the
// BlockTree storage arena cold; it is left out of the throughput, and the
// arena's high-water mark shows in peak_rss_mb. The extra cost of a cold
// repetition is mostly the kernel handing out fresh arena pages, not work of
// the layers this workload is meant to expose.
//
// Traced, a repetition runs the same cell four ways:
//   (a) plain run(), the untraced reference digest and wall time;
//   (b) through TimedSchedule + TimedAdversary, one run_until per slot, for
//       the sim/schedule/adversary/tree numbers; its digest must equal (a);
//   (c) the null adversary through Simulation;
//   (d) the replay twin: the null-adversary execution re-driven in this
//       file's own slot loop over the public node/network/tree calls, timed
//       per phase, for the net/node/tree split; its digest must equal (c).
#include <algorithm>
#include <cstdio>

#include "engine/seed_sequence.hpp"
#include "probes.hpp"
#include "protocol/adversary.hpp"
#include "protocol/transport_probe.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mh::Block;
using mh::BlockHash;
using mh::BlockTree;

struct Shape {
  const char* name;
  std::size_t parties;
  std::size_t horizon;
};

constexpr Shape kLockstepDeep{"lockstep_deep", 256, 10000};

/// Untraced repetitions cycle through this many cells, drawn from the run's
/// seed, so a run's figure averages over cell shapes instead of resting on
/// one. The traced run uses the first of them.
constexpr std::size_t kCellsPerRun = 8;

/// A pre-drawn cell, laid out like the transport probes' streams (schedule,
/// then the adversary seed, then the simulation seed), so a cell seed that
/// the repo pins reproduces the pinned digest here.
struct Cell {
  mh::LeaderSchedule schedule;
  std::uint64_t sim_seed;
};

Cell draw_cell(std::size_t parties, std::size_t horizon, std::uint64_t seed) {
  mh::Rng rng(seed);
  mh::LeaderSchedule schedule =
      mh::LeaderSchedule::from_symbol_law(mh::kTransportProbeLaw, horizon, parties, rng);
  (void)rng();  // the probes' adversary-seed draw
  const std::uint64_t sim_seed = rng();
  return Cell{std::move(schedule), sim_seed};
}

mh::SimulationConfig sim_config(const Cell& cell) {
  return mh::SimulationConfig{mh::TieBreak::AdversarialOrder, cell.sim_seed};
}

/// Max over pairs of adopted heads of l(h1) - l(common ancestor), on the
/// omniscient tree (Simulation::observed_slot_divergence, no faults).
std::size_t slot_divergence(const BlockTree& global, std::vector<BlockHash> heads) {
  std::sort(heads.begin(), heads.end());
  heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
  std::size_t best = 0;
  for (const BlockHash h1 : heads)
    for (const BlockHash h2 : heads) {
      const std::uint64_t l1 = global.block(h1).slot;
      if (l1 > global.block(h2).slot) continue;
      const BlockHash meet = global.common_ancestor(h1, h2);
      best = std::max(best, static_cast<std::size_t>(l1 - global.block(meet).slot));
    }
  return best;
}

/// The transport probes' digest: creation order, public acceptance order,
/// adopted heads, final divergence.
std::uint64_t fold_digest(const std::vector<Block>& all_blocks, const BlockTree& public_tree,
                          const std::vector<BlockHash>& heads, std::size_t divergence) {
  std::uint64_t digest = mh::kFnvOffsetBasis;
  for (const Block& b : all_blocks) digest = mh::fnv1a_accumulate(digest, b.hash);
  for (const BlockHash h : public_tree.arrival_order()) digest = mh::fnv1a_accumulate(digest, h);
  for (const BlockHash h : heads) digest = mh::fnv1a_accumulate(digest, h);
  return mh::fnv1a_accumulate(digest, divergence);
}

std::vector<BlockHash> adopted_heads(const mh::Simulation& sim) {
  std::vector<BlockHash> heads;
  heads.reserve(sim.nodes().size());
  for (const mh::HonestNode& node : sim.nodes()) heads.push_back(node.best_head());
  return heads;
}

std::uint64_t sim_digest(const mh::Simulation& sim) {
  return fold_digest(sim.all_blocks(), sim.public_tree(), adopted_heads(sim),
                     sim.observed_slot_divergence());
}

/// Every honest block forged before the final slot reached every node (at
/// Delta = 0 with no faults, the run's closing flush delivers it).
bool honest_blocks_delivered(const mh::Simulation& sim) {
  const std::size_t horizon = sim.schedule().horizon();
  for (const Block& b : sim.all_blocks()) {
    if (b.issuer == mh::kAdversary || b.slot == 0 || b.slot >= horizon) continue;
    for (const mh::HonestNode& node : sim.nodes())
      if (!node.tree().contains(b.hash)) return false;
  }
  return true;
}

std::size_t held_blocks(const mh::Simulation& sim) {
  std::size_t held = 0;
  for (const mh::HonestNode& node : sim.nodes()) held += node.tree().block_count();
  return held;
}

/// The repo's golden balance-probe pin, reproduced through this file's cell
/// layout and digest: the recorded-digest gate of the workload.
bool golden_pin_holds() {
  const Cell cell = draw_cell(mh::kBalanceProbePinParties, mh::kBalanceProbePinHorizon,
                              mh::kBalanceProbePinSeed);
  mh::BalanceAttacker adversary;
  mh::Simulation sim(cell.schedule, sim_config(cell), 0, &adversary);
  sim.run();
  return sim_digest(sim) == mh::kBalanceProbePinDigest;
}

// --- the replay twin ---------------------------------------------------------

struct TwinRun {
  std::uint64_t digest = 0;
  std::uint64_t collect_ns = 0, receive_ns = 0, public_add_ns = 0, broadcast_ns = 0;
  std::uint64_t deliveries = 0;   ///< blocks collected from the network
  std::uint64_t receives = 0;     ///< deliveries + leaders' self-receives
  std::uint64_t accepted = 0;     ///< admissions to a view, each mirrored publicly
  std::uint64_t forged = 0;
  std::uint64_t held = 0;         ///< sum of the views' block counts at the end
};

/// The null-adversary execution of `cell` (Simulation with no adversary, no
/// faults, degenerate network), driven slot by slot from here. Within a
/// delivery round the node loop is split into phases (collect everything,
/// then receive everything, then mirror into the public tree); no node's
/// receive reads the network or the public tree, so the split keeps the
/// Simulation's order of every observable and the digests agree.
class ReplayTwin {
 public:
  explicit ReplayTwin(const Cell& cell)
      : schedule_(cell.schedule),
        network_(schedule_.honest_parties(), 0),
        inbox_(schedule_.honest_parties()),
        rng_(cell.sim_seed) {
    nodes_.reserve(schedule_.honest_parties());
    for (mh::PartyId p = 0; p < schedule_.honest_parties(); ++p)
      nodes_.emplace_back(p, mh::TieBreak::AdversarialOrder, &schedule_);
    all_blocks_.push_back(mh::genesis_block());
  }

  TwinRun run() {
    for (std::size_t t = 1; t <= schedule_.horizon(); ++t) {
      deliver(t);
      forge_and_broadcast(t);
    }
    deliver(schedule_.horizon() + 1);  // run_until's closing flush
    std::vector<BlockHash> heads;
    heads.reserve(nodes_.size());
    for (const mh::HonestNode& node : nodes_) {
      heads.push_back(node.best_head());
      out_.held += node.tree().block_count();
    }
    out_.digest =
        fold_digest(all_blocks_, public_tree_, heads, slot_divergence(global_tree_, heads));
    return out_;
  }

 private:
  void deliver(std::size_t slot) {
    Clock::time_point start = Clock::now();
    for (mh::HonestNode& node : nodes_) {
      network_.collect_into(node.id(), slot, &inbox_[node.id()]);
      out_.deliveries += inbox_[node.id()].size();
      out_.receives += inbox_[node.id()].size();
    }
    out_.collect_ns += ns_since(start);

    accepted_.clear();
    start = Clock::now();
    for (mh::HonestNode& node : nodes_)
      for (const Block& b : inbox_[node.id()]) node.receive(b, &accepted_);
    out_.receive_ns += ns_since(start);
    mirror_accepted();
  }

  void forge_and_broadcast(std::size_t slot) {
    forged_.clear();
    for (const mh::PartyId leader : schedule_.leaders(slot).honest)
      forged_.push_back(nodes_[leader].forge(slot, rng_()));
    out_.forged += forged_.size();
    for (const Block& block : forged_) {
      global_tree_.add(block);
      all_blocks_.push_back(block);
      accepted_.clear();
      Clock::time_point start = Clock::now();
      nodes_[block.issuer].receive(block, &accepted_);
      out_.receive_ns += ns_since(start);
      ++out_.receives;
      mirror_accepted();
      start = Clock::now();
      network_.broadcast_chain(global_tree_, block, slot);
      out_.broadcast_ns += ns_since(start);
    }
  }

  /// Simulation::public_add over the round's acceptances, timed as one span.
  void mirror_accepted() {
    out_.accepted += accepted_.size();
    const Clock::time_point start = Clock::now();
    for (const Block& a : accepted_) {
      switch (public_tree_.try_add(a)) {
        case BlockTree::AddResult::Added: public_orphans_.flush(public_tree_, nullptr); break;
        case BlockTree::AddResult::Orphan: public_orphans_.buffer(a); break;
        case BlockTree::AddResult::Duplicate:
        case BlockTree::AddResult::Invalid: break;
      }
    }
    out_.public_add_ns += ns_since(start);
  }

  const mh::LeaderSchedule& schedule_;
  mh::Network network_;
  std::vector<mh::HonestNode> nodes_;
  std::vector<std::vector<Block>> inbox_;  ///< per-node deliveries of the round
  std::vector<Block> accepted_;
  std::vector<Block> forged_;
  BlockTree global_tree_;
  BlockTree public_tree_;
  mh::OrphanBuffer public_orphans_;
  std::vector<Block> all_blocks_;
  mh::Rng rng_;
  TwinRun out_;
};

// --- the two modes -----------------------------------------------------------

Result run_untraced(const Args& args, const Shape& shape) {
  Result result;
  const bool pin_ok = golden_pin_holds();
  ++result.attempted;
  if (!pin_ok) ++result.failed;
  std::printf("%s: golden balance-probe pin %s\n", shape.name, pin_ok ? "held" : "DRIFT");

  const mh::engine::SeedSequence cell_seeds(args.seed);
  std::vector<std::uint64_t> digests(kCellsPerRun, 0);
  std::vector<double> setup_s, run_s;
  double timed_s = 0.0;
  std::size_t timed_reps = 0, timed_blocks = 0, timed_acceptances = 0;
  const Clock::time_point budget_start = Clock::now();
  for (std::size_t rep = 0; rep < 3 || seconds_since(budget_start) < args.seconds; ++rep) {
    const std::size_t index = rep % kCellsPerRun;
    const Clock::time_point setup_start = Clock::now();
    const Cell cell = draw_cell(shape.parties, shape.horizon, cell_seeds.derive(index));
    mh::BalanceAttacker adversary;
    mh::Simulation sim(cell.schedule, sim_config(cell), 0, &adversary);
    setup_s.push_back(seconds_since(setup_start));
    const Clock::time_point run_start = Clock::now();
    sim.run();
    run_s.push_back(seconds_since(run_start));

    if (rep > 0) {  // the first repetition warms the arena and is not timed
      timed_s += run_s.back();
      ++timed_reps;
      timed_blocks += sim.all_blocks().size();
      timed_acceptances += held_blocks(sim) - shape.parties;  // genesis is not received
    }
    const std::uint64_t digest = sim_digest(sim);
    if (rep < kCellsPerRun) digests[index] = digest;
    ++result.attempted;
    if (digest != digests[index] || !honest_blocks_delivered(sim)) ++result.failed;
  }
  const double acceptances_per_s = static_cast<double>(timed_acceptances) / timed_s;
  std::printf("%s: %zu parties x %zu slots, %zu cells, %zu repetitions (%zu timed), "
              "%.0f blocks and %.0f acceptances per timed repetition, cell-0 digest 0x%016llx\n",
              shape.name, shape.parties, shape.horizon, kCellsPerRun, run_s.size(), timed_reps,
              static_cast<double>(timed_blocks) / static_cast<double>(timed_reps),
              static_cast<double>(timed_acceptances) / static_cast<double>(timed_reps),
              static_cast<unsigned long long>(digests[0]));
  std::printf("%s: slots_per_s %.1f, acceptances_per_s %.0f, ns_per_acceptance %.1f "
              "(run s: q1 %.4f median %.4f q3 %.4f), setup_s %.5f\n",
              shape.name, static_cast<double>(timed_reps * shape.horizon) / timed_s,
              acceptances_per_s, 1e9 / acceptances_per_s, percentile(run_s, 0.25),
              median(run_s), percentile(run_s, 0.75), median(setup_s));
  add_end_to_end(result, acceptances_per_s, median(setup_s));
  return result;
}

Result run_traced(const Args& args, const Shape& shape) {
  Result result;
  const std::uint64_t cell_seed = mh::engine::SeedSequence(args.seed).derive(0);
  std::vector<double> slot_us, setup_ns_per_party, untraced_s, traced_s;
  std::uint64_t eligible_calls = 0, slots = 0;
  SpanTotal eligible_replay, adversary_span;
  std::size_t held = 0;
  TwinRun twin_total;
  bool stepped_ok = true, twin_ok = true;
  const Clock::time_point budget_start = Clock::now();
  do {
    const Cell cell = draw_cell(shape.parties, shape.horizon, cell_seed);
    std::uint64_t reference = 0;
    {  // (a) the untraced reference
      mh::BalanceAttacker adversary;
      mh::Simulation sim(cell.schedule, sim_config(cell), 0, &adversary);
      const Clock::time_point start = Clock::now();
      sim.run();
      untraced_s.push_back(seconds_since(start));
      reference = sim_digest(sim);
    }
    {  // (b) decorated, one run_until per slot
      const TimedSchedule schedule(cell.schedule);
      mh::BalanceAttacker inner;
      TimedAdversary adversary(inner);
      const Clock::time_point ctor_start = Clock::now();
      mh::Simulation sim(schedule, sim_config(cell), 0, &adversary);
      setup_ns_per_party.push_back(static_cast<double>(ns_since(ctor_start)) /
                                   static_cast<double>(shape.parties));
      double traced = 0.0;
      for (std::size_t t = 1; t <= shape.horizon; ++t) {
        const Clock::time_point start = Clock::now();
        sim.run_until(t);
        const double s = seconds_since(start);
        slot_us.push_back(1e6 * s);
        traced += s;
      }
      traced_s.push_back(traced);
      stepped_ok = stepped_ok && sim_digest(sim) == reference;
      eligible_calls += schedule.eligible_calls();
      eligible_replay += schedule.replay_sampled_eligible(4);
      adversary_span += adversary.total();
      slots += shape.horizon;
      held = held_blocks(sim);
    }
    std::uint64_t null_digest = 0;
    {  // (c) the null adversary through Simulation
      mh::Simulation sim(cell.schedule, sim_config(cell), 0, nullptr);
      sim.run();
      null_digest = sim_digest(sim);
    }
    {  // (d) the replay twin of (c)
      ReplayTwin twin(cell);
      const TwinRun run = twin.run();
      twin_ok = twin_ok && run.digest == null_digest;
      twin_total.collect_ns += run.collect_ns;
      twin_total.receive_ns += run.receive_ns;
      twin_total.public_add_ns += run.public_add_ns;
      twin_total.broadcast_ns += run.broadcast_ns;
      twin_total.deliveries += run.deliveries;
      twin_total.receives += run.receives;
      twin_total.accepted += run.accepted;
      twin_total.forged += run.forged;
      twin_total.held += run.held;
    }
    result.attempted += 1;
  } while (seconds_since(budget_start) < args.seconds);

  const bool stepped_guard = report_guard("stepped_run_until_digest == run_digest", stepped_ok);
  const bool twin_guard = report_guard("replay_twin_digest == simulation_digest", twin_ok);
  if (!stepped_guard || !twin_guard) ++result.failed;
  report_tracing_overhead(median(untraced_s), median(traced_s));

  LayerMetrics layers;
  if (stepped_guard) {
    layers.set("sim.slot_us_p50", percentile(slot_us, 0.5));
    layers.set("sim.slot_us_p99", percentile(slot_us, 0.99));
    layers.set("sim.setup_ns_per_party", median(setup_ns_per_party));
    layers.set("schedule.eligible_calls",
               static_cast<double>(eligible_calls) / static_cast<double>(result.attempted));
    layers.set("schedule.ns_per_eligible", eligible_replay.ns_per_call());
    layers.set("adversary.ns_per_slot",
               static_cast<double>(adversary_span.ns) / static_cast<double>(slots));
    layers.set("tree.held_blocks", static_cast<double>(held));
    layers.set("tree.bytes_per_held", peak_rss_mib() * 1024.0 * 1024.0 / static_cast<double>(held));
  }
  if (twin_guard) {
    const auto per = [](std::uint64_t num, std::uint64_t den) {
      return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
    };
    layers.set("net.broadcast_ns_per_block", per(twin_total.broadcast_ns, twin_total.forged));
    layers.set("net.collect_ns_per_delivery", per(twin_total.collect_ns, twin_total.deliveries));
    layers.set("net.deliveries_per_held", per(twin_total.deliveries, twin_total.held));
    layers.set("node.receive_ns_per_delivery", per(twin_total.receive_ns, twin_total.receives));
    layers.set("node.accept_ratio", per(twin_total.accepted, twin_total.receives));
    layers.set("tree.public_add_ns_per_block",
               per(twin_total.public_add_ns, twin_total.accepted));
  }
  std::printf("%s: %llu traced repetitions\n", shape.name,
              static_cast<unsigned long long>(result.attempted));
  layers.append_to(result);
  return result;
}

}  // namespace

Result run_lockstep_deep(const Args& args) {
  return args.trace ? run_traced(args, kLockstepDeep) : run_untraced(args, kLockstepDeep);
}

}  // namespace perfbench
