#include "sim/monte_carlo.hpp"

#include "core/catalan.hpp"
#include "core/reach_distribution.hpp"
#include "core/relative_margin.hpp"
#include "delta/delta_settlement.hpp"
#include "delta/reduction.hpp"
#include "engine/engine.hpp"

namespace mh {

namespace {

std::int64_t sample_initial_reach(const SymbolLaw& law, Rng& rng) {
  const double beta = static_cast<double>(reach_beta(law));
  return static_cast<std::int64_t>(sample_geometric(rng, beta));
}

engine::EngineOptions engine_options(const McOptions& opt) {
  engine::EngineOptions eopt;
  eopt.threads = opt.threads;
  eopt.seed = opt.seed;
  return eopt;
}

/// Shard a Bernoulli event over the engine and wrap the pooled count.
template <typename Event>
Proportion mc_event_proportion(const McOptions& opt, Event&& event) {
  const std::size_t hits = engine::run_sharded<std::size_t>(
      opt.samples, engine_options(opt),
      [&](std::uint64_t /*index*/, Rng& rng, std::size_t& partial) {
        if (event(rng)) ++partial;
      });
  return wilson_interval(hits, opt.samples);
}

}  // namespace

Proportion mc_settlement_violation(const SymbolLaw& law, std::size_t k, const McOptions& opt) {
  law.validate();
  return mc_event_proportion(opt, [&](Rng& rng) {
    MarginProcess p(sample_initial_reach(law, rng));
    for (std::size_t t = 0; t < k; ++t) p.step(law.sample(rng));
    return p.mu() >= 0;
  });
}

Proportion mc_no_unique_catalan(const SymbolLaw& law, std::size_t k, const McOptions& opt) {
  law.validate();
  const std::size_t horizon = k + opt.horizon_slack;
  return mc_event_proportion(opt, [&](Rng& rng) {
    // Per-shard resample buffer: each pool thread keeps (and reuses) its own
    // string, so the hot loop allocates nothing after the first sample.
    thread_local CharString w;
    law.sample_into(w, horizon, rng);
    return first_uniquely_honest_catalan(w, 1, k) == 0;
  });
}

Proportion mc_no_consecutive_catalan(const SymbolLaw& law, std::size_t k,
                                     const McOptions& opt) {
  law.validate();
  const std::size_t horizon = k + opt.horizon_slack;
  return mc_event_proportion(opt, [&](Rng& rng) {
    thread_local CharString w;
    law.sample_into(w, horizon, rng);
    return first_consecutive_catalan_pair(w, 1, k) == 0;
  });
}

Proportion mc_delta_settlement_failure(const TetraLaw& law, std::size_t delta, std::size_t k,
                                       const McOptions& opt) {
  law.validate();
  // The reduced string shrinks by roughly a factor f; oversample the raw
  // horizon so the reduced window plus its lookahead is well populated.
  const double f = law.f();
  const std::size_t raw_horizon =
      static_cast<std::size_t>(static_cast<double>(3 * k + opt.horizon_slack) / f) + delta + 8;
  return mc_event_proportion(opt, [&](Rng& rng) {
    const TetraString w = law.sample_string(raw_horizon, rng);
    const ReductionResult reduced = reduce_conservative(w, delta);
    return reduced.reduced.size() < k || !lemma2_event_holds(reduced.reduced, 1, k, delta);
  });
}

Proportion mc_cp_window_failure(const SymbolLaw& law, std::size_t horizon, std::size_t k,
                                const McOptions& opt) {
  law.validate();
  return mc_event_proportion(opt, [&](Rng& rng) {
    thread_local CharString w;
    law.sample_into(w, horizon + opt.horizon_slack, rng);
    const CatalanFlags flags = catalan_flags(w);
    bool bad_window = false;
    // Sliding count of uniquely honest Catalan slots per length-k window.
    std::size_t in_window = 0;
    auto good = [&](std::size_t s) {
      return flags.catalan[s - 1] && w.uniquely_honest(s);
    };
    for (std::size_t s = 1; s <= horizon && !bad_window; ++s) {
      if (good(s)) ++in_window;
      if (s >= k) {
        if (in_window == 0) bad_window = true;
        if (good(s - k + 1)) --in_window;
      }
    }
    return bad_window;
  });
}

}  // namespace mh
