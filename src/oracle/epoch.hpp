// The epoch-driven face of the differential oracle: run one epoch-managed
// execution (stake registry + epoch nonces + per-slot VRF lottery, possibly
// with mid-run stake shifts) and grade it twice —
//
//   * globally, through the SAME run-and-grade recipe as check_execution: the
//     realized schedule (the lottery's actual draws) is projected through the
//     Definition-22 reduction and the execution fork must refine it under the
//     margin-domination invariants (shared code, bit-identical);
//   * per epoch: each epoch's stake snapshot induces an i.i.d. TetraLaw
//     (consensus::induced_law); the epoch's realized characteristic symbols
//     must sit inside exact Clopper-Pearson bands around that law, and the
//     law is pushed through reduced_law (Proposition 4) so every cell also
//     carries the Delta-reduced law the analytic stack would assign it.
//
// Every materialized epoch is graded into one cell; `all_graded` demands that
// every epoch intersecting the horizon materialized — an epoch-driven run
// with ungraded epochs is an oracle gap, not a pass.
#pragma once

#include <vector>

#include "oracle/oracle.hpp"
#include "protocol/consensus/schedule.hpp"

namespace mh::oracle {

/// One epoch-managed scenario cell: stake profile, shift plan, and the shared
/// attack geometry. Empty `honest_stakes` means uniform over
/// `honest_parties`; otherwise the vector IS the profile (its size wins).
struct EpochRunConfig : RunRecipe {
  EpochRunConfig() { horizon = 96; }  // three epochs of the default R = 32

  consensus::ConsensusConfig consensus{};
  std::vector<double> honest_stakes{};
  double adversarial_stake = 0.25;
  std::vector<consensus::StakeShiftSpec> shifts{};
};

/// Per-epoch grading record.
struct EpochCell {
  std::size_t epoch = 0;
  std::uint64_t nonce = 0;
  std::size_t slots = 0;      ///< slots of this epoch inside the horizon
  std::size_t counts[4]{};    ///< realized symbols, indexed Bot, h, H, A
  TetraLaw induced{};         ///< law induced by the epoch's stake snapshot
  SymbolLaw reduced{};        ///< Proposition-4 image of `induced` at Delta
  bool law_within_band = false;

  [[nodiscard]] double frequency(std::size_t symbol) const noexcept {
    return slots == 0 ? 0.0 : static_cast<double>(counts[symbol]) / static_cast<double>(slots);
  }
};

/// The verdict on one epoch-managed execution: the global run verdict plus
/// one graded cell per epoch.
struct EpochVerdict {
  RunVerdict run{};
  std::vector<EpochCell> cells{};
  bool all_graded = false;      ///< every epoch covering the horizon has a cell
  bool laws_within_band = true; ///< every cell's frequencies inside its band

  [[nodiscard]] bool clean() const noexcept {
    return all_graded && laws_within_band && run.dominated();
  }
  /// 'u' ungraded cells, '!' a band or domination breach, else the run code.
  [[nodiscard]] char code() const noexcept {
    if (!all_graded) return 'u';
    if (!laws_within_band) return '!';
    return run.code();
  }
};

/// Runs one seeded epoch-managed execution of `config` and grades it as
/// documented above. Pure in (config, rng stream): verdicts are bit-identical
/// across thread counts when the streams are counter-based.
EpochVerdict check_epoch_execution(const EpochRunConfig& config, Rng& rng);

}  // namespace mh::oracle
