// The security thresholds compared in the paper's introduction:
//
//   This work        : ph + pH > pA, error e^{-Theta(k)}   (optimal)
//   Praos / Genesis  : ph - pH > pA, error e^{-Theta(k)}   (H slots penalized)
//   Sleepy/Snow White: ph > pA,      error e^{-Theta(sqrt k)} (H slots neutral)
//
// The regime report drives bench_thresholds (E7) and bench_h_ablation (E12):
// for a law on {h,H,A}, which analyses apply, and at what rate does each one's
// guarantee decay?
#pragma once

#include "chars/bernoulli.hpp"

namespace mh {

struct RegimeReport {
  bool this_work_applies = false;   ///< ph + pH > pA
  bool praos_applies = false;       ///< ph - pH > pA
  bool snow_white_applies = false;  ///< ph > pA
  /// The effective "honest advantage" each analysis sees (negative when the
  /// analysis is inapplicable): ours ph+pH-pA, Praos ph-pH-pA, SW ph-pA.
  double this_work_advantage = 0.0;
  double praos_advantage = 0.0;
  double snow_white_advantage = 0.0;
};

RegimeReport classify_regime(const SymbolLaw& law);

}  // namespace mh
