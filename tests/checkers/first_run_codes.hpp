// The scenario matrix's golden fingerprint: one verdict code per cell.
#pragma once

#include <string>

#include "oracle/scenario.hpp"

namespace mh::oracle {

/// The concatenated first-run codes of all cells (the golden seed-stability
/// fingerprint: any RNG or simulator drift shows up here immediately).
inline std::string first_run_codes(const MatrixResult& result) {
  std::string codes;
  codes.reserve(result.cells.size());
  for (const CellVerdict& c : result.cells) codes.push_back(c.first_run);
  return codes;
}

}  // namespace mh::oracle
