#include "analysis/thresholds.hpp"

namespace mh {

RegimeReport classify_regime(const SymbolLaw& law) {
  law.validate();
  RegimeReport report;
  report.this_work_advantage = law.ph + law.pH - law.pA;
  report.praos_advantage = law.ph - law.pH - law.pA;
  report.snow_white_advantage = law.ph - law.pA;
  report.this_work_applies = report.this_work_advantage > 0.0;
  report.praos_applies = report.praos_advantage > 0.0;
  report.snow_white_applies = report.snow_white_advantage > 0.0;
  return report;
}

}  // namespace mh
