#include "oracle/characteristic.hpp"

#include <algorithm>

#include "core/relative_margin.hpp"
#include "support/check.hpp"

namespace mh::oracle {

AnalyticProjection project_schedule(const LeaderSchedule& schedule, std::size_t delta,
                                    std::size_t target_slot) {
  MH_REQUIRE(target_slot >= 1 && target_slot <= schedule.horizon());
  AnalyticProjection view;
  view.raw = schedule.characteristic();
  view.reduction = reduce(view.raw, delta);
  view.delta = delta;
  view.target_slot = target_slot;
  // x' ends at the last reduced position of a slot < target_slot; inverse[] is
  // monotone over non-empty slots, so the maximum over the prefix is the count.
  view.x_len = 0;
  for (std::size_t t = 1; t < target_slot; ++t) {
    const std::size_t pos = view.reduction.inverse[t - 1];
    if (pos != 0) view.x_len = pos;
  }
  view.margin = margin_trajectory(view.reduction.reduced, view.x_len);
  return view;
}

bool margin_allows_violation(const AnalyticProjection& view) {
  for (std::size_t j = 1; j < view.margin.size(); ++j)
    if (view.margin[j] >= 0) return true;
  return false;
}

bool empty_observation_window(const AnalyticProjection& view, std::size_t k) {
  const std::size_t last = std::min(view.target_slot + k, view.raw.size());
  for (std::size_t t = view.target_slot; t <= last; ++t)
    if (!is_empty(view.raw.at(t))) return false;
  return true;
}

bool admits_distinct_balance(const CharString& u) {
  for (std::size_t j = 0; j < u.size(); ++j)
    if (relative_margin_recurrence(u, j) >= 0) return true;
  return false;  // the empty string's genesis holds no distinct pair
}

bool prefix_admits_distinct_balance(const AnalyticProjection& view) {
  return admits_distinct_balance(view.reduction.reduced.prefix(view.x_len));
}

}  // namespace mh::oracle
