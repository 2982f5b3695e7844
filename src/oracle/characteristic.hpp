// The execution -> analytic projection of the differential oracle: from a
// leader schedule (the full-information object both sides share) to the
// reduced characteristic string and the relative-margin trajectory the paper's
// settlement analysis evaluates on it.
//
// The projection is Delta-aware: the semi-synchronous {Bot,h,H,A} string of
// the schedule (Definition 20) is pushed through the reduction map rho_Delta
// (Definition 22), and the target slot s is carried along to the reduced
// decomposition point x' = all reduced positions of slots < s. By Proposition
// 3, every Delta-execution of the schedule relabels into a synchronous fork
// for the reduced string, so the margin trajectory mu_{x'}(y'_j) computed here
// is the analytic ceiling for everything any simulated adversary achieves.
#pragma once

#include <cstdint>
#include <vector>

#include "delta/reduction.hpp"
#include "protocol/leader.hpp"

namespace mh::oracle {

struct AnalyticProjection {
  TetraString raw;            ///< the schedule's Definition-20 string
  ReductionResult reduction;  ///< rho_Delta(raw) with the position bijection
  std::size_t delta = 0;
  std::size_t target_slot = 1;
  /// |x'|: reduced positions of (non-empty) slots strictly before target_slot.
  std::size_t x_len = 0;
  /// mu_{x'}(y'_j) for j = 0..|y'| (index 0 = rho(x'), see margin_trajectory).
  std::vector<std::int64_t> margin;
};

/// Builds the analytic view of one schedule: characteristic string, reduction,
/// decomposition point of `target_slot`, margin trajectory.
AnalyticProjection project_schedule(const LeaderSchedule& schedule, std::size_t delta,
                                    std::size_t target_slot);

/// Does the analytic margin permit a settlement violation of the target slot
/// anywhere in the observed window? True iff mu_{x'}(y'_j) >= 0 for some
/// j >= 1 (j = 0 is rho(x') >= 0 always and corresponds to no observation at
/// all). When this returns false, the paper's Theorem 5 forbids EVERY
/// adversary - simulated strategies included - from violating the slot
/// within the horizon... except through the empty-window boundary case below.
bool margin_allows_violation(const AnalyticProjection& view);

/// The boundary case the margin trajectory cannot see: when every slot in
/// [target_slot, target_slot + k] is empty, the first settlement observation
/// happens with ZERO reduced suffix symbols (j = 0), and the violation
/// witness - two distinct maximum-length tines with different target-slot
/// prefixes - must live entirely inside x'. Returns true iff such a window
/// exists for the given k.
bool empty_observation_window(const AnalyticProjection& view, std::size_t k);

/// Can any fork for `u` hold two DISTINCT maximum-length tines? By Fact 6
/// applied at every divergence point, this holds iff
/// max over j in [0, |u|) of mu_{u_1..u_j}(u_{j+1}..) >= 0
/// (a self-pair witness extends into two distinct tines exactly when the
/// suffix past the divergence point is non-empty; validated exhaustively
/// against fork enumeration for every string of length <= 5 in
/// tests/test_oracle.cpp).
bool admits_distinct_balance(const CharString& u);

/// `admits_distinct_balance` on x' alone: the analytic allowance for
/// violations observed through an empty window.
bool prefix_admits_distinct_balance(const AnalyticProjection& view);

}  // namespace mh::oracle
