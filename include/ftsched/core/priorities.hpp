// Task priority computations (paper §4.1).
//
// The static bottom level bℓ(t) is the length of the longest path from t to
// an exit task, counting average execution times E̅ and average
// communication costs W̅ = V·d̅.  The dynamic top level tℓ(t) depends on the
// partial mapping and is computed inside the scheduling loops; this header
// provides the static quantities shared by FTSA, FTBAR and HEFT.
#pragma once

#include <vector>

#include "ftsched/platform/cost_model.hpp"

namespace ftsched {

/// bℓ(t) for every task: bℓ(t) = E̅(t) if Γ⁺(t) = ∅, otherwise
/// max over successors t* of { E̅(t) + W̅(t,t*) + bℓ(t*) }.
///
/// Memoised per thread on CostModel::revision(): repeated calls for the
/// same (unmutated) cost model — e.g. the five scheduler passes of one
/// instance evaluation — skip the graph traversal and return a copy of the
/// cached vector.
[[nodiscard]] std::vector<double> bottom_levels(const CostModel& costs);

/// Tasks by descending bℓ, ties toward the lower task id: HEFT's order and
/// the order the online rescheduling policies place pending replicas in.
/// Memoised beside bottom_levels() on the same per-thread revision key, so
/// repeated calls for one cost model are a copy.
[[nodiscard]] std::vector<TaskId> bottom_level_order(const CostModel& costs);

/// Static top level: tℓ̄(t) = 0 for entry tasks, otherwise
/// max over predecessors t* of { tℓ̄(t*) + E̅(t*) + W̅(t*,t) }.
/// (Average-cost analogue used by tests and ablations; the scheduling loops
/// use the dynamic, mapping-aware tℓ.)
[[nodiscard]] std::vector<double> static_top_levels(const CostModel& costs);

/// HEFT's upward rank: identical recursion to bℓ (kept as an alias with the
/// standard name so HEFT reads like the literature).
[[nodiscard]] inline std::vector<double> upward_ranks(const CostModel& costs) {
  return bottom_levels(costs);
}

}  // namespace ftsched
