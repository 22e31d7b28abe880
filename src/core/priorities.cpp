#include "ftsched/core/priorities.hpp"

#include <algorithm>
#include <cstdint>

namespace ftsched {

namespace {

/// Thread-local memo of the most recent bottom-level computation, keyed by
/// CostModel::revision().  One instance evaluation runs five scheduler
/// passes (ftsa:eps=0, ftbar:npf=0, FTSA, MC-FTSA, FTBAR) over the same
/// cost model on the same worker thread, and every pass starts from bℓ —
/// the memo turns four of the five traversals into a plain copy.  The
/// revision key makes the memo immune to address reuse and to scale_exec
/// mutation, and thread locality makes it lock-free.  The bℓ order is
/// filled on first request only: the list schedulers never ask for it.
struct BottomLevelMemo {
  std::uint64_t revision = 0;  // CostModel revisions start at 1
  std::vector<double> levels;
  std::vector<TaskId> order;  // empty until bottom_level_order() asks
};

/// The memo, refreshed for `costs` (levels computed, order dropped) when it
/// holds another revision.
BottomLevelMemo& bottom_level_memo(const CostModel& costs) {
  thread_local BottomLevelMemo memo;
  if (memo.revision == costs.revision()) return memo;
  const TaskGraph& g = costs.graph();
  std::vector<double>& bl = memo.levels;
  bl.assign(g.task_count(), 0.0);
  const auto order = g.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    double best = 0.0;
    for (std::size_t e : g.out_edges(t)) {
      const TaskId s = g.edge(e).dst;
      best = std::max(best, costs.avg_comm(e) + bl[s.index()]);
    }
    bl[t.index()] = costs.avg_exec(t) + best;
  }
  memo.order.clear();
  memo.revision = costs.revision();
  return memo;
}

}  // namespace

std::vector<double> bottom_levels(const CostModel& costs) {
  return bottom_level_memo(costs).levels;
}

std::vector<TaskId> bottom_level_order(const CostModel& costs) {
  BottomLevelMemo& memo = bottom_level_memo(costs);
  if (memo.order.size() != memo.levels.size()) {
    const std::vector<double>& bl = memo.levels;
    memo.order = costs.graph().tasks();
    std::sort(memo.order.begin(), memo.order.end(), [&bl](TaskId a, TaskId b) {
      if (bl[a.index()] != bl[b.index()]) return bl[a.index()] > bl[b.index()];
      return a < b;
    });
  }
  return memo.order;
}

std::vector<double> static_top_levels(const CostModel& costs) {
  const TaskGraph& g = costs.graph();
  std::vector<double> tl(g.task_count(), 0.0);
  for (TaskId t : g.topological_order()) {
    for (std::size_t e : g.out_edges(t)) {
      const TaskId s = g.edge(e).dst;
      tl[s.index()] = std::max(
          tl[s.index()], tl[t.index()] + costs.avg_exec(t) + costs.avg_comm(e));
    }
  }
  return tl;
}

}  // namespace ftsched
