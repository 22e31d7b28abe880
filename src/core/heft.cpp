#include "ftsched/core/heft.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "ftsched/core/priorities.hpp"
#include "ftsched/util/error.hpp"

namespace ftsched {

namespace {

struct Slot {
  double start;
  double finish;
};

/// Earliest start >= ready on processor timeline `slots` for a task of
/// length `duration`, using gap insertion when enabled.
double earliest_slot(const std::vector<Slot>& slots, double ready,
                     double duration, bool insertion) {
  if (slots.empty()) return ready;
  if (!insertion) return std::max(ready, slots.back().finish);
  // Try the gap before each slot, then after the last one.
  double candidate = ready;
  for (const Slot& s : slots) {
    if (candidate + duration <= s.start + 1e-12) return candidate;
    candidate = std::max(candidate, s.finish);
  }
  return candidate;
}

void insert_slot(std::vector<Slot>& slots, Slot s) {
  const auto pos = std::lower_bound(
      slots.begin(), slots.end(), s,
      [](const Slot& a, const Slot& b) { return a.start < b.start; });
  slots.insert(pos, s);
}

}  // namespace

ReplicatedSchedule heft_schedule(const CostModel& costs,
                                 const HeftOptions& options) {
  const TaskGraph& g = costs.graph();
  const Platform& platform = costs.platform();
  const std::size_t m = platform.proc_count();

  // Descending upward rank (= bℓ), ties toward the lower task id.
  const std::vector<TaskId> order = bottom_level_order(costs);
  // Upward ranks decrease along edges by construction, so this order is
  // topological; assert it in debug builds.
#ifndef NDEBUG
  {
    std::vector<char> seen(g.task_count(), 0);
    for (TaskId t : order) {
      for (std::size_t e : g.in_edges(t)) {
        FTSCHED_ASSERT(seen[g.edge(e).src.index()],
                       "HEFT order is not topological");
      }
      seen[t.index()] = 1;
    }
  }
#endif

  ReplicatedSchedule schedule(costs, /*epsilon=*/0, "HEFT");
  std::vector<std::vector<Slot>> timeline(m);
  std::vector<Replica> placed(g.task_count());

  for (TaskId t : order) {
    double best_finish = std::numeric_limits<double>::infinity();
    Replica best;
    for (std::size_t j = 0; j < m; ++j) {
      const ProcId pj{j};
      double arrival = 0.0;
      for (std::size_t e : g.in_edges(t)) {
        const Edge& edge = g.edge(e);
        const Replica& src = placed[edge.src.index()];
        arrival = std::max(arrival, src.finish +
                                        edge.volume *
                                            platform.delay(src.proc, pj));
      }
      const double duration = costs.exec(t, pj);
      const double start =
          earliest_slot(timeline[j], arrival, duration, options.insertion);
      if (start + duration < best_finish) {
        best_finish = start + duration;
        best = Replica{pj, start, start + duration, start, start + duration};
      }
    }
    insert_slot(timeline[best.proc.index()], Slot{best.start, best.finish});
    placed[t.index()] = best;
    schedule.place_task(t, {best});
  }
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    schedule.set_channels(e, {Channel{0, 0}});
  }
  return schedule;
}

}  // namespace ftsched
