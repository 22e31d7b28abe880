#include "ftsched/core/reschedule.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ftsched/core/placement.hpp"
#include "ftsched/core/priorities.hpp"
#include "ftsched/util/error.hpp"

namespace ftsched {

namespace {

constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);

/// Shared greedy placement pass: for each pending replica (fed in priority
/// order) pick the live processor with the earliest finish, keeping a
/// task's replicas on distinct processors when possible, and emit a move
/// when the choice differs from the replica's current host.  `avail_`
/// carries the survivors' backlogs and is advanced per placement so later
/// replicas see earlier ones.
///
/// The priority order places all replicas of a task back to back, so the
/// distinct-processor bookkeeping only concerns the current task: it is
/// kept as per-processor stamps that a task change invalidates, which makes
/// one place() O(P).  The buffers live as long as the policy and are
/// re-targeted at each event by begin().
class GreedyPass {
 public:
  /// Starts a pass at `now`: snapshots liveness and the survivors'
  /// backlogs (the view does not change while the policy runs).
  void begin(const OnlineView& view, const CostModel& costs, double now) {
    view_ = &view;
    costs_ = &costs;
    now_ = now;
    const std::size_t m = view.proc_count();
    avail_.reset(m);
    alive_.resize(m);
    if (taken_.size() != m) {
      taken_.assign(m, 0);
      hosted_.assign(m, 0);
    }
    for (std::size_t p = 0; p < m; ++p) {
      alive_[p] = view.alive(p) ? 1 : 0;
      if (!alive_[p]) continue;
      avail_.raise(p, view.backlog(p));
      avail_.raise(p, now);
    }
    task_ = kNoTask;
  }

  void place(TaskId t, std::size_t replica, std::vector<ReplicaMove>& moves) {
    if (t.index() != task_) start_task(t);
    const std::size_t current = view_->proc_of(t, replica);
    const auto exec = [&](std::size_t p) {
      return costs_->exec(t, ProcId{p});
    };
    const auto earliest = [&](std::size_t) { return now_; };
    // Strict pass: live targets not already hosting a replica of t (the
    // replica's own current host stays eligible — "stay put" is a choice).
    auto strict = [&](std::size_t p) {
      if (!alive_[p] || taken_[p] == stamp_) return false;
      return p == current || hosted_[p] != stamp_;
    };
    double finish = 0.0;
    std::size_t chosen = avail_.best_finish(strict, earliest, exec, &finish);
    if (chosen == avail_.size()) {
      // Every live processor already hosts a replica of t: fall back to any
      // live target so the replica survives at all (replica disjointness is
      // a best effort once the platform has shrunk past it).
      auto relaxed = [&](std::size_t p) { return alive_[p] != 0; };
      chosen = avail_.best_finish(relaxed, earliest, exec, &finish);
    }
    if (chosen == avail_.size()) return;  // no live processor: nothing to do
    avail_.commit(chosen, finish);
    taken_[chosen] = stamp_;
    if (chosen == current) return;  // staying put is not a move
    moves.push_back(ReplicaMove{t, replica, ProcId{chosen}, exec(chosen)});
  }

 private:
  /// New task: a fresh stamp empties the taken set, and the task's live
  /// hosts (one view query) are stamped as hosted.
  void start_task(TaskId t) {
    task_ = t.index();
    ++stamp_;
    hosts_.clear();
    view_->live_hosts(t, hosts_);
    for (const std::size_t p : hosts_) hosted_[p] = stamp_;
  }

  const OnlineView* view_ = nullptr;
  const CostModel* costs_ = nullptr;
  double now_ = 0.0;
  ProcReadyState avail_;
  std::vector<std::uint8_t> alive_;
  std::size_t task_ = kNoTask;
  std::uint64_t stamp_ = 0;
  std::vector<std::uint64_t> taken_;   ///< == stamp_: placed this task
  std::vector<std::uint64_t> hosted_;  ///< == stamp_: hosts a live replica
  std::vector<std::size_t> hosts_;
};

class NonePolicy final : public ReschedulePolicy {
 public:
  [[nodiscard]] std::string spec() const override { return "none"; }
  void on_event(const OnlineView&, const OnlineEvent&,
                std::vector<ReplicaMove>&) override {}
  [[nodiscard]] bool is_noop() const override { return true; }
};

/// Base for the greedy policies: binds the schedule and copies the
/// bottom-level priority order once per prepare (the priorities.hpp
/// per-thread memo makes the repeated calls across runs a copy).  The
/// pass and pending-list buffers are reused across events and runs.
class GreedyPolicyBase : public ReschedulePolicy {
 public:
  void prepare(const ReplicatedSchedule& schedule) override {
    schedule_ = &schedule;
    order_ = bottom_level_order(schedule.costs());
    rank_.resize(order_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) {
      rank_[order_[i].index()] = i;
    }
  }

 protected:
  [[nodiscard]] const ReplicatedSchedule& schedule() const {
    FTSCHED_REQUIRE(schedule_ != nullptr,
                    "policy used before prepare(schedule)");
    return *schedule_;
  }

  /// Tasks by descending bottom level, ties toward the lower id.
  std::vector<TaskId> order_;
  /// rank_[t]: t's position in order_.
  std::vector<std::size_t> rank_;
  GreedyPass pass_;
  std::vector<std::pair<TaskId, std::size_t>> pending_;

 private:
  const ReplicatedSchedule* schedule_ = nullptr;
};

/// `requeue-heft`: on each crash, remap the crashed processor's stranded
/// pending replicas onto survivors, highest bottom level first, each to the
/// earliest-finish live processor (HEFT's greedy rule on the survivor
/// platform).  Repairs are left to the simulator (the processor simply
/// resumes its remaining queue).
class RequeueHeftPolicy final : public GreedyPolicyBase {
 public:
  [[nodiscard]] std::string spec() const override { return "requeue-heft"; }

  void on_event(const OnlineView& view, const OnlineEvent& event,
                std::vector<ReplicaMove>& moves) override {
    if (event.kind != OnlineEvent::Kind::kCrash) return;
    pending_.clear();
    view.pending_on(event.proc, pending_);
    if (pending_.empty()) return;
    // Priority order: descending bottom level, ties toward the lower task
    // id then replica index (deterministic across platforms).
    std::sort(pending_.begin(), pending_.end(),
              [this](const auto& a, const auto& b) {
                const std::size_t ra = rank_[a.first.index()];
                const std::size_t rb = rank_[b.first.index()];
                return ra != rb ? ra < rb : a.second < b.second;
              });
    pass_.begin(view, schedule().costs(), event.time);
    for (const auto& [t, r] : pending_) pass_.place(t, r, moves);
  }
};

/// `reactive-ftsa`: on each crash *and* repair, re-run the list engine's
/// greedy earliest-finish placement over *all* pending replicas on the
/// current survivor platform (the engine's choose-processors rule, in the
/// same bottom-level order), moving every replica whose best processor
/// changed.
class ReactiveFtsaPolicy final : public GreedyPolicyBase {
 public:
  [[nodiscard]] std::string spec() const override { return "reactive-ftsa"; }

  void prepare(const ReplicatedSchedule& schedule) override {
    GreedyPolicyBase::prepare(schedule);
    const std::size_t v = order_.size();
    first_.assign(v + 1, 0);
    for (std::size_t t = 0; t < v; ++t) {
      first_[t + 1] = first_[t] + schedule.replicas(TaskId{t}).size();
    }
    listed_.assign(first_[v], 0);
  }

  void on_event(const OnlineView& view, const OnlineEvent& event,
                std::vector<ReplicaMove>& moves) override {
    pending_.clear();
    for (std::size_t p = 0; p < view.proc_count(); ++p) {
      view.pending_on(p, pending_);
    }
    if (pending_.empty()) return;
    // Flag the pending replicas by flat index, then walk the prepared
    // priority order: the sorted order without a per-event sort.
    for (const auto& [t, r] : pending_) listed_[first_[t.index()] + r] = 1;
    std::size_t left = pending_.size();
    pass_.begin(view, schedule().costs(), event.time);
    for (const TaskId t : order_) {
      for (std::size_t flat = first_[t.index()];
           flat < first_[t.index() + 1]; ++flat) {
        if (listed_[flat] == 0) continue;
        listed_[flat] = 0;
        --left;
        pass_.place(t, flat - first_[t.index()], moves);
      }
      if (left == 0) break;
    }
  }

 private:
  std::vector<std::size_t> first_;    ///< CSR replica offsets per task
  std::vector<std::uint8_t> listed_;  ///< per flat replica: pending now
};

}  // namespace

PolicyRegistry::PolicyRegistry() : SpecRegistry("rescheduling policy") {
  add(Entry{"none",
            "keep the static schedule: crashed processors never return and "
            "their unstarted replicas are lost (the paper's replay setup)",
            {},
            [](const SpecOptions&) -> ReschedulePolicyPtr {
              return std::make_unique<NonePolicy>();
            }});
  add(Entry{"requeue-heft",
            "on each crash, greedily remap the crashed processor's pending "
            "replicas onto the earliest-finish survivors (HEFT order)",
            {},
            [](const SpecOptions&) -> ReschedulePolicyPtr {
              return std::make_unique<RequeueHeftPolicy>();
            }});
  add(Entry{"reactive-ftsa",
            "on each crash and repair, re-run the list engine's greedy "
            "placement over all pending replicas on the survivor platform",
            {},
            [](const SpecOptions&) -> ReschedulePolicyPtr {
              return std::make_unique<ReactiveFtsaPolicy>();
            }});
}

const PolicyRegistry& PolicyRegistry::global() {
  static const PolicyRegistry registry;
  return registry;
}

ReschedulePolicyPtr make_reschedule_policy(const std::string& spec) {
  return PolicyRegistry::global().create(spec);
}

}  // namespace ftsched
