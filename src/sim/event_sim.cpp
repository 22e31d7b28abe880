#include "ftsched/sim/event_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "ftsched/core/reschedule.hpp"
#include "ftsched/util/error.hpp"

namespace ftsched {

double SimulationResult::task_completion(TaskId t) const {
  double best = std::numeric_limits<double>::infinity();
  for (const ReplicaOutcome& o : outcomes[t.index()]) {
    if (o.status == ReplicaStatus::kCompleted) best = std::min(best, o.finish);
  }
  return best;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// kRepair sorts after kCrash at equal time: a processor that crashes and
// restarts at the same instant still loses its running replica.  A
// repair-free run orders its events by the first three alone.
enum class EventType : std::uint8_t {
  kFinish = 0,
  kMessage = 1,
  kCrash = 2,
  kRepair = 3
};

struct Event {
  double time;
  std::uint32_t seq;  // FIFO tie-break for full determinism
  std::uint32_t a;    // finish: replica; message: dst replica; crash: proc
  std::uint32_t b;    // message: flat in-slot of dst
  EventType type;
};

// Min-queue order: earlier time, then finish < message < crash, then FIFO.
// The order is total (seq is unique), so any heap implementation pops the
// exact same event sequence — the bit-identity anchor of this rewrite.
struct EventLater {
  bool operator()(const Event& x, const Event& y) const {
    if (x.time != y.time) return x.time > y.time;
    if (x.type != y.type) return x.type > y.type;
    return x.seq > y.seq;
  }
};

enum class State : std::uint8_t {
  kPending,
  kRunning,
  kCompleted,
  kDead,
  kCancelled
};

struct OutChannel {
  std::uint32_t dst;     // flat destination replica
  std::uint32_t slot;    // flat in-slot of the destination (slot arena index)
  double comm_duration;  // volume * delay (0 for intra-processor)
  double volume;         // edge volume: after a policy move the duration is
                         // recomputed from the *current* processors (the
                         // same multiplication, so unmoved channels match
                         // comm_duration bit for bit)
  bool interproc;
};

constexpr std::uint32_t kNoReplica = std::numeric_limits<std::uint32_t>::max();

}  // namespace

/// The simulator split along the static/dynamic line: everything derived
/// from the schedule alone is computed once at construction (flat replica
/// arrays, CSR out-channel and per-processor queues, pristine copies of the
/// countdown arrays); each run resets only the per-scenario state with
/// fill/copy sweeps over flat arrays — structure-of-arrays, no per-node
/// touches, no allocation in steady state — and replays the event loop on
/// an arena-backed binary heap whose storage is retained across runs.
///
/// Every entry point runs the same event loop and the same handlers.  A
/// static run is a run with no policy, so no move happens and the fill-in
/// pool stays empty: the handlers then execute the static arithmetic in
/// the static order, which is what the `policy=none` bit-identity property
/// pins down.
class ScheduleSimulator::Impl {
 public:
  Impl(const ReplicatedSchedule& schedule, const SimulationOptions& options)
      : schedule_(schedule),
        g_(schedule.graph()),
        platform_(schedule.platform()),
        contention_free_(options.comm.kind == CommModelKind::kContentionFree),
        comm_(make_comm_model(schedule.platform().proc_count(), options.comm)) {
    build_static();
  }

  SimulationResult run(const FailureTimeline& failures) {
    drive(failures.outages(), nullptr);
    return collect();
  }

  ScheduleSimulator::Summary run_summary(const FailureTimeline& failures,
                                         ReschedulePolicy* policy) {
    if (policy != nullptr) policy->begin_run();
    // A no-op policy is never consulted: the handlers then run the static
    // code paths verbatim (no view construction, no move application).
    drive(failures.outages(),
          (policy == nullptr || policy->is_noop()) ? nullptr : policy);
    return summarize();
  }

  void run_batch(std::span<const FailureTimeline> timelines,
                 std::span<ScheduleSimulator::Summary> summaries) {
    FTSCHED_REQUIRE(summaries.size() >= timelines.size(),
                    "run_batch: summary span shorter than the timeline span");
    for (std::size_t i = 0; i < timelines.size(); ++i) {
      drive(timelines[i].outages(), nullptr);
      summaries[i] = summarize();
    }
  }

 private:
  void drive(std::span<const ProcOutage> outages, ReschedulePolicy* policy) {
    reset();
    for (const ProcOutage& o : outages) {
      FTSCHED_REQUIRE(o.proc.index() < platform_.proc_count(),
                      "failure names an unknown processor");
      push(Event{o.crash_time, seq_++,
                 static_cast<std::uint32_t>(o.proc.index()), 0,
                 EventType::kCrash});
      if (o.repair_time < kInf) {
        repair_at_[o.proc.index()] = o.repair_time;
        push(Event{o.repair_time, seq_++,
                   static_cast<std::uint32_t>(o.proc.index()), 0,
                   EventType::kRepair});
      }
    }
    const std::size_t m = platform_.proc_count();
    for (std::size_t p = 0; p < m; ++p) {
      try_start(p, 0.0);
    }
    while (!events_.empty()) {
      const Event ev = pop();
      switch (ev.type) {
        case EventType::kFinish:
          on_finish(ev.a, ev.time);
          break;
        case EventType::kMessage:
          on_message(ev.a, ev.b, ev.time);
          break;
        case EventType::kCrash:
          on_crash(ev.a, ev.time, policy);
          break;
        case EventType::kRepair:
          on_repair(ev.a, ev.time, policy);
          break;
      }
    }
  }

  // --- static structure (depends only on the schedule) ----------------------

  void build_static() {
    const std::size_t v = g_.task_count();
    offset_.assign(v + 1, 0);
    for (std::size_t t = 0; t < v; ++t) {
      offset_[t + 1] = offset_[t] + schedule_.replicas(TaskId{t}).size();
    }
    const std::size_t total = offset_[v];
    proc_of_.resize(total);
    duration_.resize(total);
    std::vector<double> sched_start(total);
    task_of_.resize(total);
    for (std::size_t t = 0; t < v; ++t) {
      for (std::size_t flat = offset_[t]; flat < offset_[t + 1]; ++flat) {
        task_of_[flat] = static_cast<std::uint32_t>(t);
      }
    }

    // In-edge slots live in one arena: replica `flat` owns the contiguous
    // range [in_offset_[flat], in_offset_[flat + 1]), one slot per in-edge
    // of its task, in in-edge-list order.  slot_of_edge[e] is the position
    // of edge e within its destination's in-edge list.
    std::vector<std::size_t> slot_of_edge(g_.edge_count(), 0);
    in_offset_.assign(total + 1, 0);
    unsatisfied0_.assign(total, 0);
    for (TaskId t : g_.tasks()) {
      const auto in = g_.in_edges(t);
      for (std::size_t pos = 0; pos < in.size(); ++pos) {
        slot_of_edge[in[pos]] = pos;
      }
      const auto& reps = schedule_.replicas(t);
      for (std::size_t k = 0; k < reps.size(); ++k) {
        const std::size_t flat = offset_[t.index()] + k;
        proc_of_[flat] = static_cast<std::uint32_t>(reps[k].proc.index());
        duration_[flat] = reps[k].finish - reps[k].start;
        sched_start[flat] = reps[k].start;
        in_offset_[flat + 1] = in.size();
        unsatisfied0_[flat] = static_cast<std::uint32_t>(in.size());
      }
    }
    for (std::size_t flat = 0; flat < total; ++flat) {
      in_offset_[flat + 1] += in_offset_[flat];
    }
    const std::size_t total_slots = in_offset_[total];
    live_sources0_.assign(total_slots, 0);

    // Channels -> CSR outgoing lists and live-source counts.  Two passes:
    // count, then fill, preserving the per-source channel order of the
    // schedule (edge-major, channel order within the edge).
    out_offset_.assign(total + 1, 0);
    for (std::size_t e = 0; e < g_.edge_count(); ++e) {
      const Edge& edge = g_.edge(e);
      for (const Channel& c : schedule_.channels(e)) {
        ++out_offset_[offset_[edge.src.index()] + c.src_replica + 1];
      }
    }
    for (std::size_t flat = 0; flat < total; ++flat) {
      out_offset_[flat + 1] += out_offset_[flat];
    }
    out_.resize(out_offset_[total]);
    std::vector<std::size_t> fill(total, 0);
    for (std::size_t e = 0; e < g_.edge_count(); ++e) {
      const Edge& edge = g_.edge(e);
      for (const Channel& c : schedule_.channels(e)) {
        const std::size_t src = offset_[edge.src.index()] + c.src_replica;
        const std::size_t dst = offset_[edge.dst.index()] + c.dst_replica;
        const std::size_t slot = in_offset_[dst] + slot_of_edge[e];
        const double d = platform_.delay(ProcId{proc_of_[src]}, ProcId{proc_of_[dst]});
        out_[out_offset_[src] + fill[src]++] =
            OutChannel{static_cast<std::uint32_t>(dst),
                       static_cast<std::uint32_t>(slot), edge.volume * d,
                       edge.volume, proc_of_[src] != proc_of_[dst]};
        ++live_sources0_[slot];
      }
    }

    // Per-processor execution order (CSR): scheduled start, then flat id.
    const std::size_t m = platform_.proc_count();
    queue_offset_.assign(m + 1, 0);
    for (std::size_t flat = 0; flat < total; ++flat) {
      ++queue_offset_[proc_of_[flat] + 1];
    }
    for (std::size_t p = 0; p < m; ++p) {
      queue_offset_[p + 1] += queue_offset_[p];
    }
    queue_.resize(total);
    std::vector<std::size_t> qfill(m, 0);
    for (std::size_t flat = 0; flat < total; ++flat) {
      const std::size_t p = proc_of_[flat];
      queue_[queue_offset_[p] + qfill[p]++] = static_cast<std::uint32_t>(flat);
    }
    for (std::size_t p = 0; p < m; ++p) {
      std::sort(queue_.begin() + static_cast<std::ptrdiff_t>(queue_offset_[p]),
                queue_.begin() + static_cast<std::ptrdiff_t>(queue_offset_[p + 1]),
                [&sched_start](std::uint32_t a, std::uint32_t b) {
                  if (sched_start[a] != sched_start[b])
                    return sched_start[a] < sched_start[b];
                  return a < b;
                });
    }

    // Exit-task replica ranges, for the summary fold.
    for (TaskId t : g_.exit_tasks()) {
      exit_ranges_.emplace_back(offset_[t.index()], offset_[t.index() + 1]);
    }

    // Size the dynamic arrays once; reset() only overwrites them.
    state_.assign(total, State::kPending);
    actual_start_.assign(total, 0.0);
    actual_finish_.assign(total, 0.0);
    unsatisfied_ = unsatisfied0_;
    satisfied_.assign(total_slots, 0);
    live_sources_ = live_sources0_;
    head_.assign(m, 0);
    busy_.assign(m, 0);
    crashed_.assign(m, 0);
    cur_proc_ = proc_of_;
    cur_duration_ = duration_;
    moved_pool_.resize(m);
    running_.assign(m, kNoReplica);
    run_finish_.assign(m, 0.0);
    repair_at_.assign(m, kInf);
    mark_.assign(total, 0);
    // Worst-case live events: one finish per replica + one message per
    // channel in flight + the crashes; reserving the replica+channel part
    // up front makes the heap allocation-free for every scenario whose
    // crash count fits the slack of the round-up.
    events_.reserve(total + out_.size() + 16);
  }

  // --- per-run reset --------------------------------------------------------

  void reset() {
    // Contiguous fill/copy sweeps over the flat arrays — this is the whole
    // per-run cost of the build-once split, so it must stay memset-shaped.
    std::fill(state_.begin(), state_.end(), State::kPending);
    std::fill(actual_start_.begin(), actual_start_.end(), 0.0);
    std::fill(actual_finish_.begin(), actual_finish_.end(), 0.0);
    std::copy(unsatisfied0_.begin(), unsatisfied0_.end(), unsatisfied_.begin());
    std::fill(satisfied_.begin(), satisfied_.end(), std::uint8_t{0});
    std::copy(live_sources0_.begin(), live_sources0_.end(),
              live_sources_.begin());
    std::fill(head_.begin(), head_.end(), 0u);
    std::fill(busy_.begin(), busy_.end(), std::uint8_t{0});
    std::fill(crashed_.begin(), crashed_.end(), std::uint8_t{0});
    std::fill(running_.begin(), running_.end(), kNoReplica);
    std::fill(repair_at_.begin(), repair_at_.end(), kInf);
    // Only a policy move changes the placement; undo the last run's moves.
    if (moves_applied_ > 0) {
      std::copy(proc_of_.begin(), proc_of_.end(), cur_proc_.begin());
      std::copy(duration_.begin(), duration_.end(), cur_duration_.begin());
      for (auto& pool : moved_pool_) pool.clear();  // storage retained
    }
    moves_applied_ = 0;
    repairs_applied_ = 0;
    events_.clear();  // storage retained
    seq_ = 0;
    messages_delivered_ = 0;
    // Contention-aware models are stateful (they book delivery lanes as
    // messages flow); rewind instead of reallocating.  The contention-free
    // default is stateless and bypassed entirely in on_finish.
    if (!contention_free_) comm_->reset();
  }

  void push(const Event& ev) {
    events_.push_back(ev);
    std::push_heap(events_.begin(), events_.end(), EventLater{});
  }

  Event pop() {
    std::pop_heap(events_.begin(), events_.end(), EventLater{});
    const Event ev = events_.back();
    events_.pop_back();
    return ev;
  }

  // --- event handlers -------------------------------------------------------

  /// The OnlineView the policies observe: a window onto the current
  /// (post-move) dynamic state.
  class ViewAdapter final : public OnlineView {
   public:
    explicit ViewAdapter(const Impl& impl) : impl_(impl) {}

    [[nodiscard]] std::size_t proc_count() const override {
      return impl_.crashed_.size();
    }
    [[nodiscard]] bool alive(std::size_t p) const override {
      return impl_.crashed_[p] == 0;
    }
    [[nodiscard]] bool pending(TaskId t, std::size_t replica) const override {
      return impl_.state_[impl_.offset_[t.index()] + replica] ==
             State::kPending;
    }
    [[nodiscard]] std::size_t proc_of(TaskId t,
                                      std::size_t replica) const override {
      return impl_.cur_proc_[impl_.offset_[t.index()] + replica];
    }
    [[nodiscard]] double backlog(std::size_t p) const override {
      return impl_.busy_[p] ? impl_.run_finish_[p] : 0.0;
    }
    void pending_on(
        std::size_t p,
        std::vector<std::pair<TaskId, std::size_t>>& out) const override {
      // A replica moved away and back sits both in p's queue and in its
      // fill-in pool (and the pool may hold it twice): list it once.
      const std::uint32_t seen = impl_.fresh_mark();
      const auto list = [&](std::uint32_t flat) {
        if (impl_.cur_proc_[flat] != p) return;  // moved away
        if (impl_.state_[flat] != State::kPending) return;
        if (impl_.mark_[flat] == seen) return;
        impl_.mark_[flat] = seen;
        const std::uint32_t t = impl_.task_of_[flat];
        out.emplace_back(TaskId{t}, flat - impl_.offset_[t]);
      };
      const std::size_t end = impl_.queue_offset_[p + 1];
      for (std::size_t i = impl_.queue_offset_[p] + impl_.head_[p]; i < end;
           ++i) {
        list(impl_.queue_[i]);
      }
      // Replicas moved *onto* p live in the fill-in pool, not the queue.
      for (const std::uint32_t flat : impl_.moved_pool_[p]) list(flat);
    }
    void live_hosts(TaskId t, std::vector<std::size_t>& out) const override {
      for (std::size_t flat = impl_.offset_[t.index()];
           flat < impl_.offset_[t.index() + 1]; ++flat) {
        const State s = impl_.state_[flat];
        if (s == State::kPending || s == State::kRunning ||
            s == State::kCompleted) {
          out.push_back(impl_.cur_proc_[flat]);
        }
      }
    }

   private:
    const Impl& impl_;
  };

  /// A stamp no mark_ entry holds yet (entries are cleared on wrap-around).
  std::uint32_t fresh_mark() const {
    if (++mark_stamp_ == 0) {
      std::fill(mark_.begin(), mark_.end(), 0u);
      mark_stamp_ = 1;
    }
    return mark_stamp_;
  }

  /// Starts the next replica on p: the in-order scan of p's queue, skipping
  /// entries a policy moved away or that are already resolved.  Replicas a
  /// policy moved onto p do NOT join that in-order queue — they sit in a
  /// fill-in pool consulted when the queue scan is blocked or exhausted.
  /// Tail-appending them instead would make every rescue useless (it runs
  /// after the whole queue) and deadlock-prone (a blocked queue entry
  /// waiting on a moved replica parked behind another blocked entry).
  /// With no moves the pool is empty and the scan is the static rule
  /// exactly, which the policy=none bit-identity pins down.
  void try_start(std::size_t p, double now) {
    if (crashed_[p] || busy_[p]) return;
    const std::size_t base = queue_offset_[p];
    const std::size_t end = queue_offset_[p + 1];
    std::size_t cursor = base + head_[p];
    for (; cursor < end; ++cursor) {
      const std::uint32_t flat = queue_[cursor];
      if (cur_proc_[flat] != p) continue;  // moved away by a policy
      const State s = state_[flat];
      if (s == State::kCancelled || s == State::kDead ||
          s == State::kCompleted) {
        continue;  // skip provably-never-ready / lost / done replicas
      }
      if (s != State::kPending || unsatisfied_[flat] > 0) break;  // blocked
      head_[p] = static_cast<std::uint32_t>(cursor - base);
      start(p, flat, now);
      return;
    }
    head_[p] = static_cast<std::uint32_t>(cursor - base);
    auto& pool = moved_pool_[p];
    if (pool.empty()) return;
    // Fill in with the first ready moved replica, in arrival order (the
    // policies emit moves highest-priority-first, so arrival order is the
    // policy's own order).  Entries that moved on or resolved are dropped.
    std::size_t keep = 0;
    std::uint32_t chosen = kNoReplica;
    for (const std::uint32_t flat : pool) {
      if (cur_proc_[flat] != p || state_[flat] != State::kPending) continue;
      if (chosen == kNoReplica && unsatisfied_[flat] == 0) {
        chosen = flat;  // leaves the pool by starting
        continue;
      }
      pool[keep++] = flat;
    }
    pool.resize(keep);
    if (chosen != kNoReplica) start(p, chosen, now);
  }

  void start(std::size_t p, std::uint32_t flat, double now) {
    state_[flat] = State::kRunning;
    busy_[p] = 1;
    running_[p] = flat;
    actual_start_[flat] = now;
    const double finish = now + cur_duration_[flat];
    run_finish_[p] = finish;
    push(Event{finish, seq_++, flat, 0, EventType::kFinish});
  }

  void on_finish(std::uint32_t flat, double now) {
    if (state_[flat] != State::kRunning) return;  // killed by a crash
    state_[flat] = State::kCompleted;
    actual_finish_[flat] = now;
    const std::size_t p = cur_proc_[flat];
    busy_[p] = 0;
    running_[p] = kNoReplica;
    // A queue-scan start is always the head; a pool (fill-in) start is not,
    // and must leave the blocked head alone.
    const std::size_t head = queue_offset_[p] + head_[p];
    if (head < queue_offset_[p + 1] && queue_[head] == flat) ++head_[p];
    // Emit all outgoing messages (active replication: send unconditionally).
    const bool moved = moves_applied_ > 0;
    const std::size_t out_end = out_offset_[flat + 1];
    for (std::size_t i = out_offset_[flat]; i < out_end; ++i) {
      const OutChannel& ch = out_[i];
      bool interproc = ch.interproc;
      double d = ch.comm_duration;
      if (moved) {
        // Recomputed from the *current* processors with the static
        // operands (volume * delay): unmoved channels produce the exact
        // precomputed comm_duration double.
        const std::size_t dp = cur_proc_[ch.dst];
        interproc = p != dp;
        d = ch.volume * platform_.delay(ProcId{p}, ProcId{dp});
      }
      if (interproc) {
        // Contention-free arrival is ready + duration exactly; skipping the
        // virtual dispatch changes no double.
        const double arrival =
            contention_free_ ? now + d : comm_->deliver(ProcId{p}, now, d);
        ++messages_delivered_;
        push(Event{arrival, seq_++, ch.dst, ch.slot, EventType::kMessage});
      } else {
        push(Event{now, seq_++, ch.dst, ch.slot, EventType::kMessage});
      }
    }
    try_start(p, now);
  }

  void on_message(std::uint32_t dst, std::uint32_t slot, double now) {
    if (satisfied_[slot]) return;  // first input wins; ignore the rest
    satisfied_[slot] = 1;
    FTSCHED_ASSERT(unsatisfied_[dst] > 0, "satisfied count underflow");
    --unsatisfied_[dst];
    if (state_[dst] == State::kPending && unsatisfied_[dst] == 0) {
      try_start(cur_proc_[dst], now);
    }
  }

  void on_crash(std::uint32_t p, double now, ReschedulePolicy* policy) {
    if (crashed_[p]) return;
    crashed_[p] = 1;
    // Kill everything on p that has not completed by `now`.  A replica
    // finishing exactly at the crash instant counts as completed (its
    // finish event sorts before the crash event at equal time).  The
    // running replica dies first (it is the queue head, so this is queue
    // order); pending replicas get their fate below, after the policy had
    // its chance to move them.
    if (running_[p] != kNoReplica) {
      const std::uint32_t flat = running_[p];
      running_[p] = kNoReplica;
      if (state_[flat] == State::kRunning) {
        mark_lost(flat, State::kDead, now);
      }
    }
    busy_[p] = 0;
    const bool will_repair = repair_at_[p] > now && repair_at_[p] < kInf;
    if (policy != nullptr) {
      moves_scratch_.clear();
      const ViewAdapter view(*this);
      policy->on_event(view, OnlineEvent{OnlineEvent::Kind::kCrash, p, now},
                       moves_scratch_);
      apply_moves(*policy, now);
    }
    if (!will_repair) {
      // Permanent crash: every pending replica still on p dies in queue
      // order, then the fill-in pool in arrival order.  With a scheduled
      // repair they are parked through the outage instead and resume when
      // the processor returns.
      const std::size_t end = queue_offset_[p + 1];
      for (std::size_t i = queue_offset_[p] + head_[p]; i < end; ++i) {
        const std::uint32_t flat = queue_[i];
        if (cur_proc_[flat] == p && state_[flat] == State::kPending) {
          mark_lost(flat, State::kDead, now);
        }
      }
      for (const std::uint32_t flat : moved_pool_[p]) {
        if (cur_proc_[flat] == p && state_[flat] == State::kPending) {
          mark_lost(flat, State::kDead, now);
        }
      }
      moved_pool_[p].clear();
    }
  }

  void on_repair(std::uint32_t p, double now, ReschedulePolicy* policy) {
    if (!crashed_[p]) return;
    crashed_[p] = 0;
    repair_at_[p] = kInf;
    ++repairs_applied_;
    if (policy != nullptr) {
      moves_scratch_.clear();
      const ViewAdapter view(*this);
      policy->on_event(view, OnlineEvent{OnlineEvent::Kind::kRepair, p, now},
                       moves_scratch_);
      apply_moves(*policy, now);
    }
    try_start(p, now);
  }

  /// Applies the policy's moves in emitted order, then wakes the affected
  /// processors.  A move that breaks the ReplicaMove contract (unknown
  /// task, replica or processor, crashed target, non-pending replica, the
  /// same replica twice in one batch, bad duration) is a policy bug and
  /// fails loudly, naming the policy and the move.
  void apply_moves(const ReschedulePolicy& policy, double now) {
    const std::uint32_t batch = fresh_mark();
    for (const ReplicaMove& mv : moves_scratch_) {
      const auto bad = [&](const char* why) {
        return "policy '" + policy.spec() + "': move of task " +
               std::to_string(mv.task.index()) + " replica " +
               std::to_string(mv.replica) + " to processor " +
               std::to_string(mv.to.index()) + ": " + why;
      };
      FTSCHED_REQUIRE(mv.task.index() < g_.task_count(), bad("unknown task"));
      const std::size_t count =
          offset_[mv.task.index() + 1] - offset_[mv.task.index()];
      FTSCHED_REQUIRE(mv.replica < count, bad("unknown replica"));
      const std::uint32_t flat =
          static_cast<std::uint32_t>(offset_[mv.task.index()] + mv.replica);
      const std::size_t to = mv.to.index();
      FTSCHED_REQUIRE(to < crashed_.size(), bad("unknown processor"));
      FTSCHED_REQUIRE(crashed_[to] == 0, bad("target is crashed"));
      FTSCHED_REQUIRE(state_[flat] == State::kPending,
                      bad("replica is not pending"));
      FTSCHED_REQUIRE(mark_[flat] != batch,
                      bad("replica moved twice in one batch"));
      mark_[flat] = batch;
      FTSCHED_REQUIRE(std::isfinite(mv.duration) && mv.duration >= 0.0,
                      bad("duration must be finite and >= 0"));
      if (cur_proc_[flat] == to) continue;  // staying put: not a move
      cur_proc_[flat] = static_cast<std::uint32_t>(to);
      cur_duration_[flat] = mv.duration;
      moved_pool_[to].push_back(flat);
      ++moves_applied_;
    }
    // A moved replica may be ready right now, and its departure may have
    // unblocked the queue behind it; wake targets in emitted order, then
    // every live processor (deterministic sweep, try_start is idempotent).
    for (const ReplicaMove& mv : moves_scratch_) {
      if (crashed_[mv.to.index()] == 0) try_start(mv.to.index(), now);
    }
    for (std::size_t p = 0; p < crashed_.size(); ++p) {
      if (crashed_[p] == 0) try_start(p, now);
    }
  }

  /// Marks a replica dead/cancelled and propagates doomed-input
  /// cancellations downstream.
  void mark_lost(std::uint32_t flat, State lost_state, double now) {
    FTSCHED_ASSERT(state_[flat] == State::kPending ||
                       state_[flat] == State::kRunning,
                   "losing a replica twice");
    state_[flat] = lost_state;
    const std::size_t out_end = out_offset_[flat + 1];
    for (std::size_t i = out_offset_[flat]; i < out_end; ++i) {
      const OutChannel& ch = out_[i];
      FTSCHED_ASSERT(live_sources_[ch.slot] > 0, "live source count underflow");
      if (--live_sources_[ch.slot] == 0 && !satisfied_[ch.slot] &&
          state_[ch.dst] == State::kPending) {
        const std::size_t dp = cur_proc_[ch.dst];
        mark_lost(ch.dst, State::kCancelled, now);
        // Skipping the cancelled head may unblock the processor.
        if (!crashed_[dp]) try_start(dp, now);
      }
    }
  }

  // --- results --------------------------------------------------------------

  /// Success + achieved latency straight off the flat state arrays (the
  /// latency fold of collect() without materialising per-replica
  /// outcomes), plus the run's move and repair counts.
  ScheduleSimulator::Summary summarize() const {
    ScheduleSimulator::Summary s;
    s.moves = moves_applied_;
    s.repairs = repairs_applied_;
    s.success = true;
    double latency = 0.0;
    for (const auto& [begin, end] : exit_ranges_) {
      double done = kInf;
      for (std::size_t flat = begin; flat < end; ++flat) {
        if (state_[flat] == State::kCompleted) {
          done = std::min(done, actual_finish_[flat]);
        }
      }
      if (done == kInf) {
        s.success = false;
        s.latency = kInf;
        return s;
      }
      latency = std::max(latency, done);
    }
    s.latency = latency;
    return s;
  }

  SimulationResult collect() const {
    SimulationResult r;
    r.outcomes.resize(g_.task_count());
    for (TaskId t : g_.tasks()) {
      const std::size_t count = offset_[t.index() + 1] - offset_[t.index()];
      r.outcomes[t.index()].resize(count);
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t flat = offset_[t.index()] + k;
        ReplicaOutcome& o = r.outcomes[t.index()][k];
        switch (state_[flat]) {
          case State::kCompleted:
            o.status = ReplicaStatus::kCompleted;
            o.start = actual_start_[flat];
            o.finish = actual_finish_[flat];
            ++r.completed_replicas;
            break;
          case State::kDead:
            o.status = ReplicaStatus::kDead;
            o.start = actual_start_[flat];
            ++r.dead_replicas;
            break;
          case State::kCancelled:
            o.status = ReplicaStatus::kCancelled;
            ++r.cancelled_replicas;
            break;
          case State::kPending:
          case State::kRunning:
            o.status = ReplicaStatus::kNotStarted;
            break;
        }
      }
    }
    r.messages_delivered = messages_delivered_;
    r.success = true;
    double latency = 0.0;
    for (TaskId t : g_.exit_tasks()) {
      const double done = r.task_completion(t);
      if (done == kInf) {
        r.success = false;
        r.latency = kInf;
        return r;
      }
      latency = std::max(latency, done);
    }
    r.latency = latency;
    return r;
  }

  const ReplicatedSchedule& schedule_;
  const TaskGraph& g_;
  const Platform& platform_;
  bool contention_free_;
  std::unique_ptr<CommModel> comm_;  ///< built once, reset per run

  // Static (built once from the schedule).
  std::vector<std::size_t> offset_;       ///< task -> flat replica range
  std::vector<std::uint32_t> task_of_;    ///< flat replica -> task index
  std::vector<std::uint32_t> proc_of_;    ///< flat replica -> processor
  std::vector<double> duration_;
  std::vector<std::size_t> out_offset_;   ///< flat replica -> out_ CSR range
  std::vector<OutChannel> out_;
  std::vector<std::size_t> in_offset_;    ///< flat replica -> slot arena range
  std::vector<std::uint32_t> unsatisfied0_;
  std::vector<std::uint32_t> live_sources0_;
  std::vector<std::size_t> queue_offset_;  ///< processor -> queue_ CSR range
  std::vector<std::uint32_t> queue_;
  std::vector<std::pair<std::size_t, std::size_t>> exit_ranges_;

  // Dynamic (overwritten by reset(); all flat, nothing nested).
  std::vector<State> state_;
  std::vector<double> actual_start_;
  std::vector<double> actual_finish_;
  std::vector<std::uint32_t> unsatisfied_;   ///< copied from unsatisfied0_
  std::vector<std::uint8_t> satisfied_;      ///< slot arena, zero-filled
  std::vector<std::uint32_t> live_sources_;  ///< copied from live_sources0_
  std::vector<std::uint32_t> head_;  ///< per proc: first unresolved queue_ entry
  std::vector<std::uint8_t> busy_;
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint32_t> running_;  ///< per proc: running flat replica
  std::vector<double> run_finish_;      ///< per proc: running finish time
  std::vector<double> repair_at_;       ///< per proc: scheduled repair time
  std::vector<Event> events_;  ///< binary min-heap, storage retained
  std::uint32_t seq_ = 0;
  std::size_t messages_delivered_ = 0;

  // Placement state a policy can change: equal to proc_of_/duration_ (and
  // the pools empty) until a run applies a move.
  std::vector<std::uint32_t> cur_proc_;
  std::vector<double> cur_duration_;
  /// Per proc: replicas a policy moved here, in arrival order.  Fill-in
  /// work for when the in-order queue scan is blocked or exhausted.
  std::vector<std::vector<std::uint32_t>> moved_pool_;
  std::vector<ReplicaMove> moves_scratch_;
  /// Per flat replica: "seen in the current sweep" when equal to the
  /// latest fresh_mark() (pending_on's listing, apply_moves' batch).
  mutable std::vector<std::uint32_t> mark_;
  mutable std::uint32_t mark_stamp_ = 0;
  std::size_t moves_applied_ = 0;
  std::size_t repairs_applied_ = 0;
};

ScheduleSimulator::ScheduleSimulator(const ReplicatedSchedule& schedule,
                                     const SimulationOptions& options)
    : impl_(std::make_unique<Impl>(schedule, options)) {}

ScheduleSimulator::~ScheduleSimulator() = default;
ScheduleSimulator::ScheduleSimulator(ScheduleSimulator&&) noexcept = default;
ScheduleSimulator& ScheduleSimulator::operator=(ScheduleSimulator&&) noexcept =
    default;

SimulationResult ScheduleSimulator::run(const FailureTimeline& failures) {
  return impl_->run(failures);
}

ScheduleSimulator::Summary ScheduleSimulator::run_summary(
    const FailureTimeline& failures, ReschedulePolicy* policy) {
  return impl_->run_summary(failures, policy);
}

void ScheduleSimulator::run_batch(std::span<const FailureTimeline> timelines,
                                  std::span<Summary> summaries) {
  impl_->run_batch(timelines, summaries);
}

SimulationResult simulate(const ReplicatedSchedule& schedule,
                          const FailureTimeline& failures,
                          const SimulationOptions& options) {
  return ScheduleSimulator(schedule, options).run(failures);
}

}  // namespace ftsched
