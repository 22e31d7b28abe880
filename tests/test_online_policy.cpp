// Online rescheduling (PR 9 tentpole): the schedule→simulate inversion must
// be a strict generalisation of the static path.  `policy=none` (or a null
// policy) over a repair-free timeline is bit-exact with run_batch(); an
// empty timeline makes *every* registered policy reproduce the static run;
// the policy sweep axis is deterministic across thread counts and the
// grouped/ungrouped paths; the shard protocol round-trips the new policy
// field and still reads pre-policy shards (no "policies" header field, no
// "pol" record field) as an implicit `none` column.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ftsched/core/ftsa.hpp"
#include "ftsched/core/reschedule.hpp"
#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/workload/paper_workload.hpp"
#include "proptest.hpp"

namespace ftsched {
namespace {

/// Uniform draw from {0, ..., n-1}.
std::size_t below(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

std::unique_ptr<Workload> random_workload(Rng& rng, std::size_t procs,
                                          std::size_t tasks) {
  PaperWorkloadParams params;
  params.task_min = params.task_max = tasks;
  params.proc_count = procs;
  return make_paper_workload(rng, params);
}

/// A timeline of `count` random permanent crashes at random instants —
/// beyond the tolerated ε half the time, so failed runs are exercised too.
FailureTimeline random_crashes_at(Rng& rng, std::size_t procs, double anchor) {
  const std::size_t count = below(rng, procs);
  const auto victims = rng.sample_without_replacement(procs, count);
  FailureTimeline timeline;
  for (const std::size_t v : victims) {
    timeline.add(ProcId{v}, rng.uniform(0.0, 1.5) * anchor);
  }
  return timeline;
}

void expect_same(const ScheduleSimulator::Summary& got,
                 const ScheduleSimulator::Summary& want) {
  EXPECT_EQ(got.success, want.success);
  if (std::isinf(want.latency)) {
    EXPECT_TRUE(std::isinf(got.latency));
  } else {
    EXPECT_EQ(got.latency, want.latency);
  }
}

TEST(OnlinePolicy, NoneAndNullPolicyMatchStaticBitExact) {
  proptest::check(
      "run_summary(repair-free timeline, none/null) == run_batch, bit for "
      "bit",
      [](Rng& rng, std::uint64_t) {
        const std::size_t procs = 4 + below(rng, 4);
        const auto w = random_workload(rng, procs, 12 + below(rng, 20));
        const std::size_t eps = 1 + below(rng, 2);
        const auto s = ftsa_schedule(w->costs(), FtsaOptions{eps, 0});
        ScheduleSimulator sim(s);
        const ReschedulePolicyPtr none = make_reschedule_policy("none");
        ASSERT_TRUE(none->is_noop());

        std::vector<FailureTimeline> timelines;
        for (std::size_t i = 0; i < 8; ++i) {
          timelines.push_back(random_crashes_at(rng, procs, s.lower_bound()));
          for (const ProcOutage& o : timelines.back().outages()) {
            EXPECT_TRUE(std::isinf(o.repair_time));
          }
        }
        std::vector<ScheduleSimulator::Summary> batch(timelines.size());
        sim.run_batch(timelines, batch);

        for (std::size_t i = 0; i < timelines.size(); ++i) {
          const auto null_run = sim.run_summary(timelines[i], nullptr);
          expect_same(null_run, batch[i]);
          EXPECT_EQ(null_run.moves, 0u);
          EXPECT_EQ(null_run.repairs, 0u);

          const auto none_run = sim.run_summary(timelines[i], none.get());
          expect_same(none_run, batch[i]);
          EXPECT_EQ(none_run.moves, 0u);
        }
      },
      {.iterations = 10});
}

TEST(OnlinePolicy, EmptyTimelineMatchesStaticForEveryRegisteredPolicy) {
  proptest::check(
      "zero-crash timeline: every registered policy == static run",
      [](Rng& rng, std::uint64_t) {
        const std::size_t procs = 4 + below(rng, 3);
        const auto w = random_workload(rng, procs, 12 + below(rng, 12));
        const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
        ScheduleSimulator sim(s);
        const ScheduleSimulator::Summary want = sim.run_summary();
        ASSERT_TRUE(want.success);

        for (const std::string& name : PolicyRegistry::global().names()) {
          const ReschedulePolicyPtr policy = make_reschedule_policy(name);
          policy->prepare(s);
          const auto got = sim.run_summary(FailureTimeline{}, policy.get());
          expect_same(got, want);
          EXPECT_EQ(got.moves, 0u) << "policy '" << name
                                   << "' moved replicas with zero crashes";
        }
      },
      {.iterations = 6});
}

/// Counts the simulator's calls; moves nothing.
class CountingPolicy final : public ReschedulePolicy {
 public:
  explicit CountingPolicy(bool noop) : noop_(noop) {}
  [[nodiscard]] std::string spec() const override { return "counting"; }
  [[nodiscard]] bool is_noop() const override { return noop_; }
  void begin_run() override { ++runs; }
  void on_event(const OnlineView&, const OnlineEvent&,
                std::vector<ReplicaMove>&) override {
    ++events;
  }

  std::size_t runs = 0;
  std::size_t events = 0;

 private:
  bool noop_;
};

TEST(OnlinePolicy, RunSummaryBeginsEachRunOnceAndSkipsANoopPolicy) {
  Rng rng(5);
  const auto w = random_workload(rng, 5, 16);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  ScheduleSimulator sim(s);
  FailureTimeline timeline;
  timeline.add(ProcId{1}, 0.3 * s.lower_bound(), 0.6 * s.lower_bound());
  timeline.add(ProcId{3}, 0.5 * s.lower_bound());
  for (const bool noop : {false, true}) {
    CountingPolicy policy(noop);
    for (int run = 0; run < 3; ++run) {
      (void)sim.run_summary(timeline, &policy);
    }
    (void)sim.run_summary(timeline);  // no policy, nothing to call
    EXPECT_EQ(policy.runs, 3u) << "noop=" << noop;
    // Two crashes and one repair per run; a no-op policy is never asked.
    EXPECT_EQ(policy.events, noop ? 0u : 9u) << "noop=" << noop;
  }
}

/// 2 workloads x 2 scenarios x 2 failure models x 3 policies x 2
/// granularities x 2 reps = 96 instances; one failure law has repairs so
/// the reactive policies actually fire.
FigureConfig policy_grid_config() {
  FigureConfig config = figure_config(1);
  config.granularities = {0.5, 1.0};
  config.graphs_per_point = 2;
  config.proc_count = 5;
  config.workload.proc_count = 5;
  config.seed = 17;
  config.threads = 2;
  config.workloads = {"paper", "chain:size=10"};
  config.scenarios = {"t0", "frac:f=0.5"};
  config.failure_models = {"bernoulli:p=0.3", "repair:p=0.3,mttr=0.5"};
  config.policies = {"none", "requeue-heft", "reactive-ftsa"};
  return config;
}

TEST(OnlinePolicy, PolicyAxisGridShapeAndLabels) {
  const SweepPlan plan(policy_grid_config());
  EXPECT_EQ(plan.policies(),
            (std::vector<std::string>{"none", "requeue-heft",
                                      "reactive-ftsa"}));
  EXPECT_EQ(plan.grid_size(), 2u * 2u * 2u * 3u * 2u * 2u);

  // The policy index cycles fastest among the cell-ish factors and the
  // series label carries a fourth "|policy" part on multi-policy grids.
  bool saw_reactive = false;
  for (std::size_t k = 0; k < plan.size(); ++k) {
    const InstanceCoord c = plan.coord(k);
    ASSERT_LT(c.policy, 3u);
    const std::string label = plan.series_label(c, "X");
    EXPECT_NE(label.find("|" + plan.policies()[c.policy]), std::string::npos)
        << label;
    saw_reactive = saw_reactive || c.policy == 2;
  }
  EXPECT_TRUE(saw_reactive);

  // Bad policy axes are rejected at plan construction.
  FigureConfig dup = policy_grid_config();
  dup.policies = {"none", "none"};
  EXPECT_THROW((void)SweepPlan(dup), InvalidArgument);
  FigureConfig unknown = policy_grid_config();
  unknown.policies = {"meteor"};
  EXPECT_THROW((void)SweepPlan(unknown), InvalidArgument);
}

TEST(OnlinePolicy, NoneColumnOfMultiPolicyGridMatchesSinglePolicyPlan) {
  // The policy axis must not perturb the instance streams: the `none`
  // column of a 3-policy grid is the same draws — and byte for byte the
  // same samples — as the legacy single-policy plan.
  const SweepPlan plan(policy_grid_config());
  FigureConfig base_config = policy_grid_config();
  base_config.policies.clear();
  const SweepPlan base(base_config);
  ASSERT_EQ(base.grid_size() * 3u, plan.grid_size());

  constexpr std::size_t kScenarios = 2, kFailures = 2, kGrans = 2, kReps = 2;
  for (std::size_t k = 0; k < plan.size(); ++k) {
    const InstanceCoord c = plan.coord(k);
    if (c.policy != 0) continue;
    const std::size_t base_id =
        (((c.workload * kScenarios + c.scenario) * kFailures + c.failure) *
             kGrans +
         c.gran) *
            kReps +
        c.rep;
    EXPECT_EQ(plan.evaluate(c), base.evaluate(base.coord(base_id)))
        << "none column diverged from the legacy plan at id " << c.id;
  }
}

TEST(OnlinePolicy, BitIdenticalAcrossThreadCountsAndGrouping) {
  FigureConfig config = policy_grid_config();
  config.threads = 1;
  const SweepPlan serial_plan(config);
  OnlineStatsSink reference_sink(serial_plan);
  run_plan(serial_plan, reference_sink, RunPlanOptions{.group = false});
  const SweepResult reference = reference_sink.take();
  EXPECT_EQ(reference.policies, serial_plan.policies());

  for (const std::size_t threads : {1u, 2u, 3u}) {
    for (const bool group : {false, true}) {
      config.threads = threads;
      const SweepPlan plan(config);
      OnlineStatsSink sink(plan);
      run_plan(plan, sink, RunPlanOptions{.group = group});
      EXPECT_TRUE(sweep_results_identical(reference, sink.take()))
          << "threads=" << threads << " group=" << group;
    }
  }
}

/// The sink-visible outcome of a run as the JSONL shard stream.
std::string shard_bytes(const SweepPlan& plan, const RunPlanOptions& options) {
  std::stringstream out;
  ShardWriterSink sink(out, plan);
  run_plan(plan, sink, options);
  return out.str();
}

TEST(OnlinePolicy, ShardMergeRoundTripsThePolicyAxis) {
  const SweepPlan plan(policy_grid_config());
  OnlineStatsSink full_sink(plan);
  run_plan(plan, full_sink, RunPlanOptions{.group = false});
  const SweepResult reference = full_sink.take();

  std::vector<ShardFile> shards;
  for (std::size_t i = 0; i < 3; ++i) {
    std::stringstream file(
        shard_bytes(plan.shard(i, 3), RunPlanOptions{.group = true}));
    shards.push_back(read_shard(file, "p" + std::to_string(i)));
  }
  const SweepResult merged = merge_shards(shards);
  EXPECT_EQ(merged.policies, plan.policies());
  EXPECT_TRUE(sweep_results_identical(reference, merged));
}

/// Removes every occurrence of `needle`, returning how many were cut.
std::size_t strip_all(std::string& text, const std::string& needle) {
  std::size_t cut = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at)) {
    text.erase(at, needle.size());
    ++cut;
  }
  return cut;
}

TEST(OnlinePolicy, PrePolicyShardsReadAsAnImplicitNoneColumn) {
  // A shard written before the policy axis existed has no "policies"
  // header field and no "pol" record field; synthesise one by stripping
  // exactly those bytes from a fresh default-policy shard and check the
  // reader treats it as the single `none` column it always was.
  FigureConfig config = policy_grid_config();
  config.policies.clear();
  config.failure_models = {"eps", "bernoulli:p=0.3"};
  const SweepPlan plan(config);
  OnlineStatsSink full_sink(plan);
  run_plan(plan, full_sink, RunPlanOptions{.group = false});
  const SweepResult reference = full_sink.take();

  std::string legacy = shard_bytes(plan, RunPlanOptions{.group = true});
  ASSERT_EQ(strip_all(legacy, ",\"policies\":\"none\""), 1u);
  ASSERT_GT(strip_all(legacy, ",\"pol\":\"0\""), 0u);

  std::stringstream file(legacy);
  const ShardFile shard = read_shard(file, "pre-policy");
  EXPECT_EQ(shard.header.policies, std::vector<std::string>{"none"});
  EXPECT_EQ(shard.header.fingerprint(), plan.fingerprint());
  EXPECT_TRUE(sweep_results_identical(reference, merge_shards({shard})));
}

TEST(OnlinePolicy, RepairDomainBeyondProcCountIsRejected) {
  // Satellite: a repair/burst law whose failure domain exceeds the
  // platform is one whole-platform mega-domain in disguise — reject it at
  // plan construction with the spec-style message.
  const FailureModel repair =
      FailureModel::parse("repair:p=0.2,mttr=0.5,domain=8");
  EXPECT_NO_THROW(repair.validate(8));
  try {
    repair.validate(4);
    FAIL() << "validate accepted domain=8 on 4 processors";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("domain"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(
      FailureModel::parse("burst:p=0.2,domain=9").validate(5),
      InvalidArgument);
  // Plain bernoulli has no domain notion: nothing to validate.
  EXPECT_NO_THROW(FailureModel::parse("bernoulli:p=0.2").validate(1));

  FigureConfig config = policy_grid_config();
  config.failure_models = {"repair:p=0.2,mttr=0.5,domain=8"};
  EXPECT_THROW((void)SweepPlan(config), InvalidArgument);
}

/// Records every delivered sample.
class CollectSink final : public SweepSink {
 public:
  void on_sample(const InstanceCoord& coord,
                 const SeriesSample& sample) override {
    samples.emplace_back(coord, sample);
  }
  std::vector<std::pair<InstanceCoord, SeriesSample>> samples;
};

TEST(OnlinePolicy, RunPlanStatsCountOnlineRunsAndMoves) {
  // Static and online simulations are counted apart: simulations_run and
  // dedupe_hits stay the static (`none`) counters, online_runs counts one
  // policy run per (non-`none` cell, algorithm) and policy_moves sums the
  // cells' Moves series.
  const SweepPlan plan(policy_grid_config());
  RunPlanStats stats;
  CollectSink sink;
  run_plan(plan, sink, RunPlanOptions{.stats = &stats});

  const std::size_t algorithms =
      default_instance_algos(InstanceOptions{}).size();
  std::uint64_t online_cells = 0;
  double moves = 0.0;
  for (const auto& [coord, sample] : sink.samples) {
    if (plan.policies()[coord.policy] == "none") continue;
    ++online_cells;
    for (const auto& [name, value] : sample) {
      if (name.ends_with("-Moves")) moves += value;
    }
  }
  EXPECT_EQ(online_cells, 2u * plan.size() / 3u);
  EXPECT_EQ(stats.online_runs, online_cells * algorithms);
  EXPECT_EQ(stats.policy_moves, static_cast<std::uint64_t>(moves));
  EXPECT_GT(stats.policy_moves, 0u);

  // The static counters are those of the `none` column alone.
  FigureConfig none_config = policy_grid_config();
  none_config.policies = {"none"};
  const SweepPlan none_plan(none_config);
  RunPlanStats none_stats;
  CollectSink none_sink;
  run_plan(none_plan, none_sink, RunPlanOptions{.stats = &none_stats});
  EXPECT_EQ(stats.simulations_run, none_stats.simulations_run);
  EXPECT_EQ(stats.dedupe_hits, none_stats.dedupe_hits);
  EXPECT_EQ(none_stats.online_runs, 0u);
  EXPECT_EQ(none_stats.policy_moves, 0u);
}

/// A policy that answers the first crash with one contract-breaking move.
class RoguePolicy final : public ReschedulePolicy {
 public:
  enum class Fault {
    kUnknownTask,
    kUnknownProcessor,
    kCrashedTarget,
    kNotPending,
    kTwice
  };
  explicit RoguePolicy(Fault fault) : fault_(fault) {}

  [[nodiscard]] std::string spec() const override { return "rogue"; }
  void prepare(const ReplicatedSchedule& schedule) override {
    schedule_ = &schedule;
  }
  void begin_run() override { fired_ = false; }

  void on_event(const OnlineView& view, const OnlineEvent& event,
                std::vector<ReplicaMove>& moves) override {
    if (event.kind != OnlineEvent::Kind::kCrash || fired_) return;
    fired_ = true;
    const std::size_t m = view.proc_count();
    std::vector<std::pair<TaskId, std::size_t>> pending;
    for (std::size_t p = 0; p < m; ++p) view.pending_on(p, pending);
    ASSERT_FALSE(pending.empty());
    const auto [t, r] = pending.front();
    // Two live processors other than the replica's current host.
    std::vector<std::size_t> live;
    for (std::size_t p = 0; p < m; ++p) {
      if (view.alive(p) && p != view.proc_of(t, r)) live.push_back(p);
    }
    ASSERT_GE(live.size(), 2u);
    switch (fault_) {
      case Fault::kUnknownTask:
        moves.push_back({TaskId{schedule_->graph().task_count()}, 0,
                         ProcId{live[0]}, 1.0});
        break;
      case Fault::kUnknownProcessor:
        moves.push_back({t, r, ProcId{m}, 1.0});
        break;
      case Fault::kCrashedTarget:
        moves.push_back({t, r, ProcId{event.proc}, 1.0});
        break;
      case Fault::kNotPending:
        for (const TaskId u : schedule_->graph().tasks()) {
          for (std::size_t k = 0; k < schedule_->replicas(u).size(); ++k) {
            if (!view.pending(u, k)) {
              moves.push_back({u, k, ProcId{live[0]}, 1.0});
              return;
            }
          }
        }
        FAIL() << "no started replica at the first crash";
        break;
      case Fault::kTwice:
        moves.push_back({t, r, ProcId{live[0]}, 1.0});
        moves.push_back({t, r, ProcId{live[1]}, 1.0});
        break;
    }
  }

 private:
  Fault fault_;
  const ReplicatedSchedule* schedule_ = nullptr;
  bool fired_ = false;
};

/// Moves one late pending replica away from its processor on the first
/// event and back on the second, then records how often the third
/// event's pending_on lists it.
class PingPongPolicy final : public ReschedulePolicy {
 public:
  [[nodiscard]] std::string spec() const override { return "ping-pong"; }
  void prepare(const ReplicatedSchedule& schedule) override {
    schedule_ = &schedule;
  }
  void begin_run() override { events_ = 0; }

  void on_event(const OnlineView& view, const OnlineEvent&,
                std::vector<ReplicaMove>& moves) override {
    const std::size_t m = view.proc_count();
    std::vector<std::pair<TaskId, std::size_t>> pending;
    switch (events_++) {
      case 0:
        // The last queued replica of the first live processor that has
        // one, moved to another live processor.
        for (home_ = 0; home_ < m && pending.empty(); ++home_) {
          if (view.alive(home_)) view.pending_on(home_, pending);
        }
        ASSERT_FALSE(pending.empty());
        --home_;
        replica_ = pending.back();
        for (std::size_t p = m; p-- > 0;) {
          if (view.alive(p) && p != home_) {
            moves.push_back(move_to(p));
            return;
          }
        }
        FAIL() << "no second live processor";
        break;
      case 1:
        ASSERT_TRUE(view.pending(replica_.first, replica_.second));
        moves.push_back(move_to(home_));
        break;
      case 2:
        view.pending_on(home_, pending);
        listed = static_cast<std::size_t>(
            std::count(pending.begin(), pending.end(), replica_));
        break;
      default:
        break;
    }
  }

  std::size_t listed = 0;

 private:
  ReplicaMove move_to(std::size_t p) const {
    return {replica_.first, replica_.second, ProcId{p},
            schedule_->costs().exec(replica_.first, ProcId{p})};
  }

  const ReplicatedSchedule* schedule_ = nullptr;
  std::size_t events_ = 0;
  std::size_t home_ = 0;
  std::pair<TaskId, std::size_t> replica_;
};

TEST(OnlinePolicy, PendingOnListsAReplicaMovedAwayAndBackOnce) {
  // Back on its processor, the replica sits both in that processor's
  // queue and in its fill-in pool; the view must still list it once, or a
  // policy places it twice.
  Rng rng(77);
  const auto w = random_workload(rng, 6, 30);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  ScheduleSimulator sim(s);
  const double lb = s.lower_bound();
  FailureTimeline timeline;
  timeline.add(ProcId{5}, 0.02 * lb, 0.04 * lb);  // events 0 and 1
  timeline.add(ProcId{4}, 0.06 * lb);             // event 2
  PingPongPolicy policy;
  policy.prepare(s);
  (void)sim.run_summary(timeline, &policy);
  EXPECT_EQ(policy.listed, 1u);
}

TEST(OnlinePolicy, PolicyRunRejectsContractBreakingMoves) {
  Rng rng(2024);
  const auto w = random_workload(rng, 6, 30);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  ScheduleSimulator sim(s);
  // Processor 0 crashes halfway through the fault-free makespan, when some
  // replicas have started and others are still pending.
  FailureTimeline timeline;
  timeline.add(ProcId{0}, 0.5 * s.lower_bound(), s.lower_bound());

  using Fault = RoguePolicy::Fault;
  const std::pair<Fault, const char*> cases[] = {
      {Fault::kUnknownTask, "unknown task"},
      {Fault::kUnknownProcessor, "unknown processor"},
      {Fault::kCrashedTarget, "target is crashed"},
      {Fault::kNotPending, "replica is not pending"},
      {Fault::kTwice, "replica moved twice in one batch"},
  };
  for (const auto& [fault, why] : cases) {
    RoguePolicy rogue(fault);
    rogue.prepare(s);
    try {
      (void)sim.run_summary(timeline, &rogue);
      ADD_FAILURE() << "run_summary accepted a move with: " << why;
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("policy 'rogue': move of task"), std::string::npos)
          << what;
      EXPECT_NE(what.find(why), std::string::npos) << what;
    }
  }

  // The simulator stays usable after a rejected batch, and the built-in
  // policies keep the contract on the same timeline.
  for (const std::string& name : PolicyRegistry::global().names()) {
    const ReschedulePolicyPtr policy = make_reschedule_policy(name);
    policy->prepare(s);
    EXPECT_NO_THROW((void)sim.run_summary(timeline, policy.get())) << name;
  }
}

}  // namespace
}  // namespace ftsched
