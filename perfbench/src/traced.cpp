// The traced in-process composition: the public calls evaluate_group makes,
// in its order, each timed from the benchmark's side.
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "ftsched/core/reschedule.hpp"
#include "ftsched/core/scheduler.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/validator.hpp"
#include "ftsched/util/parallel.hpp"
#include "ftsched/util/rng.hpp"
#include "ftsched/workload/workload_registry.hpp"

namespace perfbench {

using namespace ftsched;

void LayerTotals::add(const LayerTotals& o) {
  generate_s += o.generate_s;
  schedule_s += o.schedule_s;
  ftsa_s += o.ftsa_s;
  mc_ftsa_s += o.mc_ftsa_s;
  ftbar_s += o.ftbar_s;
  reference_s += o.reference_s;
  policy_s += o.policy_s;
  draw_s += o.draw_s;
  sim_build_s += o.sim_build_s;
  static_s += o.static_s;
  online_s += o.online_s;
  busy_s += o.busy_s;
  policy_prepares += o.policy_prepares;
  online_runs += o.online_runs;
  static_runs += o.static_runs;
  cache_hits += o.cache_hits;
  ftbar_schedules += o.ftbar_schedules;
  ftbar_unsafe += o.ftbar_unsafe;
}

namespace {

/// Forwards every callback to the wrapped policy, timing each and counting
/// prepares and runs (run_online calls begin_run once per run).
class TimingPolicy final : public ReschedulePolicy {
 public:
  explicit TimingPolicy(ReschedulePolicy& inner) : inner_(inner) {}

  [[nodiscard]] std::string spec() const override { return inner_.spec(); }
  [[nodiscard]] bool is_noop() const override { return inner_.is_noop(); }

  void prepare(const ReplicatedSchedule& schedule) override {
    const Clock::time_point t0 = Clock::now();
    inner_.prepare(schedule);
    seconds += seconds_since(t0);
    ++prepares;
  }
  void begin_run() override {
    const Clock::time_point t0 = Clock::now();
    inner_.begin_run();
    seconds += seconds_since(t0);
    ++runs;
  }
  void on_event(const OnlineView& view, const OnlineEvent& event,
                std::vector<ReplicaMove>& moves) override {
    const Clock::time_point t0 = Clock::now();
    inner_.on_event(view, event, moves);
    seconds += seconds_since(t0);
  }

  double seconds = 0.0;
  std::uint64_t prepares = 0;
  std::uint64_t runs = 0;

 private:
  ReschedulePolicy& inner_;
};

/// The grid facts evaluate_group reads from the plan's private cells,
/// rebuilt from its public labels.
struct PlanCells {
  WorkloadFamilyPtr family;
  std::vector<CrashTimeLaw> laws;
  std::vector<FailureModel> models;

  explicit PlanCells(const SweepPlan& plan)
      : family(make_paper_family(plan.config().workload)) {
    FTSCHED_REQUIRE(plan.workloads().size() == 1 &&
                        plan.workloads().front() == "paper",
                    "the traced composition covers paper-family grids only");
    for (const std::string& s : plan.scenarios()) {
      laws.push_back(CrashTimeLaw::parse(s));
    }
    for (const std::string& f : plan.failures()) {
      models.push_back(FailureModel::parse(f));
      models.back().validate(plan.config().proc_count);
    }
  }
};

/// SweepPlan's instance stream key (workload, granularity, repetition).
std::uint64_t base_key(const SweepPlan& plan, const InstanceCoord& c) {
  const std::uint64_t points = plan.granularities().size();
  const std::uint64_t reps = plan.repetitions();
  return (c.workload * points + c.gran) * reps + c.rep;
}

template <class F>
auto timed(double& into, F&& f) {
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    into += seconds_since(t0);
  } else {
    auto result = f();
    into += seconds_since(t0);
    return result;
  }
}

SchedulerPtr instance_scheduler(const std::string& spec, std::size_t epsilon,
                                std::uint64_t seed) {
  return make_scheduler(spec, {{"eps", std::to_string(epsilon)},
                               {"seed", std::to_string(seed)}});
}

bool unsafe(const ReplicatedSchedule& schedule) {
  ValidatorOptions options;
  options.check_upper_bound = false;  // Theorem 4.1: every run succeeds
  return !validate_fault_tolerance(schedule, options).valid;
}

/// The schedule phase of one group, kept for the pass after the timed part.
struct GroupRun {
  Rng rng;  ///< the instance stream, positioned after the scheduler seed
  InstanceOptions options;
  std::unique_ptr<Workload> workload;
  std::optional<InstanceSchedules> schedules;
  std::vector<SeriesSample> samples;
  std::exception_ptr error;
};

/// evaluate_group's opening: derive the stream, generate, draw the seed.
GroupRun open_group(const SweepPlan& plan, const PlanCells& cells,
                    const InstanceCoord& first, double& generate_s) {
  const FigureConfig& config = plan.config();
  GroupRun g{Rng(config.seed).derive(base_key(plan, first)), {}, {}, {}, {},
             {}};
  const SweepPoint point{config.granularities[first.gran], config.proc_count};
  g.workload =
      timed(generate_s, [&] { return cells.family->generate(g.rng, point); });
  g.options.epsilon = config.epsilon;
  g.options.extra_crash_counts = config.extra_crash_counts;
  g.options.seed = g.rng();
  return g;
}

/// One group of the plan: evaluate_group's calls in its order, timed.
void evaluate_group_traced(const SweepPlan& plan, const PlanCells& cells,
                           const std::vector<std::size_t>& members,
                           GroupRun& g, LayerTotals& t) {
  double generate_s = 0.0;
  g = open_group(plan, cells, plan.coord(members.front()), generate_s);
  double schedule_s = 0.0;
  g.schedules.emplace(timed(schedule_s, [&] {
    return build_instance_schedules(*g.workload, g.options);
  }));
  const InstanceSchedules& schedules = *g.schedules;
  t.generate_s += generate_s;
  t.schedule_s += schedule_s;
  double busy = generate_s + schedule_s;

  SimulationCache cache;
  g.samples.reserve(members.size());
  for (const std::size_t k : members) {
    const InstanceCoord c = plan.coord(k);
    Rng cell_rng = g.rng;
    double draw_s = 0.0;
    const CellDraw draw = timed(draw_s, [&] {
      return draw_instance_cell(schedules, cell_rng, cells.laws[c.scenario],
                                cells.models[c.failure]);
    });
    double policy_make_s = 0.0;
    const ReschedulePolicyPtr policy = timed(policy_make_s, [&] {
      return make_reschedule_policy(plan.policies()[c.policy]);
    });
    double sim_s = 0.0;
    if (policy->is_noop()) {
      g.samples.push_back(timed(
          sim_s, [&] { return simulate_drawn_cell(schedules, draw, &cache); }));
      t.static_s += sim_s;
    } else {
      TimingPolicy timing(*policy);
      g.samples.push_back(timed(sim_s, [&] {
        return simulate_online_cell(schedules, draw, timing);
      }));
      t.online_s += sim_s - timing.seconds;
      t.policy_s += timing.seconds;
      t.policy_prepares += timing.prepares;
      t.online_runs += timing.runs;
    }
    t.draw_s += draw_s;
    t.policy_s += policy_make_s;
    busy += draw_s + policy_make_s + sim_s;
  }
  t.static_runs += cache.stats().simulations;
  t.cache_hits += cache.stats().hits;
  t.busy_s += busy;
}

/// The solo scheduler runs and simulator builds that split a group's
/// schedule phase, each timed on its own.
void split_schedule_phase(const GroupRun& g, LayerTotals& t) {
  const CostModel& costs = g.workload->costs();
  for (const InstanceAlgo& algo : default_instance_algos(g.options)) {
    double& slot = algo.key == "FTSA"      ? t.ftsa_s
                   : algo.key == "MC-FTSA" ? t.mc_ftsa_s
                                           : t.ftbar_s;
    timed(slot, [&] {
      (void)instance_scheduler(algo.spec, g.options.epsilon, g.options.seed)
          ->run(costs);
    });
  }
  timed(t.reference_s, [&] {
    (void)instance_scheduler("ftsa:eps=0", 0, g.options.seed)->run(costs);
    (void)instance_scheduler("ftbar:npf=0", 0, g.options.seed)->run(costs);
  });
  for (const InstanceSchedules::Algo& a : g.schedules->algos) {
    timed(t.sim_build_s,
          [&] { (void)ScheduleSimulator(*a.schedule, g.options.sim); });
  }
}

}  // namespace

double run_traced(const SweepPlan& plan, SweepSink& sink, std::size_t threads,
                  LayerTotals& totals) {
  const Clock::time_point start = Clock::now();
  const PlanCells cells(plan);
  const std::vector<std::vector<std::size_t>> groups = plan.group_selection();
  std::vector<GroupRun> runs(groups.size());
  std::vector<LayerTotals> per_group(groups.size());

  ParallelExecutor executor(threads);
  executor.for_each(groups.size(), [&](std::size_t g) {
    try {
      evaluate_group_traced(plan, cells, groups[g], runs[g], per_group[g]);
    } catch (...) {
      runs[g].error = std::current_exception();
    }
  });
  std::exception_ptr error;
  for (const GroupRun& r : runs) {
    if (r.error && !error) error = r.error;
  }
  if (!error) {
    // slot[k] = (group, position) of selected index k; deliver in id order.
    std::vector<std::pair<std::size_t, std::size_t>> slot(plan.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (std::size_t p = 0; p < groups[g].size(); ++p) {
        slot[groups[g][p]] = {g, p};
      }
    }
    for (std::size_t k = 0; k < plan.size(); ++k) {
      sink.on_sample(plan.coord(k),
                     runs[slot[k].first].samples[slot[k].second]);
    }
  }
  const double wall = seconds_since(start);

  if (error) std::rethrow_exception(error);

  // After `wall`: the schedule-phase split, and every FTBAR schedule
  // checked against Theorem 4.1.
  executor.for_each(groups.size(), [&](std::size_t g) {
    split_schedule_phase(runs[g], per_group[g]);
    for (const InstanceSchedules::Algo& a : runs[g].schedules->algos) {
      if (a.algo.key != "FTBAR") continue;
      ++per_group[g].ftbar_schedules;
      if (unsafe(*a.schedule)) ++per_group[g].ftbar_unsafe;
    }
  });
  for (const LayerTotals& t : per_group) totals.add(t);
  return wall;
}

ScheduleAudit audit_schedules(const SweepPlan& plan) {
  const PlanCells cells(plan);
  ScheduleAudit out;
  for (const std::vector<std::size_t>& members : plan.group_selection()) {
    double generate_s = 0.0;
    const GroupRun g =
        open_group(plan, cells, plan.coord(members.front()), generate_s);
    const InstanceSchedules schedules =
        build_instance_schedules(*g.workload, g.options);
    for (const InstanceSchedules::Algo& a : schedules.algos) {
      const bool ftbar = a.algo.key == "FTBAR";
      if (ftbar) ++out.ftbar;
      if (unsafe(*a.schedule)) ++(ftbar ? out.ftbar_unsafe : out.other_unsafe);
    }
  }
  return out;
}

}  // namespace perfbench
