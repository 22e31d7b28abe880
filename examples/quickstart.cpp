// Quickstart: build a small task graph by hand, schedule it with FTSA so
// it survives one processor failure, inspect the schedule, and execute it
// with and without a crash.
//
//   ./quickstart [--epsilon 1]
#include <iostream>

#include "ftsched/core/scheduler.hpp"
#include "ftsched/metrics/metrics.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/sim/trace.hpp"
#include "ftsched/util/cli.hpp"

using namespace ftsched;

int main(int argc, char** argv) {
  CliParser cli("quickstart: schedule a hand-built DAG fault-tolerantly");
  cli.add_option("epsilon", "1", "number of processor failures to tolerate");
  if (!cli.parse(argc, argv)) return 0;
  const auto epsilon = static_cast<std::size_t>(cli.get_int("epsilon"));

  // 1. The application: a small diamond-shaped workflow.
  //       read -> {filterA, filterB} -> merge -> write
  TaskGraph g("quickstart");
  const TaskId read = g.add_task("read");
  const TaskId filter_a = g.add_task("filterA");
  const TaskId filter_b = g.add_task("filterB");
  const TaskId merge = g.add_task("merge");
  const TaskId write = g.add_task("write");
  g.add_edge(read, filter_a, /*volume=*/40.0);
  g.add_edge(read, filter_b, 40.0);
  g.add_edge(filter_a, merge, 25.0);
  g.add_edge(filter_b, merge, 25.0);
  g.add_edge(merge, write, 10.0);

  // 2. The platform: four processors, heterogeneous link delays.
  const Platform platform({{0.0, 0.6, 0.9, 0.7},
                           {0.6, 0.0, 0.5, 0.8},
                           {0.9, 0.5, 0.0, 0.6},
                           {0.7, 0.8, 0.6, 0.0}});

  // 3. Execution times E(t, P): unrelated-machines model.
  const CostModel costs(g, platform,
                        {{12, 16, 14, 20},     // read
                         {35, 28, 42, 30},     // filterA
                         {38, 33, 29, 36},     // filterB
                         {18, 15, 22, 17},     // merge
                         {8, 11, 9, 12}});     // write

  // 4. Schedule with FTSA (looked up by name in the SchedulerRegistry):
  //    every task is replicated onto epsilon+1 processors, so up to
  //    epsilon fail-stop crashes are masked.
  const SchedulerPtr scheduler =
      make_scheduler("ftsa:eps=" + std::to_string(epsilon));
  std::cout << scheduler->describe() << "\n\n";
  const ReplicatedSchedule schedule = scheduler->run(costs);
  schedule.validate();

  std::cout << schedule_listing(schedule) << '\n';
  std::cout << "planned schedule (Gantt):\n"
            << schedule_gantt(schedule) << '\n';
  std::cout << "guaranteed latency under <= " << epsilon
            << " failures (M): " << schedule.upper_bound() << '\n';
  std::cout << "failure-free latency (M*):   " << schedule.lower_bound()
            << '\n';
  std::cout << "inter-processor messages:    "
            << schedule.interproc_message_count() << '\n';

  // 5. Execute it: once failure-free, once with a crash at time 10.
  const SimulationResult ok = simulate(schedule);
  std::cout << "\nfailure-free execution: latency " << ok.latency << '\n';

  FailureTimeline crash;
  crash.add(schedule.replicas(read)[0].proc, 10.0);
  const SimulationResult crashed = simulate(schedule, crash);
  std::cout << "with P" << schedule.replicas(read)[0].proc.value()
            << " crashing at t=10: success=" << crashed.success
            << ", latency " << crashed.latency << '\n';
  std::cout << "\nexecution trace with the crash:\n"
            << execution_gantt(schedule, crashed);
  return 0;
}
