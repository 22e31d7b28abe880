// Domain scenario: a Montage-style astronomy image mosaicking workflow —
// the classic motivating application for DAG scheduling on heterogeneous
// platforms.  N input images are projected in parallel, overlapping pairs
// are background-matched, a global fit feeds per-image corrections, and a
// final mosaic gathers everything.
//
// The pipeline is time-critical (the paper's motivation): we schedule it
// with FTSA and MC-FTSA at ε = 2, compare message overhead, and replay the
// schedule under randomly drawn crashes.
//
//   ./montage_pipeline [--images 8] [--procs 8] [--epsilon 2] [--seed 1]
#include <iostream>

#include "ftsched/core/scheduler.hpp"
#include "ftsched/metrics/metrics.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/sim/trace.hpp"
#include "ftsched/util/cli.hpp"
#include "ftsched/util/table.hpp"
#include "ftsched/workload/paper_workload.hpp"

using namespace ftsched;

namespace {

// Builds the Montage-like DAG: project_i -> diff_{i,i+1} -> bgmodel ->
// background_i -> mosaic, with an extra shrink/preview stage.
TaskGraph make_montage(std::size_t images) {
  TaskGraph g("montage");
  std::vector<TaskId> project(images);
  for (std::size_t i = 0; i < images; ++i) {
    project[i] = g.add_task("proj" + std::to_string(i));
  }
  // Overlap differences between neighbouring images.
  std::vector<TaskId> diff(images - 1);
  for (std::size_t i = 0; i + 1 < images; ++i) {
    diff[i] = g.add_task("diff" + std::to_string(i));
    g.add_edge(project[i], diff[i], 60.0);
    g.add_edge(project[i + 1], diff[i], 60.0);
  }
  const TaskId bgmodel = g.add_task("bgmodel");
  for (TaskId d : diff) g.add_edge(d, bgmodel, 20.0);
  std::vector<TaskId> background(images);
  for (std::size_t i = 0; i < images; ++i) {
    background[i] = g.add_task("bg" + std::to_string(i));
    g.add_edge(bgmodel, background[i], 15.0);
    g.add_edge(project[i], background[i], 80.0);
  }
  const TaskId mosaic = g.add_task("mosaic");
  for (TaskId b : background) g.add_edge(b, mosaic, 90.0);
  const TaskId preview = g.add_task("preview");
  g.add_edge(mosaic, preview, 30.0);
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("montage_pipeline: fault-tolerant scheduling of an image "
                "mosaicking workflow");
  cli.add_option("images", "8", "number of input images");
  cli.add_option("procs", "8", "number of processors");
  cli.add_option("epsilon", "2", "failures to tolerate");
  cli.add_option("seed", "1", "random seed for platform/costs/crashes");
  if (!cli.parse(argc, argv)) return 0;
  const auto images = static_cast<std::size_t>(cli.get_int("images"));
  const auto epsilon = static_cast<std::size_t>(cli.get_int("epsilon"));

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  PaperWorkloadParams params;
  params.proc_count = static_cast<std::size_t>(cli.get_int("procs"));
  params.granularity = 1.2;  // computation-heavy pipeline
  const auto workload =
      make_workload_for_graph(rng, make_montage(images), params);
  const TaskGraph& g = workload->graph();
  std::cout << "montage workflow: " << g.task_count() << " tasks, "
            << g.edge_count() << " edges on " << params.proc_count
            << " processors, tolerating " << epsilon << " crashes\n\n";

  const std::string eps_opt = ":eps=" + std::to_string(epsilon);
  const auto ftsa = make_scheduler("ftsa" + eps_opt)->run(workload->costs());
  const auto mc = make_scheduler("mc-ftsa" + eps_opt)->run(workload->costs());

  for (const ReplicatedSchedule* s : {&ftsa, &mc}) {
    std::cout << s->algorithm() << ": M*=" << s->lower_bound()
              << "  M=" << s->upper_bound()
              << "  messages=" << s->interproc_message_count() << '\n';
  }
  std::cout << "\nMC-FTSA saves "
            << ftsa.interproc_message_count() - mc.interproc_message_count()
            << " messages ("
            << comm_stats(ftsa).ftsa_bound << " worst-case pairs vs "
            << comm_stats(mc).mc_bound << " linear bound)\n\n";

  // Replay under random crash scenarios; both must always succeed.
  for (int trial = 0; trial < 3; ++trial) {
    const FailureTimeline crashes = random_timed_crashes(
        rng, params.proc_count, epsilon, ftsa.upper_bound());
    std::cout << "crash scenario" << " {";
    for (const ProcOutage& c : crashes.outages()) {
      std::cout << " P" << c.proc.value() << "@"
                << format_double(c.crash_time, 1);
    }
    std::cout << " }: FTSA latency "
              << format_double(simulate(ftsa, crashes).latency, 1)
              << " (<= M=" << format_double(ftsa.upper_bound(), 1)
              << "), MC-FTSA latency "
              << format_double(simulate(mc, crashes).latency, 1)
              << " (<= M=" << format_double(mc.upper_bound(), 1) << ")\n";
  }

  std::cout << "\nFTSA planned Gantt:\n" << schedule_gantt(ftsa);
  return 0;
}
