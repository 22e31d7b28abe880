// Ablation: platform size.  Figure 4 shows that on a small platform (5
// processors) the crash overhead grows sharply with the number of
// failures, while on 20 processors replication absorbs crashes almost for
// free.  This bench sweeps the processor count explicitly.
#include <iostream>

#include "ftsched/core/scheduler.hpp"
#include "ftsched/metrics/metrics.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/util/cli.hpp"
#include "ftsched/util/stats.hpp"
#include "ftsched/util/table.hpp"
#include "ftsched/workload/paper_workload.hpp"

using namespace ftsched;

int main() {
  const auto graphs = static_cast<std::size_t>(env_int("FTSCHED_GRAPHS", 30));
  const auto seed = static_cast<std::uint64_t>(env_int("FTSCHED_SEED", 42));
  const std::size_t epsilon = 2;

  std::cout << "=== Ablation: processor count (epsilon=2, " << graphs
            << " graphs; overhead % of FTSA with 2 crashes vs fault-free "
               "FTSA) ===\n";
  TextTable table({"procs", "FaultFree", "FTSA-lb", "FTSA-2crash",
                   "overhead-lb%", "overhead-crash%"});
  for (std::size_t procs : {4u, 5u, 8u, 12u, 20u, 32u}) {
    OnlineStats ff;
    OnlineStats lb;
    OnlineStats crash;
    OnlineStats oh_lb;
    OnlineStats oh_crash;
    Rng root(seed);
    for (std::size_t i = 0; i < graphs; ++i) {
      Rng rng = root.split();
      PaperWorkloadParams params;
      params.proc_count = procs;
      params.granularity = 1.0;
      const auto w = make_paper_workload(rng, params);
      const std::string s = std::to_string(rng());
      const auto base =
          make_scheduler("ftsa:eps=0,seed=" + s)->run(w->costs());
      const auto replicated =
          make_scheduler("ftsa:eps=" + std::to_string(epsilon) + ",seed=" + s)
              ->run(w->costs());
      FailureTimeline crashes;
      for (std::size_t v :
           rng.sample_without_replacement(procs, epsilon)) {
        crashes.add(ProcId{v}, 0.0);
      }
      const SimulationResult r = simulate(replicated, crashes);
      auto norm = [&w](double latency) {
        return normalized_latency(latency, w->costs());
      };
      ff.add(norm(base.lower_bound()));
      lb.add(norm(replicated.lower_bound()));
      crash.add(norm(r.latency));
      oh_lb.add(overhead_percent(replicated.lower_bound(), base.lower_bound()));
      oh_crash.add(overhead_percent(r.latency, base.lower_bound()));
    }
    table.add_numeric_row(std::to_string(procs),
                          {ff.mean(), lb.mean(), crash.mean(), oh_lb.mean(),
                           oh_crash.mean()});
  }
  table.print(std::cout);
  std::cout << "csv:\n" << table.csv();
  return 0;
}
