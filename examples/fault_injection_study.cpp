// Domain scenario: probabilistic fault-injection study (the paper's §7
// future work on failure probabilities).
//
// Each processor fails independently with probability p.  We compare, for
// FTSA schedules at several ε: the analytic Theorem-4.1 reliability bound,
// the exact reliability (exhaustive subset enumeration + simulation), a
// Monte-Carlo estimate, and the latency distribution over surviving runs.
//
//   ./fault_injection_study [--procs 8] [--tasks 40] [--pfail 0.1]
//                           [--samples 2000] [--seed 5]
//                           [--workload <WorkloadRegistry spec>]
#include <iostream>

#include "ftsched/core/scheduler.hpp"
#include "ftsched/metrics/reliability.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/util/cli.hpp"
#include "ftsched/util/stats.hpp"
#include "ftsched/util/table.hpp"
#include "ftsched/workload/workload_registry.hpp"

using namespace ftsched;

int main(int argc, char** argv) {
  CliParser cli("fault_injection_study: schedule reliability under "
                "probabilistic fail-stop failures");
  cli.add_option("procs", "8", "number of processors");
  cli.add_option("tasks", "40", "number of tasks");
  cli.add_option("pfail", "0.1", "per-processor failure probability");
  cli.add_option("samples", "2000", "Monte-Carlo samples");
  cli.add_option("seed", "5", "random seed");
  cli.add_option("workload", "",
                 "WorkloadRegistry spec (empty = paper generator with "
                 "--tasks tasks; see ftsched_cli list-workloads)");
  if (!cli.parse(argc, argv)) return 0;

  const auto procs = static_cast<std::size_t>(cli.get_int("procs"));
  const double pfail = cli.get_double("pfail");
  const auto samples = static_cast<std::size_t>(cli.get_int("samples"));

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const std::string tasks = cli.get("tasks");
  const std::string spec = cli.get("workload").empty()
                               ? "paper:tmin=" + tasks + ",tmax=" + tasks
                               : cli.get("workload");
  const WorkloadFamilyPtr family = make_workload_family(spec);
  const auto w = family->generate(rng, SweepPoint{1.0, procs});
  const std::vector<double> fail_prob(procs, pfail);

  std::cout << family->describe() << '\n';
  std::cout << "per-processor failure probability p = " << pfail << ", "
            << procs << " processors, " << w->graph().task_count()
            << " tasks\n\n";
  TextTable table({"epsilon", "thm-4.1 bound", "exact", "monte-carlo",
                   "mean latency | ok", "M* / M"});
  for (std::size_t eps : {0u, 1u, 2u, 3u}) {
    const auto s =
        make_scheduler("ftsa:eps=" + std::to_string(eps))->run(w->costs());
    const double bound = theorem_reliability_bound(procs, eps, fail_prob);
    const double exact = exact_reliability(s, fail_prob);
    Rng mc_rng = rng.split();
    const ReliabilityEstimate mc =
        monte_carlo_reliability(s, fail_prob, mc_rng, samples);
    table.add_row({std::to_string(eps), format_double(bound, 4),
                   format_double(exact, 4), format_double(mc.reliability, 4),
                   format_double(mc.mean_latency, 1),
                   format_double(s.lower_bound(), 1) + " / " +
                       format_double(s.upper_bound(), 1)});
  }
  table.print(std::cout);
  std::cout <<
      "\n(The theorem bound counts only <=epsilon simultaneous failures;\n"
      " the exact value is higher because many larger failure sets still\n"
      " happen to leave a working replica chain.)\n";

  // Latency distribution across surviving Monte-Carlo runs for eps = 2.
  const auto s2 = make_scheduler("ftsa:eps=2")->run(w->costs());
  std::vector<double> latencies;
  Rng mc_rng = rng.split();
  for (std::size_t i = 0; i < samples; ++i) {
    FailureTimeline crashes;
    for (std::size_t p = 0; p < procs; ++p) {
      if (mc_rng.bernoulli(pfail)) crashes.add(ProcId{p}, 0.0);
    }
    const SimulationResult r = simulate(s2, crashes);
    if (r.success) latencies.push_back(r.latency);
  }
  const Summary summary = summarize(std::move(latencies));
  std::cout << "\nlatency distribution (epsilon=2, surviving runs):\n"
            << "  n=" << summary.count << "  mean=" << summary.mean
            << "  p25=" << summary.p25 << "  median=" << summary.median
            << "  p75=" << summary.p75 << "  max=" << summary.max
            << "\n  guaranteed M=" << s2.upper_bound() << '\n';
  return 0;
}
