// Acceptance bench for the schedule-once/simulate-many sweep engine: a
// 3-scenario x 3-failure figure-1 grid is evaluated twice — grouped (one
// schedule phase per (workload, granularity, rep), all nine cells simulated
// off it) and ungrouped (the legacy path, every cell reruns all five
// scheduler passes) — results are checked bit-identical, and wall times plus
// the speedup are reported both as a table and as machine-readable
// BENCH_sweep.json, so the performance trajectory has data points CI can
// archive and diff across commits.
//
// A second row runs a 3-policy grid (none / requeue-heft / reactive-ftsa
// under a bernoulli and a repair law) the same two ways: its wall times,
// its online-run and move counters and its own grouped==ungrouped check
// land in the record under "policy_*" keys.
//
// Exit code 2 if either grouped result diverges from its ungrouped one
// (this doubles as a determinism guard), 0 otherwise; the speedup itself is
// reported, not asserted, so a loaded CI machine cannot turn noise into a
// red build.
//
// Environment overrides: FTSCHED_GRAPHS (default 4 graphs per point, small
// so CI stays fast), FTSCHED_SEED, FTSCHED_THREADS (default 0 = hardware).
// argv[1] overrides the JSON output path (default BENCH_sweep.json).
#include <fstream>
#include <iostream>
#include <string>

#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/util/cli.hpp"
#include "ftsched/util/spec.hpp"
#include "ftsched/util/table.hpp"
#include "ftsched/util/timer.hpp"

using namespace ftsched;

namespace {

double timed_run(const SweepPlan& plan, bool group, SweepResult& out,
                 RunPlanStats* stats = nullptr) {
  OnlineStatsSink sink(plan);
  RunPlanOptions options;
  options.group = group;
  options.stats = stats;
  Stopwatch sw;
  run_plan(plan, sink, options);
  const double seconds = sw.seconds();
  out = sink.take();
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  FigureConfig config = figure_config(1);
  config.graphs_per_point =
      static_cast<std::size_t>(env_int("FTSCHED_GRAPHS", 4));
  config.threads = static_cast<std::size_t>(env_int("FTSCHED_THREADS", 0));
  config.scenarios = {"t0", "frac:f=0.5", "uniform:hi=1"};
  config.failure_models = {"eps", "fixed:k=1", "bernoulli:p=0.3"};
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_sweep.json";

  const SweepPlan plan(config);
  const std::size_t cells = plan.workloads().size() * plan.scenarios().size() *
                            plan.failures().size();
  std::cout << "=== schedule-once/simulate-many (figure-1 grid, " << cells
            << " cells = " << plan.workloads().size() << "w x "
            << plan.scenarios().size() << "s x " << plan.failures().size()
            << "f, " << plan.granularities().size() << " granularities, "
            << config.graphs_per_point << " graphs/point, "
            << plan.size() << " instances) ===\n";

  SweepResult ungrouped;
  const double ungrouped_seconds = timed_run(plan, /*group=*/false, ungrouped);
  SweepResult grouped;
  RunPlanStats grouped_stats;
  const double grouped_seconds =
      timed_run(plan, /*group=*/true, grouped, &grouped_stats);
  const bool identical = sweep_results_identical(grouped, ungrouped);
  const double speedup =
      grouped_seconds > 0.0 ? ungrouped_seconds / grouped_seconds : 0.0;
  const auto cells_per_sec = [&](double seconds) {
    return seconds > 0.0 ? static_cast<double>(plan.size()) / seconds : 0.0;
  };

  TextTable table({"path", "schedule-phases", "wall-s", "cells/s", "speedup"});
  table.add_row({"ungrouped (legacy)",
                 std::to_string(plan.size() * 5),
                 format_double(ungrouped_seconds, 3),
                 format_double(cells_per_sec(ungrouped_seconds), 1), "1.00"});
  table.add_row({"grouped",
                 std::to_string((plan.size() / cells) * 5),
                 format_double(grouped_seconds, 3),
                 format_double(cells_per_sec(grouped_seconds), 1),
                 format_double(speedup, 2)});
  table.print(std::cout);
  std::cout << "bit-identical: " << (identical ? "yes" : "NO") << "\n";
  std::cout << "grouped dedupe: " << grouped_stats.simulations_run
            << " simulations run, " << grouped_stats.dedupe_hits
            << " served from the per-group draw cache\n";

  // The policy row: the online path end to end.
  FigureConfig policy_config = config;
  policy_config.scenarios = {"t0", "frac:f=0.5"};
  policy_config.failure_models = {"bernoulli:p=0.3", "repair:p=0.3,mttr=0.5"};
  policy_config.policies = {"none", "requeue-heft", "reactive-ftsa"};
  const SweepPlan policy_plan(policy_config);
  SweepResult policy_ungrouped;
  const double policy_ungrouped_seconds =
      timed_run(policy_plan, /*group=*/false, policy_ungrouped);
  SweepResult policy_grouped;
  RunPlanStats policy_stats;
  const double policy_grouped_seconds =
      timed_run(policy_plan, /*group=*/true, policy_grouped, &policy_stats);
  const bool policy_identical =
      sweep_results_identical(policy_grouped, policy_ungrouped);
  std::cout << "\n=== policy grid (" << policy_plan.scenarios().size()
            << "s x " << policy_plan.failures().size() << "f x "
            << policy_plan.policies().size() << " policies, "
            << policy_plan.size() << " instances) ===\n";
  TextTable policy_table({"path", "wall-s", "instances/s"});
  const auto policy_rate = [&](double seconds) {
    return seconds > 0.0 ? static_cast<double>(policy_plan.size()) / seconds
                         : 0.0;
  };
  policy_table.add_row({"ungrouped (legacy)",
                        format_double(policy_ungrouped_seconds, 3),
                        format_double(policy_rate(policy_ungrouped_seconds), 1)});
  policy_table.add_row({"grouped", format_double(policy_grouped_seconds, 3),
                        format_double(policy_rate(policy_grouped_seconds), 1)});
  policy_table.print(std::cout);
  std::cout << "bit-identical: " << (policy_identical ? "yes" : "NO") << "\n";
  std::cout << "grouped: " << policy_stats.online_runs << " online runs ("
            << policy_stats.policy_moves << " moves), "
            << policy_stats.simulations_run << " static simulations, "
            << policy_stats.dedupe_hits << " cache hits\n";

  // Machine-readable trajectory record (locale-proof number rendering).
  std::ofstream json(json_path);
  if (!json.good()) {
    std::cout << "ERROR: cannot write " << json_path << "\n";
    return 1;
  }
  json << "{\"bench\":\"sweep_cells\",\"figure\":1"
       << ",\"workloads\":" << plan.workloads().size()
       << ",\"scenarios\":" << plan.scenarios().size()
       << ",\"failures\":" << plan.failures().size()
       << ",\"granularities\":" << plan.granularities().size()
       << ",\"graphs_per_point\":" << config.graphs_per_point
       << ",\"instances\":" << plan.size()
       << ",\"threads\":" << config.threads
       << ",\"seed\":" << config.seed
       << ",\"ungrouped_seconds\":"
       << spec_detail::render_double(ungrouped_seconds)
       << ",\"grouped_seconds\":"
       << spec_detail::render_double(grouped_seconds)
       << ",\"speedup\":" << spec_detail::render_double(speedup)
       << ",\"ungrouped_cells_per_sec\":"
       << spec_detail::render_double(cells_per_sec(ungrouped_seconds))
       << ",\"grouped_cells_per_sec\":"
       << spec_detail::render_double(cells_per_sec(grouped_seconds))
       << ",\"simulations_run\":" << grouped_stats.simulations_run
       << ",\"dedupe_hits\":" << grouped_stats.dedupe_hits
       << ",\"identical\":" << (identical ? "true" : "false")
       << ",\"policy_policies\":" << policy_plan.policies().size()
       << ",\"policy_failures\":" << policy_plan.failures().size()
       << ",\"policy_scenarios\":" << policy_plan.scenarios().size()
       << ",\"policy_instances\":" << policy_plan.size()
       << ",\"policy_ungrouped_seconds\":"
       << spec_detail::render_double(policy_ungrouped_seconds)
       << ",\"policy_grouped_seconds\":"
       << spec_detail::render_double(policy_grouped_seconds)
       << ",\"policy_online_runs\":" << policy_stats.online_runs
       << ",\"policy_moves\":" << policy_stats.policy_moves
       << ",\"policy_simulations_run\":" << policy_stats.simulations_run
       << ",\"policy_dedupe_hits\":" << policy_stats.dedupe_hits
       << ",\"policy_identical\":" << (policy_identical ? "true" : "false")
       << "}\n";
  json.close();
  std::cout << "wrote " << json_path << "\n";

  if (!identical || !policy_identical) {
    std::cout << "ERROR: grouped sweep diverged from the ungrouped path\n";
    return 2;
  }
  return 0;
}
