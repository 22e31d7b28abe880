// End-to-end integration tests: the full paper pipeline at reduced scale,
// cross-module invariants, and the qualitative claims of §6.
#include <gtest/gtest.h>

#include <sstream>

#include "ftsched/core/bicriteria.hpp"
#include "ftsched/core/ftbar.hpp"
#include "ftsched/core/ftsa.hpp"
#include "ftsched/core/heft.hpp"
#include "ftsched/core/mc_ftsa.hpp"
#include "ftsched/dag/serialize.hpp"
#include "ftsched/experiments/runner.hpp"
#include "ftsched/metrics/metrics.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/validator.hpp"
#include "ftsched/workload/classic.hpp"
#include "ftsched/workload/paper_workload.hpp"

namespace ftsched {
namespace {

TEST(Integration, FullPipelineOnSmallPlatform) {
  // Generate → schedule with all four algorithms → exhaustively validate
  // fault tolerance → compare communication volumes.
  Rng rng(2024);
  PaperWorkloadParams params;
  params.task_min = params.task_max = 25;
  params.proc_count = 5;
  params.granularity = 1.0;
  const auto w = make_paper_workload(rng, params);
  const std::size_t epsilon = 2;

  const auto ftsa = ftsa_schedule(w->costs(), FtsaOptions{epsilon, 1});
  const auto mc = mc_ftsa_schedule(w->costs(), McFtsaOptions{epsilon, 1});
  FtbarOptions fo;
  fo.npf = epsilon;
  const auto ftbar = ftbar_schedule(w->costs(), fo);

  for (const ReplicatedSchedule* s : {&ftsa, &mc, &ftbar}) {
    s->validate();
    const ValidationReport report = validate_fault_tolerance(*s);
    EXPECT_TRUE(report.valid)
        << s->algorithm() << ": " << report.failure_description;
  }
  // §4.2 headline: MC-FTSA uses at most e(ε+1) channels, FTSA up to
  // e(ε+1)²; in a 5-processor platform most channels cross processors.
  EXPECT_LT(mc.interproc_message_count(), ftsa.interproc_message_count());
}

TEST(Integration, SerializationRoundTripPreservesSchedules) {
  Rng rng(7);
  PaperWorkloadParams params;
  params.task_min = params.task_max = 20;
  params.proc_count = 4;
  const auto w = make_paper_workload(rng, params);
  // Re-create the same cost model on a graph reloaded from text.
  const TaskGraph reloaded = graph_from_string(graph_to_string(w->graph()));
  std::vector<std::vector<double>> exec(reloaded.task_count());
  for (TaskId t : reloaded.tasks()) {
    for (ProcId p : w->platform().procs()) {
      exec[t.index()].push_back(w->costs().exec(t, p));
    }
  }
  const CostModel costs2(reloaded, w->platform(), exec);
  const auto a = ftsa_schedule(w->costs(), FtsaOptions{1, 5});
  const auto b = ftsa_schedule(costs2, FtsaOptions{1, 5});
  EXPECT_DOUBLE_EQ(a.lower_bound(), b.lower_bound());
  EXPECT_DOUBLE_EQ(a.upper_bound(), b.upper_bound());
}

TEST(Integration, LatencyGrowsWithGranularityTrend) {
  // The paper's figures all show normalized latency rising with
  // granularity (computation dominates more and more). Check the trend on
  // the sweep endpoints with a small sample.
  FigureConfig config = figure_config(1);
  config.granularities = {0.2, 2.0};
  config.graphs_per_point = 5;
  config.proc_count = 8;
  config.workload.proc_count = 8;
  config.seed = 11;
  const SweepResult sweep = run_sweep(config);
  const auto& ff = sweep.series.at("FaultFree-FTSA");
  EXPECT_GT(ff[1].mean(), ff[0].mean());
}

TEST(Integration, FtsaBeatsFtbarOnAverage) {
  // The paper's central experimental claim (§6): FTSA outperforms FTBAR in
  // terms of achieved lower bound. Checked in aggregate over instances.
  double ftsa_sum = 0.0;
  double ftbar_sum = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    PaperWorkloadParams params;
    params.task_min = params.task_max = 40;
    params.proc_count = 8;
    const auto w = make_paper_workload(rng, params);
    ftsa_sum += ftsa_schedule(w->costs(), FtsaOptions{1, seed}).lower_bound();
    FtbarOptions fo;
    fo.npf = 1;
    fo.seed = seed;
    ftbar_sum += ftbar_schedule(w->costs(), fo).lower_bound();
  }
  EXPECT_LT(ftsa_sum, ftbar_sum);
}

TEST(Integration, CrashLatencyStaysBelowUpperBoundAcrossWorkloads) {
  // Prop. 4.2 across structurally different graphs and both MC selectors.
  Rng rng(5);
  PaperWorkloadParams params;
  params.proc_count = 5;
  std::vector<TaskGraph> graphs;
  graphs.push_back(make_fft(8));
  graphs.push_back(make_gaussian_elimination(5));
  graphs.push_back(make_wavefront(4, 4));
  graphs.push_back(make_fork_join(10));
  Rng sp_rng(9);
  graphs.push_back(make_series_parallel(sp_rng, 30));
  for (auto& g : graphs) {
    const auto w = make_workload_for_graph(rng, std::move(g), params);
    for (const McSelector sel :
         {McSelector::kGreedy, McSelector::kBinarySearchMatching}) {
      const auto s =
          mc_ftsa_schedule(w->costs(), McFtsaOptions{2, 0, sel});
      Rng crash_rng(17);
      for (int trial = 0; trial < 5; ++trial) {
        const FailureTimeline scenario = random_crashes(crash_rng, 5, 2);
        const SimulationResult r = simulate(s, scenario);
        ASSERT_TRUE(r.success) << w->graph().name();
        EXPECT_LE(r.latency, s.upper_bound() * (1 + 1e-9))
            << w->graph().name();
      }
    }
  }
}

TEST(Integration, BicriteriaConsistentWithDirectScheduling) {
  // If max_supported_failures says ε is achievable at latency L, then the
  // direct FTSA run at ε meets L, and the deadline-checked variant at a
  // generous L succeeds too.
  Rng rng(3);
  PaperWorkloadParams params;
  params.task_min = params.task_max = 30;
  params.proc_count = 6;
  const auto w = make_paper_workload(rng, params);
  const auto s2 = ftsa_schedule(w->costs(), FtsaOptions{2, 0});
  const double target = s2.upper_bound() * 1.05;
  const auto result = max_supported_failures(w->costs(), target);
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(result->epsilon, 2u);
  FtsaOptions check;
  check.epsilon = result->epsilon;
  EXPECT_LE(ftsa_schedule(w->costs(), check).upper_bound(),
            target * (1 + 1e-12));
}

TEST(Integration, HeftCompetitiveWithFaultFreeFtsa) {
  // HEFT (insertion-based) should be at least as good as FTSA ε=0 (which
  // never back-fills) on average — an ablation of the ready-time policy.
  double heft_sum = 0.0;
  double ftsa_sum = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    PaperWorkloadParams params;
    params.task_min = params.task_max = 40;
    params.proc_count = 6;
    const auto w = make_paper_workload(rng, params);
    heft_sum += heft_schedule(w->costs()).lower_bound();
    ftsa_sum += ftsa_schedule(w->costs(), FtsaOptions{0, seed}).lower_bound();
  }
  EXPECT_LE(heft_sum, ftsa_sum * 1.05);
}

TEST(Integration, MessageCountScalesLinearlyForMc) {
  // Check the e(ε+1) vs e(ε+1)² scaling claim numerically for ε = 1..3.
  Rng rng(13);
  PaperWorkloadParams params;
  params.task_min = params.task_max = 40;
  params.proc_count = 10;
  const auto w = make_paper_workload(rng, params);
  const std::size_t e = w->graph().edge_count();
  for (std::size_t epsilon = 1; epsilon <= 3; ++epsilon) {
    McFtsaOptions mo;
    mo.epsilon = epsilon;
    mo.enforce_fault_tolerance = false;  // paper-mode scaling claim
    const auto mc = mc_ftsa_schedule(w->costs(), mo);
    const auto ftsa = ftsa_schedule(w->costs(), FtsaOptions{epsilon, 0});
    EXPECT_EQ(mc.channel_count(), e * (epsilon + 1));
    EXPECT_LE(ftsa.channel_count(), e * (epsilon + 1) * (epsilon + 1));
    EXPECT_GT(ftsa.channel_count(), e * (epsilon + 1));
  }
}

}  // namespace
}  // namespace ftsched
