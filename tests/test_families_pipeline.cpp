// Cross-family pipeline sweep: every workload family × every scheduler,
// through scheduling, structural validation, robustness analysis and
// failure-free + crashed execution.  This is the widest net in the suite:
// any structural assumption that only holds for layered random DAGs gets
// caught here.
#include <gtest/gtest.h>

#include <tuple>

#include "ftsched/core/cpop.hpp"
#include "ftsched/core/ftbar.hpp"
#include "ftsched/core/ftsa.hpp"
#include "ftsched/core/heft.hpp"
#include "ftsched/core/mc_ftsa.hpp"
#include "ftsched/core/robustness.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/workload/classic.hpp"
#include "ftsched/workload/paper_workload.hpp"
#include "ftsched/workload/random_dag.hpp"

namespace ftsched {
namespace {

enum class Family {
  kLayered,
  kGnp,
  kChain,
  kForkJoin,
  kInTree,
  kOutTree,
  kFft,
  kGauss,
  kWavefront,
  kSeriesParallel,
  kCholesky,
  kLu,
};

TaskGraph build(Family family, Rng& rng) {
  switch (family) {
    case Family::kLayered: {
      LayeredDagParams p;
      p.task_count = 30;
      return make_layered_dag(rng, p);
    }
    case Family::kGnp: {
      GnpDagParams p;
      p.task_count = 25;
      p.edge_probability = 0.12;
      return make_gnp_dag(rng, p);
    }
    case Family::kChain:
      return make_chain(12);
    case Family::kForkJoin:
      return make_fork_join(10);
    case Family::kInTree:
      return make_in_tree(16);
    case Family::kOutTree:
      return make_out_tree(16);
    case Family::kFft:
      return make_fft(8);
    case Family::kGauss:
      return make_gaussian_elimination(5);
    case Family::kWavefront:
      return make_wavefront(4, 5);
    case Family::kSeriesParallel:
      return make_series_parallel(rng, 30);
    case Family::kCholesky:
      return make_cholesky(4);
    case Family::kLu:
      return make_lu(3);
  }
  throw std::logic_error("unreachable");
}

enum class Algo { kFtsa, kMc, kFtbar, kHeft, kCpop };

class FamilyPipeline
    : public ::testing::TestWithParam<std::tuple<Family, Algo>> {};

TEST_P(FamilyPipeline, ScheduleValidateAnalyzeExecute) {
  const auto [family, algo] = GetParam();
  Rng rng(99);
  PaperWorkloadParams params;
  params.proc_count = 5;
  params.granularity = 1.0;
  const auto w = make_workload_for_graph(rng, build(family, rng), params);
  const std::size_t epsilon =
      (algo == Algo::kHeft || algo == Algo::kCpop) ? 0 : 2;

  ReplicatedSchedule s = [&, algo = algo]() -> ReplicatedSchedule {
    switch (algo) {
      case Algo::kFtsa:
        return ftsa_schedule(w->costs(), FtsaOptions{epsilon, 7});
      case Algo::kMc:
        return mc_ftsa_schedule(w->costs(), McFtsaOptions{epsilon, 7});
      case Algo::kFtbar: {
        FtbarOptions o;
        o.npf = epsilon;
        o.seed = 7;
        return ftbar_schedule(w->costs(), o);
      }
      case Algo::kHeft:
        return heft_schedule(w->costs());
      case Algo::kCpop:
        return cpop_schedule(w->costs());
    }
    throw std::logic_error("unreachable");
  }();

  // Structural validity.
  s.validate();
  EXPECT_LE(s.lower_bound(), s.upper_bound() * (1 + 1e-12));

  // Kill-set analysis: every replicated algorithm must certify.
  if (epsilon > 0) {
    const RobustnessReport report = analyze_robustness(s);
    EXPECT_EQ(report.verdict, RobustnessVerdict::kCertifiedRobust)
        << "family " << static_cast<int>(family) << ": " << report.summary();
  }

  // Failure-free execution matches or beats the plan.
  const SimulationResult ok = simulate(s);
  ASSERT_TRUE(ok.success);
  EXPECT_LE(ok.latency, s.lower_bound() * (1 + 1e-9));

  // Crashed execution stays within the guaranteed bound.
  if (epsilon > 0) {
    Rng crash_rng(13);
    for (int trial = 0; trial < 3; ++trial) {
      const FailureTimeline scenario = random_crashes(crash_rng, 5, epsilon);
      const SimulationResult r = simulate(s, scenario);
      ASSERT_TRUE(r.success);
      EXPECT_LE(r.latency, s.upper_bound() * (1 + 1e-9));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FamilyPipeline,
    ::testing::Combine(
        ::testing::Values(Family::kLayered, Family::kGnp, Family::kChain,
                          Family::kForkJoin, Family::kInTree,
                          Family::kOutTree, Family::kFft, Family::kGauss,
                          Family::kWavefront, Family::kSeriesParallel,
                          Family::kCholesky, Family::kLu),
        ::testing::Values(Algo::kFtsa, Algo::kMc, Algo::kFtbar, Algo::kHeft,
                          Algo::kCpop)));

}  // namespace
}  // namespace ftsched
