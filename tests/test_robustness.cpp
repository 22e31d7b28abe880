// Tests for the kill-set robustness analyzer, cross-checked against the
// exhaustive simulation validator.
#include <gtest/gtest.h>

#include <tuple>

#include "ftsched/core/ftbar.hpp"
#include "ftsched/core/ftsa.hpp"
#include "ftsched/core/mc_ftsa.hpp"
#include "ftsched/core/robustness.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/sim/validator.hpp"
#include "ftsched/workload/paper_workload.hpp"

namespace ftsched {
namespace {

std::unique_ptr<Workload> small_workload(std::uint64_t seed,
                                         std::size_t procs = 5,
                                         std::size_t tasks = 25) {
  Rng rng(seed);
  PaperWorkloadParams params;
  params.task_min = params.task_max = tasks;
  params.proc_count = procs;
  return make_paper_workload(rng, params);
}

TEST(Robustness, FtsaIsCertified) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto w = small_workload(seed);
    for (std::size_t epsilon : {1u, 2u}) {
      const auto s = ftsa_schedule(w->costs(), FtsaOptions{epsilon, seed});
      const RobustnessReport report = analyze_robustness(s);
      EXPECT_EQ(report.verdict, RobustnessVerdict::kCertifiedRobust)
          << report.summary();
      EXPECT_TRUE(report.fatal_processors.empty());
    }
  }
}

TEST(Robustness, EnforcedMcIsCertified) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto w = small_workload(seed);
    for (const McSelector sel :
         {McSelector::kGreedy, McSelector::kBinarySearchMatching}) {
      const auto s =
          mc_ftsa_schedule(w->costs(), McFtsaOptions{2, seed, sel});
      const RobustnessReport report = analyze_robustness(s);
      EXPECT_EQ(report.verdict, RobustnessVerdict::kCertifiedRobust)
          << report.summary();
    }
  }
}

TEST(Robustness, FtbarIsCertified) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto w = small_workload(seed);
    FtbarOptions options;
    options.npf = 2;
    options.seed = seed;
    const auto s = ftbar_schedule(w->costs(), options);
    const RobustnessReport report = analyze_robustness(s);
    EXPECT_EQ(report.verdict, RobustnessVerdict::kCertifiedRobust)
        << report.summary();
  }
}

TEST(Robustness, FatalWitnessesAreRealCrashes) {
  // Paper-mode MC-FTSA schedules: every reported fatal processor, when
  // crashed alone in the simulator, must actually break the run — and
  // conversely a schedule with no fatal processor must survive every
  // single crash.
  std::size_t fatal_found = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto w = small_workload(seed);
    McFtsaOptions options;
    options.epsilon = 1;
    options.seed = seed;
    options.enforce_fault_tolerance = false;
    const auto s = mc_ftsa_schedule(w->costs(), options);
    const RobustnessReport report = analyze_robustness(s);
    if (report.verdict == RobustnessVerdict::kSingleCrashFatal) {
      ++fatal_found;
      ASSERT_FALSE(report.fatal_processors.empty());
      for (ProcId p : report.fatal_processors) {
        FailureTimeline scenario;
        scenario.add(p, 0.0);
        EXPECT_FALSE(simulate(s, scenario).success)
            << "analysis claims P" << p.value() << " is fatal";
      }
    } else {
      // Exact single-crash analysis: no fatal processor => every single
      // crash survivable.
      for (std::size_t p = 0; p < 5; ++p) {
        FailureTimeline scenario;
        scenario.add(ProcId{p}, 0.0);
        EXPECT_TRUE(simulate(s, scenario).success);
      }
    }
  }
  EXPECT_GE(fatal_found, 1u);  // the paper gap shows up in these seeds
}

TEST(Robustness, AgreesWithExhaustiveValidator) {
  // Certified => exhaustive validation passes; single-crash-fatal =>
  // exhaustive validation fails. (Inconclusive can go either way.)
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto w = small_workload(seed, /*procs=*/5, /*tasks=*/15);
    for (const bool enforce : {false, true}) {
      McFtsaOptions options;
      options.epsilon = 2;
      options.seed = seed;
      options.enforce_fault_tolerance = enforce;
      const auto s = mc_ftsa_schedule(w->costs(), options);
      const RobustnessReport analysis = analyze_robustness(s);
      const ValidationReport exhaustive = validate_fault_tolerance(s);
      if (analysis.verdict == RobustnessVerdict::kCertifiedRobust) {
        EXPECT_TRUE(exhaustive.valid) << exhaustive.failure_description;
      }
      if (analysis.verdict == RobustnessVerdict::kSingleCrashFatal) {
        EXPECT_FALSE(exhaustive.valid);
      }
    }
  }
}

TEST(Robustness, EpsilonZeroIsTriviallyCertified) {
  const auto w = small_workload(7);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{0, 0});
  // Against its own epsilon (0), the schedule is vacuously robust.
  EXPECT_EQ(analyze_robustness(s).verdict,
            RobustnessVerdict::kCertifiedRobust);
}

TEST(Robustness, SummaryIsHumanReadable) {
  const auto w = small_workload(8);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  const std::string text = analyze_robustness(s).summary();
  EXPECT_NE(text.find("certified"), std::string::npos);
}

}  // namespace
}  // namespace ftsched
