// Tests for the exhaustive Theorem-4.1 validator and the reliability
// estimators (§7 future-work feature).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <tuple>

#include "ftsched/core/ftbar.hpp"
#include "ftsched/core/ftsa.hpp"
#include "ftsched/core/mc_ftsa.hpp"
#include "ftsched/metrics/reliability.hpp"
#include "ftsched/sim/validator.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/workload/paper_workload.hpp"
#include "proptest.hpp"

namespace ftsched {
namespace {

std::unique_ptr<Workload> small_workload(std::uint64_t seed,
                                         std::size_t procs = 5,
                                         std::size_t tasks = 20) {
  Rng rng(seed);
  PaperWorkloadParams params;
  params.task_min = params.task_max = tasks;
  params.proc_count = procs;
  return make_paper_workload(rng, params);
}

// Exhaustive Theorem-4.1 check over every algorithm and small ε values.
enum class Algo { kFtsa, kMcGreedy, kMcMatching, kFtbar };

using ValParam = std::tuple<std::uint64_t, std::size_t, Algo>;

class TheoremValidation : public ::testing::TestWithParam<ValParam> {};

TEST_P(TheoremValidation, EveryCrashSubsetSurvivesWithinBound) {
  const auto [seed, epsilon, algo] = GetParam();
  const auto w = small_workload(seed);
  ReplicatedSchedule s = [&]() -> ReplicatedSchedule {
    switch (algo) {
      case Algo::kFtsa:
        return ftsa_schedule(w->costs(), FtsaOptions{epsilon, seed});
      case Algo::kMcGreedy:
        return mc_ftsa_schedule(
            w->costs(), McFtsaOptions{epsilon, seed, McSelector::kGreedy});
      case Algo::kMcMatching:
        return mc_ftsa_schedule(
            w->costs(),
            McFtsaOptions{epsilon, seed, McSelector::kBinarySearchMatching});
      case Algo::kFtbar: {
        FtbarOptions o;
        o.npf = epsilon;
        o.seed = seed;
        return ftbar_schedule(w->costs(), o);
      }
    }
    throw std::logic_error("unreachable");
  }();
  const ValidationReport report = validate_fault_tolerance(s);
  EXPECT_TRUE(report.valid) << report.failure_description;
  EXPECT_GT(report.scenarios_checked, 0u);
  EXPECT_LE(report.worst_latency, s.upper_bound() * (1 + 1e-6));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TheoremValidation,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(Algo::kFtsa, Algo::kMcGreedy,
                                         Algo::kMcMatching, Algo::kFtbar)));

// Theorem 4.1 as a property of every scheduler over random paper
// workloads, processor counts, granularities and tie-break seeds, at
// figure 1's ε = 1.  The FTBAR intra-processor shortcut once broke it for
// about 0.15% of FTBAR schedules, so the property needs thousands of cases
// to catch that class.
TEST(TheoremProperty, EveryScheduleSurvivesEveryEpsilonCrashSet) {
  proptest::check(
      "validate_fault_tolerance holds for FTSA, MC-FTSA and FTBAR",
      [](Rng& rng, std::uint64_t seed) {
        PaperWorkloadParams params;
        params.task_min = 20;
        params.task_max = 40;
        params.proc_count = static_cast<std::size_t>(rng.uniform_int(5, 8));
        params.granularity = 0.2 * static_cast<double>(rng.uniform_int(1, 10));
        const auto w = make_paper_workload(rng, params);
        const std::size_t eps = 1;
        FtbarOptions ftbar;
        ftbar.npf = eps;
        ftbar.seed = seed;
        const std::pair<const char*, ReplicatedSchedule> schedules[] = {
            {"FTSA", ftsa_schedule(w->costs(), FtsaOptions{eps, seed})},
            {"MC-FTSA",
             mc_ftsa_schedule(w->costs(), McFtsaOptions{eps, seed})},
            {"FTBAR", ftbar_schedule(w->costs(), ftbar)}};
        for (const auto& [name, s] : schedules) {
          const ValidationReport report = validate_fault_tolerance(s);
          EXPECT_TRUE(report.valid)
              << name << " eps=" << eps << ": " << report.failure_description;
        }
      },
      {.iterations = 3000});
}

TEST(Validator, CountsScenarios) {
  const auto w = small_workload(4);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{2, 0});
  const ValidationReport report = validate_fault_tolerance(s);
  // C(5,0) + C(5,1) + C(5,2) = 1 + 5 + 10.
  EXPECT_EQ(report.scenarios_checked, 16u);
}

TEST(Validator, DetectsBrokenReplication) {
  // Hand-build a schedule that puts both replicas of every task on the
  // same processor pair in a way that violates Prop. 4.1 for one task.
  const auto w = small_workload(5, /*procs=*/3, /*tasks=*/1);
  ReplicatedSchedule s(w->costs(), 1, "broken");
  const TaskId t{0u};
  const double e0 = w->costs().exec(t, ProcId{0u});
  // Both replicas on P0 (violates space exclusion).
  s.place_task(t, {Replica{ProcId{0u}, 0, e0, 0, e0},
                   Replica{ProcId{0u}, e0, 2 * e0, e0, 2 * e0}});
  const ValidationReport report = validate_fault_tolerance(s);
  EXPECT_FALSE(report.valid);
  EXPECT_FALSE(report.failure_description.empty());
}

// ---------------------------------------------------------------- reliability

TEST(Reliability, ZeroFailureProbabilityIsCertain) {
  const auto w = small_workload(6);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  const std::vector<double> p(5, 0.0);
  EXPECT_DOUBLE_EQ(exact_reliability(s, p), 1.0);
  EXPECT_DOUBLE_EQ(theorem_reliability_bound(5, 1, p), 1.0);
}

TEST(Reliability, CertainFailureIsFatal) {
  const auto w = small_workload(7);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  const std::vector<double> p(5, 1.0);  // all five processors die
  EXPECT_DOUBLE_EQ(exact_reliability(s, p), 0.0);
  EXPECT_DOUBLE_EQ(theorem_reliability_bound(5, 1, p), 0.0);
}

TEST(Reliability, TheoremBoundIsALowerBound) {
  const auto w = small_workload(8);
  for (std::size_t epsilon : {0u, 1u, 2u}) {
    const auto s = ftsa_schedule(w->costs(), FtsaOptions{epsilon, 0});
    const std::vector<double> p(5, 0.15);
    const double exact = exact_reliability(s, p);
    const double bound = theorem_reliability_bound(5, epsilon, p);
    EXPECT_GE(exact, bound - 1e-12);
    EXPECT_GE(exact, 0.0);
    EXPECT_LE(exact, 1.0);
  }
}

TEST(Reliability, ReplicationImprovesReliability) {
  const auto w = small_workload(9);
  const std::vector<double> p(5, 0.2);
  const double r0 =
      exact_reliability(ftsa_schedule(w->costs(), FtsaOptions{0, 0}), p);
  const double r2 =
      exact_reliability(ftsa_schedule(w->costs(), FtsaOptions{2, 0}), p);
  EXPECT_GT(r2, r0);
}

TEST(Reliability, MonteCarloTracksExact) {
  const auto w = small_workload(10);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  const std::vector<double> p(5, 0.25);
  const double exact = exact_reliability(s, p);
  Rng rng(123);
  const ReliabilityEstimate estimate =
      monte_carlo_reliability(s, p, rng, 4000);
  EXPECT_NEAR(estimate.reliability, exact, 0.03);
  EXPECT_EQ(estimate.samples, 4000u);
  EXPECT_EQ(estimate.failures,
            4000u - static_cast<std::size_t>(
                        std::round(estimate.reliability * 4000.0)));
}

TEST(Reliability, PoissonBinomialBound) {
  // Heterogeneous probabilities, epsilon = 1, m = 3:
  // P[#fail <= 1] = prod(1-p) + sum_i p_i prod_{j != i}(1-p_j).
  const std::vector<double> p{0.1, 0.2, 0.3};
  const double none = 0.9 * 0.8 * 0.7;
  const double one = 0.1 * 0.8 * 0.7 + 0.9 * 0.2 * 0.7 + 0.9 * 0.8 * 0.3;
  EXPECT_NEAR(theorem_reliability_bound(3, 1, p), none + one, 1e-12);
}

TEST(Reliability, InputValidation) {
  const auto w = small_workload(11);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  EXPECT_THROW((void)exact_reliability(s, {0.1}), InvalidArgument);
  std::vector<double> bad(5, 0.1);
  bad[0] = 1.5;
  EXPECT_THROW((void)exact_reliability(s, bad), InvalidArgument);
  Rng rng(1);
  EXPECT_THROW((void)monte_carlo_reliability(s, std::vector<double>(5, 0.1),
                                             rng, 0),
               InvalidArgument);
}

}  // namespace
}  // namespace ftsched
