// Tests for the discrete-event execution simulator: failure-free fidelity,
// crash semantics, cancellation, contention models, and Prop. 4.2.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <tuple>

#include "ftsched/core/ftbar.hpp"
#include "ftsched/core/ftsa.hpp"
#include "ftsched/core/mc_ftsa.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/sim/trace.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/util/stats.hpp"
#include "ftsched/workload/classic.hpp"
#include "ftsched/workload/paper_workload.hpp"
#include "golden_test.hpp"

namespace ftsched {
namespace {

std::unique_ptr<Workload> small_workload(std::uint64_t seed,
                                         std::size_t procs = 6,
                                         std::size_t tasks = 30) {
  Rng rng(seed);
  PaperWorkloadParams params;
  params.task_min = params.task_max = tasks;
  params.proc_count = procs;
  return make_paper_workload(rng, params);
}

TEST(Sim, FailureFreeChain) {
  TaskGraph g = make_chain(3, ClassicParams{10.0});
  const Platform p(2, 1.0);
  std::vector<std::vector<double>> exec(3, std::vector<double>(2, 5.0));
  const CostModel costs(g, p, exec);
  const auto s = ftsa_schedule(costs, FtsaOptions{1, 0});
  const SimulationResult r = simulate(s);
  ASSERT_TRUE(r.success);
  EXPECT_NEAR(r.latency, s.lower_bound(), 1e-9);
  EXPECT_EQ(r.dead_replicas, 0u);
  EXPECT_EQ(r.cancelled_replicas, 0u);
  EXPECT_EQ(r.completed_replicas, 6u);
}

TEST(Sim, CrashOfUnusedProcessorIsHarmless) {
  TaskGraph g = make_chain(3, ClassicParams{10.0});
  const Platform p(3, 1.0);
  // P2 is terrible: FTSA(ε=0) avoids it.
  std::vector<std::vector<double>> exec(3, {1.0, 1.0, 1000.0});
  const CostModel costs(g, p, exec);
  const auto s = ftsa_schedule(costs, FtsaOptions{0, 0});
  FailureTimeline scenario;
  scenario.add(ProcId{2u}, 0.0);
  const SimulationResult r = simulate(s, scenario);
  ASSERT_TRUE(r.success);
  EXPECT_NEAR(r.latency, s.lower_bound(), 1e-9);
}

TEST(Sim, CrashKillsUnreplicatedSchedule) {
  const auto w = small_workload(1, /*procs=*/4);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{0, 0});
  // Crash whichever processor hosts the first task: the run must fail.
  const ProcId victim = s.replicas(TaskId{0u})[0].proc;
  FailureTimeline scenario;
  scenario.add(victim, 0.0);
  const SimulationResult r = simulate(s, scenario);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(std::isinf(r.latency));
  EXPECT_GT(r.dead_replicas + r.cancelled_replicas, 0u);
}

TEST(Sim, SurvivesEpsilonCrashes) {
  const auto w = small_workload(2, /*procs=*/5);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{2, 0});
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const FailureTimeline scenario = random_crashes(rng, 5, 2);
    const SimulationResult r = simulate(s, scenario);
    ASSERT_TRUE(r.success);
    // Prop. 4.2: the guaranteed bound holds. (The achieved latency may
    // even dip below M* when a cancelled replica unblocks its processor
    // early, so no lower-bound assertion here.)
    EXPECT_LE(r.latency, s.upper_bound() * (1 + 1e-9));
  }
}

TEST(Sim, MidExecutionCrash) {
  // Crash at half the lower bound: in-flight work on the victim dies but
  // the schedule (ε = 1) still completes.
  const auto w = small_workload(3, /*procs=*/5);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  FailureTimeline scenario;
  scenario.add(ProcId{0u}, 0.5 * s.lower_bound());
  const SimulationResult r = simulate(s, scenario);
  ASSERT_TRUE(r.success);
  EXPECT_LE(r.latency, s.upper_bound() * (1 + 1e-9));
}

TEST(Sim, LateCrashDoesNotHurt) {
  // A crash after the whole schedule finished changes nothing.
  const auto w = small_workload(4, /*procs=*/5);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  FailureTimeline scenario;
  scenario.add(ProcId{1u}, 10.0 * s.upper_bound());
  const SimulationResult r = simulate(s, scenario);
  ASSERT_TRUE(r.success);
  EXPECT_NEAR(r.latency, s.lower_bound(), 1e-9 * (1 + s.lower_bound()));
  EXPECT_EQ(r.dead_replicas, 0u);
}

TEST(Sim, AllProcessorsCrashFails) {
  const auto w = small_workload(5, /*procs=*/4);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  FailureTimeline scenario;
  for (std::size_t p = 0; p < 4; ++p) scenario.add(ProcId{p}, 0.0);
  const SimulationResult r = simulate(s, scenario);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.completed_replicas, 0u);
}

TEST(Sim, CrashOfUnknownProcessorIsRejected) {
  const auto w = small_workload(5, /*procs=*/4);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  FailureTimeline scenario;
  scenario.add(ProcId{4u}, 0.0);
  EXPECT_THROW((void)simulate(s, scenario), InvalidArgument);
}

TEST(Sim, TaskCompletionTimes) {
  const auto w = small_workload(6, /*procs=*/4);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  const SimulationResult r = simulate(s);
  for (TaskId t : w->graph().tasks()) {
    const double done = r.task_completion(t);
    EXPECT_TRUE(std::isfinite(done));
    // Completion equals the earliest replica's planned finish when nothing
    // fails.
    double planned = std::numeric_limits<double>::infinity();
    for (const Replica& rep : s.replicas(t)) {
      planned = std::min(planned, rep.finish);
    }
    EXPECT_NEAR(done, planned, 1e-9 * (1 + planned));
  }
}

TEST(Sim, DeterministicAcrossRuns) {
  const auto w = small_workload(7, /*procs=*/5);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{2, 0});
  FailureTimeline scenario;
  scenario.add(ProcId{0u}, 0.0);
  scenario.add(ProcId{3u}, 12.0);
  const SimulationResult a = simulate(s, scenario);
  const SimulationResult b = simulate(s, scenario);
  EXPECT_EQ(a.success, b.success);
  EXPECT_DOUBLE_EQ(a.latency, b.latency);
  EXPECT_EQ(a.completed_replicas, b.completed_replicas);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
}

TEST(Sim, CancelledReplicasAreSkippedNotBlocking) {
  // Force cancellation: ε = 1 on 2 processors; crash P0 at 0. Every replica
  // on P0 dies, every task still completes on P1 (the co-located chain).
  const auto w = small_workload(8, /*procs=*/2, /*tasks=*/15);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  FailureTimeline scenario;
  scenario.add(ProcId{0u}, 0.0);
  const SimulationResult r = simulate(s, scenario);
  ASSERT_TRUE(r.success);
  EXPECT_LE(r.latency, s.upper_bound() * (1 + 1e-9));
}

// ---------------------------------------------------------------- contention

using CommParam = std::tuple<std::uint64_t, CommModelKind>;

class CommModelProperty : public ::testing::TestWithParam<CommParam> {};

TEST_P(CommModelProperty, ContentionNeverBeatsContentionFree) {
  const auto [seed, kind] = GetParam();
  const auto w = small_workload(seed, /*procs=*/6, /*tasks=*/40);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  SimulationOptions contended;
  contended.comm.kind = kind;
  contended.comm.ports = 2;
  const SimulationResult free_run = simulate(s);
  const SimulationResult slow_run = simulate(s, {}, contended);
  ASSERT_TRUE(free_run.success);
  ASSERT_TRUE(slow_run.success);
  EXPECT_GE(slow_run.latency, free_run.latency * (1 - 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, CommModelProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(CommModelKind::kOnePort,
                                         CommModelKind::kBoundedMultiPort)));

TEST(CommModels, MorePortsHelp) {
  const auto w = small_workload(9, /*procs=*/8, /*tasks=*/60);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{3, 0});
  auto run_with_ports = [&s](std::size_t ports) {
    SimulationOptions options;
    options.comm.kind = CommModelKind::kBoundedMultiPort;
    options.comm.ports = ports;
    return simulate(s, {}, options).latency;
  };
  const double one = run_with_ports(1);
  const double four = run_with_ports(4);
  const double many = run_with_ports(64);
  EXPECT_GE(one, four * (1 - 1e-9));
  EXPECT_GE(four, many * (1 - 1e-9));
  // With effectively unlimited ports we recover the contention-free run.
  EXPECT_NEAR(many, simulate(s).latency, 1e-6 * (1 + many));
}

// ---------------------------------------------------------------- traces

TEST(Trace, GanttAndListingRender) {
  const auto w = small_workload(10, /*procs=*/4, /*tasks=*/10);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  const std::string gantt = schedule_gantt(s);
  EXPECT_NE(gantt.find("P0"), std::string::npos);
  EXPECT_NE(gantt.find('#'), std::string::npos);
  const std::string listing = schedule_listing(s);
  EXPECT_NE(listing.find("FTSA"), std::string::npos);
  EXPECT_NE(listing.find("M*"), std::string::npos);

  FailureTimeline scenario;
  scenario.add(ProcId{0u}, 0.0);
  const SimulationResult r = simulate(s, scenario);
  const std::string egantt = execution_gantt(s, r);
  EXPECT_NE(egantt.find("lost replicas"), std::string::npos);
}

// ---------------------------------------------------------------- golden

// Pins full run() outcomes hex-exact: success, latency, the four counters
// and every replica's status/start/finish, for FTSA, MC-FTSA and FTBAR under
// every comm model and four crash sets — at t=0, mid-run, several
// processors at one instant (more than ε, so cancellations cascade), and a
// crash at a replica's exact finish time (the finish sorts first, so the
// replica completes).  Regenerate with
//   FTSCHED_UPDATE_GOLDEN=1 ./test_sim --gtest_filter=SimGolden.*
constexpr const char* kSimGoldenPath =
    FTSCHED_SOURCE_DIR "/tests/golden/sim_outcomes.txt";

void render_outcome(std::ostringstream& out, const SimulationResult& r) {
  out << "success=" << r.success << " latency=" << double_to_hex(r.latency)
      << " completed=" << r.completed_replicas << " dead=" << r.dead_replicas
      << " cancelled=" << r.cancelled_replicas
      << " messages=" << r.messages_delivered << '\n';
  for (std::size_t t = 0; t < r.outcomes.size(); ++t) {
    out << 't' << t;
    for (const ReplicaOutcome& o : r.outcomes[t]) {
      switch (o.status) {
        case ReplicaStatus::kCompleted:
          out << " C:" << double_to_hex(o.start) << ':'
              << double_to_hex(o.finish);
          break;
        case ReplicaStatus::kDead:
          out << " D:" << double_to_hex(o.start);
          break;
        case ReplicaStatus::kCancelled:
          out << " X";
          break;
        case ReplicaStatus::kNotStarted:
          out << " N";
          break;
      }
    }
    out << '\n';
  }
}

std::string render_sim_golden() {
  std::ostringstream out;
  constexpr std::size_t kProcs = 6;
  constexpr std::size_t kEps = 2;
  for (const std::uint64_t seed : {31u, 32u}) {
    const auto w = small_workload(seed, kProcs, /*tasks=*/20);
    const std::pair<const char*, ReplicatedSchedule> schedules[] = {
        {"ftsa", ftsa_schedule(w->costs(), FtsaOptions{kEps, seed})},
        {"mc-ftsa", mc_ftsa_schedule(w->costs(), McFtsaOptions{kEps, seed})},
        {"ftbar", ftbar_schedule(w->costs(), FtbarOptions{kEps, seed})}};
    const std::pair<const char*, CommModelKind> comms[] = {
        {"free", CommModelKind::kContentionFree},
        {"oneport", CommModelKind::kOnePort},
        {"multiport:ports=2", CommModelKind::kBoundedMultiPort}};
    for (const auto& [algo, s] : schedules) {
      for (const auto& [comm, kind] : comms) {
        SimulationOptions options;
        options.comm.kind = kind;
        options.comm.ports = 2;
        ScheduleSimulator sim(s, options);
        const SimulationResult clean = sim.run();
        const double span = clean.latency;

        // The first replica of the middle task: crash its processor at the
        // exact instant it finishes in the failure-free run.
        const TaskId mid{s.graph().task_count() / 2};
        const ProcId mid_proc = s.replicas(mid)[0].proc;
        const double mid_finish = clean.outcomes[mid.index()][0].finish;

        FailureTimeline at_zero;
        at_zero.add(ProcId{0u}, 0.0);
        at_zero.add(ProcId{3u}, 0.0);
        FailureTimeline mid_run;
        mid_run.add(ProcId{1u}, 0.3 * span);
        mid_run.add(ProcId{4u}, 0.6 * span);
        FailureTimeline one_instant;
        for (const std::size_t p : {1u, 2u, 5u}) {
          one_instant.add(ProcId{p}, 0.5 * span);
        }
        FailureTimeline at_finish;
        at_finish.add(mid_proc, mid_finish);
        at_finish.add(ProcId{(mid_proc.index() + 1) % kProcs}, mid_finish);

        const std::pair<const char*, const FailureTimeline*> sets[] = {
            {"none", nullptr},
            {"t0", &at_zero},
            {"mid-run", &mid_run},
            {"one-instant", &one_instant},
            {"at-finish", &at_finish}};
        for (const auto& [name, scenario] : sets) {
          out << "# seed=" << seed << " algo=" << algo << " comm=" << comm
              << " crashes=" << name << '\n';
          render_outcome(out, scenario == nullptr ? clean : sim.run(*scenario));
        }
        // The exact-finish replica must have completed.
        EXPECT_EQ(sim.run(at_finish).outcomes[mid.index()][0].status,
                  ReplicaStatus::kCompleted)
            << algo << " " << comm;
      }
    }
  }
  return out.str();
}

TEST(SimGolden, RunOutcomesMatchCommittedGolden) {
  goldentest::expect_matches_golden(kSimGoldenPath, render_sim_golden(),
                                    "run() outcomes");
}

}  // namespace
}  // namespace ftsched
