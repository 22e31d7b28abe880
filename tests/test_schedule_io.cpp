// Tests for schedule serialization (text round trip) and JSON export.
#include <gtest/gtest.h>

#include "ftsched/core/ftsa.hpp"
#include "ftsched/core/mc_ftsa.hpp"
#include "ftsched/core/schedule_io.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/sim/trace.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/workload/paper_workload.hpp"

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

TEST(ScheduleIo, TextRoundTripPreservesEverything) {
  const auto w = small_workload(1);
  const auto original = ftsa_schedule(w->costs(), FtsaOptions{2, 7});
  const std::string text = schedule_to_string(original);
  const auto reloaded = schedule_from_string(text, w->costs());
  EXPECT_EQ(reloaded.algorithm(), "FTSA");
  EXPECT_EQ(reloaded.epsilon(), 2u);
  EXPECT_DOUBLE_EQ(reloaded.lower_bound(), original.lower_bound());
  EXPECT_DOUBLE_EQ(reloaded.upper_bound(), original.upper_bound());
  EXPECT_EQ(reloaded.channel_count(), original.channel_count());
  EXPECT_EQ(reloaded.interproc_message_count(),
            original.interproc_message_count());
  for (TaskId t : w->graph().tasks()) {
    const auto& a = original.replicas(t);
    const auto& b = reloaded.replicas(t);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].proc, b[k].proc);
      EXPECT_DOUBLE_EQ(a[k].start, b[k].start);
      EXPECT_DOUBLE_EQ(a[k].pess_finish, b[k].pess_finish);
    }
  }
}

TEST(ScheduleIo, RoundTripPreservesRepairedTasks) {
  const auto w = small_workload(2);
  const auto original = mc_ftsa_schedule(w->costs(), McFtsaOptions{2, 3});
  const auto reloaded =
      schedule_from_string(schedule_to_string(original), w->costs());
  EXPECT_EQ(reloaded.repaired_tasks().size(),
            original.repaired_tasks().size());
}

TEST(ScheduleIo, ReloadedScheduleSimulatesIdentically) {
  const auto w = small_workload(3);
  const auto original = ftsa_schedule(w->costs(), FtsaOptions{2, 0});
  const auto reloaded =
      schedule_from_string(schedule_to_string(original), w->costs());
  Rng rng(5);
  const FailureTimeline scenario = random_crashes(rng, 5, 2);
  const SimulationResult a = simulate(original, scenario);
  const SimulationResult b = simulate(reloaded, scenario);
  EXPECT_EQ(a.success, b.success);
  EXPECT_DOUBLE_EQ(a.latency, b.latency);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
}

TEST(ScheduleIo, CommentsAndValidation) {
  const auto w = small_workload(4, /*procs=*/3, /*tasks=*/2);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  std::string text = "# saved schedule\n" + schedule_to_string(s);
  EXPECT_NO_THROW((void)schedule_from_string(text, w->costs()));
}

TEST(ScheduleIo, RejectsMalformedInput) {
  const auto w = small_workload(5, /*procs=*/3, /*tasks=*/2);
  EXPECT_THROW((void)schedule_from_string("replica 0 0 0 1 0 1\n", w->costs()),
               InvalidArgument);  // missing header
  EXPECT_THROW(
      (void)schedule_from_string("schedule X 1\nbogus 1\n", w->costs()),
      InvalidArgument);
  EXPECT_THROW(
      (void)schedule_from_string("schedule X 1\nreplica 0 0\n", w->costs()),
      InvalidArgument);  // truncated replica
}

TEST(ScheduleIo, ValidateFlagCatchesCorruptedTimes) {
  const auto w = small_workload(6, /*procs=*/3, /*tasks=*/3);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  std::string text = schedule_to_string(s);
  // Corrupt a finish time: shrink one replica's duration.
  const auto pos = text.find("replica");
  ASSERT_NE(pos, std::string::npos);
  // Replace the whole first replica line with an inconsistent one.
  const auto eol = text.find('\n', pos);
  text.replace(pos, eol - pos, "replica 0 0 0 0.001 0 0.001");
  EXPECT_THROW((void)schedule_from_string(text, w->costs()), Error);
  EXPECT_NO_THROW((void)schedule_from_string(text, w->costs(),
                                             /*validate=*/false));
}

TEST(ScheduleIo, JsonContainsScheduleAndExecution) {
  const auto w = small_workload(7);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  const std::string plain = schedule_to_json(s);
  EXPECT_NE(plain.find("\"algorithm\": \"FTSA\""), std::string::npos);
  EXPECT_NE(plain.find("\"lower_bound\""), std::string::npos);
  EXPECT_EQ(plain.find("\"execution\""), std::string::npos);

  FailureTimeline scenario;
  scenario.add(ProcId{0u}, 0.0);
  const SimulationResult r = simulate(s, scenario);
  const std::string with_exec = schedule_to_json(s, &r);
  EXPECT_NE(with_exec.find("\"execution\""), std::string::npos);
  EXPECT_NE(with_exec.find("\"success\": true"), std::string::npos);
  EXPECT_NE(with_exec.find("\"dead\""), std::string::npos);
  EXPECT_NE(with_exec.find("\"status\""), std::string::npos);
}

TEST(ScheduleIo, JsonBalancedBraces) {
  const auto w = small_workload(8);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  const std::string json = schedule_to_json(s);
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace ftsched
