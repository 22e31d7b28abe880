// Tests for the WorkloadRegistry: family lookup, canonical-name round
// trips, sweep-point pinning, the trace family, property-based generation
// checks (via proptest.hpp), and the extended determinism contract of
// run_sweep over (workload family × crash scenario) cells.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "ftsched/core/scheduler.hpp"
#include "ftsched/dag/serialize.hpp"
#include "ftsched/experiments/runner.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/workload/classic.hpp"
#include "ftsched/workload/workload_registry.hpp"
#include "proptest.hpp"

namespace ftsched {
namespace {

// ----------------------------------------------------------------- registry

TEST(WorkloadRegistry, HasAtLeastTheFourCoreFamilies) {
  const std::vector<std::string> names = WorkloadRegistry::global().names();
  const std::set<std::string> set(names.begin(), names.end());
  for (const char* expected : {"paper", "layered", "gnp", "trace", "fft",
                               "cholesky", "chain", "wavefront"}) {
    EXPECT_TRUE(set.count(expected)) << expected;
  }
  EXPECT_GE(names.size(), 4u);
}

TEST(WorkloadRegistry, CanonicalNamesOmitDefaultsAndRoundTrip) {
  const WorkloadRegistry& registry = WorkloadRegistry::global();
  EXPECT_EQ(registry.create("paper")->name(), "paper");
  EXPECT_EQ(registry.create("paper:tmin=100,tmax=150")->name(), "paper");
  EXPECT_EQ(registry.create("fft:size=8")->name(), "fft");  // 8 is default
  for (const char* spec :
       {"paper:tmin=20,tmax=24", "layered:tasks=40,width=4,p=0.5",
        "gnp:tasks=30,p=0.1", "fft:size=16", "cholesky:size=3,volume=50",
        "wavefront:size=4,procs=5,g=0.8", "sp:size=20"}) {
    const WorkloadFamilyPtr first = registry.create(spec);
    const WorkloadFamilyPtr second = registry.create(first->name());
    EXPECT_EQ(first->name(), second->name()) << "spec: " << spec;
    EXPECT_FALSE(first->describe().empty()) << spec;
  }
}

TEST(WorkloadRegistry, SweepPointSuppliesUnpinnedDimensions) {
  Rng rng(7);
  const SweepPoint point{0.7, 5};
  const auto unpinned = make_workload_family("paper:tmin=20,tmax=24");
  const auto w = unpinned->generate(rng, point);
  EXPECT_EQ(w->platform().proc_count(), 5u);
  EXPECT_NEAR(w->costs().granularity(), 0.7, 1e-9);

  // Spec-pinned procs/g win over the sweep point (like explicit scheduler
  // options win over injected defaults).
  Rng rng2(7);
  const auto pinned = make_workload_family("paper:tmin=20,tmax=24,procs=3,g=1.5");
  const auto w2 = pinned->generate(rng2, point);
  EXPECT_EQ(w2->platform().proc_count(), 3u);
  EXPECT_NEAR(w2->costs().granularity(), 1.5, 1e-9);
}

TEST(WorkloadRegistry, DefaultsInjectionBridgesFlagCallers) {
  // make_workload_family's defaults fill keys the spec left unset...
  const auto fam = make_workload_family("paper", {{"procs", "4"}, {"g", "0.5"}});
  Rng rng(3);
  const auto w = fam->generate(rng, SweepPoint{2.0, 9});  // point is ignored
  EXPECT_EQ(w->platform().proc_count(), 4u);
  EXPECT_NEAR(w->costs().granularity(), 0.5, 1e-9);
  // ...and keys a family does not support are skipped, not rejected.
  EXPECT_NO_THROW((void)make_workload_family("fft", {{"tmin", "10"}}));
}

TEST(WorkloadRegistry, TraceFamilyLoadsServedGraph) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ftsched_trace_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "fft.txt").string();
  {
    std::ofstream out(path);
    write_graph(out, make_fft(8));
  }
  const auto family = make_workload_family("trace:file=" + path);
  EXPECT_EQ(family->name(), "trace:file=" + path);
  Rng rng(11);
  const auto w = family->generate(rng, SweepPoint{1.0, 4});
  EXPECT_EQ(w->graph().task_count(), make_fft(8).task_count());
  EXPECT_EQ(w->platform().proc_count(), 4u);
  // Missing files fail at construction, not at first generate().
  EXPECT_THROW((void)make_workload_family("trace:file=/nonexistent/g.txt"),
               InvalidArgument);
  EXPECT_THROW((void)make_workload_family("trace"), InvalidArgument);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------- property tests

/// Specs covering every structural corner: random families, regular
/// graphs, and a heavy-tailed classic.  (trace is exercised separately —
/// it needs a file on disk.)
const char* const kPropertySpecs[] = {
    "paper:tmin=15,tmax=30", "layered:tasks=25,width=4", "gnp:tasks=20,p=0.2",
    "chain:size=10",         "forkjoin:size=8",          "intree:size=8",
    "outtree:size=8",        "fft:size=8",               "gauss:size=5",
    "wavefront:size=4",      "sp:size=18",               "cholesky:size=3",
    "lu:size=3",
};

TEST(WorkloadProperty, EveryFamilyGeneratesSchedulableWorkloads) {
  proptest::check(
      "random family x random sweep point -> valid FTSA schedule",
      [&](Rng& rng, std::uint64_t) {
        const std::string spec =
            kPropertySpecs[rng() % std::size(kPropertySpecs)];
        SCOPED_TRACE("spec: " + spec);
        const SweepPoint point{rng.uniform(0.3, 2.0),
                               static_cast<std::size_t>(rng.uniform_int(4, 8))};
        const auto family = make_workload_family(spec);
        const auto w = family->generate(rng, point);
        ASSERT_GT(w->graph().task_count(), 0u);
        EXPECT_EQ(w->platform().proc_count(), point.proc_count);
        if (w->graph().edge_count() > 0) {
          EXPECT_NEAR(w->costs().granularity(), point.granularity,
                      1e-9 * (1.0 + point.granularity));
        }
        const auto schedule =
            make_scheduler("ftsa:eps=1")->run(w->costs());
        schedule.validate();
        EXPECT_LE(schedule.lower_bound(), schedule.upper_bound() + 1e-9);
        // One crash is within epsilon: the execution must succeed within
        // the guaranteed bound (Prop. 4.2).
        FailureTimeline crash;
        crash.add(ProcId{static_cast<std::size_t>(rng() % point.proc_count)},
                  0.0);
        const SimulationResult r = simulate(schedule, crash);
        EXPECT_TRUE(r.success);
        EXPECT_LE(r.latency, schedule.upper_bound() + 1e-9);
      });
}

TEST(WorkloadProperty, GenerationIsDeterministicGivenSeedAndPoint) {
  proptest::check(
      "same (spec, seed, point) -> identical workload and schedule",
      [&](Rng& rng, std::uint64_t case_seed) {
        const std::string spec =
            kPropertySpecs[rng() % std::size(kPropertySpecs)];
        SCOPED_TRACE("spec: " + spec);
        const SweepPoint point{rng.uniform(0.3, 2.0),
                               static_cast<std::size_t>(rng.uniform_int(4, 8))};
        const auto family = make_workload_family(spec);
        Rng a(case_seed);
        Rng b(case_seed);
        const auto wa = family->generate(a, point);
        const auto wb = family->generate(b, point);
        EXPECT_EQ(graph_to_string(wa->graph()), graph_to_string(wb->graph()));
        const auto sa = make_scheduler("ftsa")->run(wa->costs());
        const auto sb = make_scheduler("ftsa")->run(wb->costs());
        EXPECT_EQ(sa.lower_bound(), sb.lower_bound());
        EXPECT_EQ(sa.upper_bound(), sb.upper_bound());
      },
      proptest::PropConfig{.iterations = 15});
}

// ----------------------------------- determinism across families/scenarios

FigureConfig cross_sweep_config(std::size_t threads) {
  FigureConfig config;
  config.epsilon = 1;
  config.proc_count = 5;
  config.graphs_per_point = 2;
  config.seed = 13;
  config.granularities = {0.8, 1.6};
  config.threads = threads;
  config.workloads = {"paper:tmin=18,tmax=22", "fft:size=8"};
  config.scenarios = {"t0", "frac:f=0.5"};
  return config;
}

TEST(RunSweepCross, FamiliesTimesScenariosIsBitIdenticalAcrossThreadCounts) {
  // The ISSUE-2 determinism extension: >= 2 workload families x >= 2 crash
  // scenarios, threads=N bit-identical to threads=1.
  const SweepResult serial = run_sweep(cross_sweep_config(1));
  const SweepResult parallel4 = run_sweep(cross_sweep_config(4));
  const SweepResult parallel7 = run_sweep(cross_sweep_config(7));
  EXPECT_TRUE(sweep_results_identical(serial, parallel4));
  EXPECT_TRUE(sweep_results_identical(serial, parallel7));
  ASSERT_EQ(serial.workloads.size(), 2u);
  ASSERT_EQ(serial.scenarios.size(), 2u);
}

TEST(RunSweepCross, DecoratedSeriesCoverEveryCell) {
  const SweepResult sweep = run_sweep(cross_sweep_config(0));
  for (const std::string& workload : sweep.workloads) {
    for (const std::string& scenario : sweep.scenarios) {
      for (const char* series : {"FTSA-LowerBound", "FTSA-1Crash",
                                 "MC-FTSA-1Crash", "FaultFree-FTSA"}) {
        const std::string name =
            sweep_series_name(sweep, series, workload, scenario);
        ASSERT_TRUE(sweep.series.count(name)) << "missing " << name;
        EXPECT_EQ(sweep.series.at(name).size(), 2u) << name;
        EXPECT_EQ(sweep.series.at(name)[0].count(), 2u) << name;
      }
    }
  }
}

TEST(RunSweepCross, ScenarioCellsArePairedOnIdenticalInstances) {
  // Scenario cells of one family share RNG streams, so scenario curves are
  // paired: crash-independent series (schedule bounds) must agree exactly
  // across scenarios, while crash latencies may differ.
  const SweepResult sweep = run_sweep(cross_sweep_config(0));
  for (const std::string& workload : sweep.workloads) {
    const auto& t0 = sweep.series.at(
        sweep_series_name(sweep, "FTSA-LowerBound", workload, "t0"));
    const auto& frac = sweep.series.at(
        sweep_series_name(sweep, "FTSA-LowerBound", workload, "frac:f=0.5"));
    for (std::size_t gi = 0; gi < t0.size(); ++gi) {
      EXPECT_EQ(t0[gi].mean(), frac[gi].mean()) << workload << " gi=" << gi;
    }
  }
}

TEST(RunSweepCross, SingleCellSweepKeepsUndecoratedSeriesNames) {
  FigureConfig config = cross_sweep_config(1);
  config.workloads = {"fft:size=8"};
  config.scenarios = {"frac:f=0.5"};
  const SweepResult sweep = run_sweep(config);
  EXPECT_TRUE(sweep.series.count("FTSA-LowerBound"));
  EXPECT_EQ(sweep.workloads, std::vector<std::string>{"fft:size=8"});
  EXPECT_EQ(sweep.scenarios, std::vector<std::string>{"frac:f=0.5"});
}

TEST(RunSweepCross, LateCrashesCostNoMoreThanWorstCase) {
  // frac:f=1.2 crashes after every replica chain completed: the achieved
  // latency equals the fault-free execution, which can never exceed the
  // paired t=0 worst case.
  FigureConfig config = cross_sweep_config(1);
  config.workloads = {"paper:tmin=18,tmax=22"};
  config.scenarios = {"t0", "frac:f=1.2"};
  const SweepResult sweep = run_sweep(config);
  const std::string w = config.workloads[0];
  const auto& worst = sweep.series.at(
      sweep_series_name(sweep, "FTSA-1Crash", w, "t0"));
  const auto& late = sweep.series.at(
      sweep_series_name(sweep, "FTSA-1Crash", w, "frac:f=1.2"));
  for (std::size_t gi = 0; gi < worst.size(); ++gi) {
    EXPECT_LE(late[gi].mean(), worst[gi].mean() + 1e-9) << "gi=" << gi;
  }
}

}  // namespace
}  // namespace ftsched
