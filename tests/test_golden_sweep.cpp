// Golden-file regression test for the figure sweep pipeline.
//
// The Table-1 golden pins schedule construction; this one pins the other
// half of the experiment harness — the sweep path (paper-workload
// generation per granularity, per-instance RNG derivation, crash victims
// and simulation, series emission, OnlineStats aggregation) — by
// rendering one shrunken Figure-1 sweep cell with every accumulator field
// serialized as exact hex-floats.  Any change to a double anywhere in the
// pipeline fails this test instead of silently shifting figures.
//
// A second golden pins the online path the same way: the exact shard
// records of a small policy grid, so a change to what `requeue-heft` or
// `reactive-ftsa` places (not just to how fast it places it) fails here.
//
// Regenerate after an *intentional* change with:
//   FTSCHED_UPDATE_GOLDEN=1 ./test_golden_sweep
// and commit the diff (review it — that diff IS the behavior change).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ftsched/experiments/runner.hpp"
#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/util/stats.hpp"
#include "golden_test.hpp"

#ifndef FTSCHED_SOURCE_DIR
#error "FTSCHED_SOURCE_DIR must point at the repository root"
#endif

namespace ftsched {
namespace {

const char* kGoldenPath =
    FTSCHED_SOURCE_DIR "/tests/golden/fig1_sweep_cell.txt";
const char* kPolicyGoldenPath =
    FTSCHED_SOURCE_DIR "/tests/golden/policy_grid_shard.jsonl";

/// A shrunken Figure-1 cell: the figure's epsilon and series layout, a
/// small platform and instance count so the test stays fast.  Built
/// field-by-field (not via figure_config) so FTSCHED_GRAPHS/FTSCHED_SEED
/// cannot leak into the golden.
FigureConfig golden_config() {
  FigureConfig config;
  config.figure = 1;
  config.epsilon = 1;
  config.proc_count = 8;
  config.graphs_per_point = 3;
  config.seed = 42;
  config.granularities = {0.6, 1.4};
  config.threads = 2;  // determinism contract: thread count never matters
  config.workload.proc_count = 8;
  return config;
}

std::string render_golden(const FigureConfig& config) {
  const SweepResult sweep = run_sweep(config);
  std::ostringstream os;
  os << "# Figure-1 sweep cell (m=" << config.proc_count
     << ", epsilon=" << config.epsilon << ", graphs/point="
     << config.graphs_per_point << ", seed=" << config.seed << ")\n"
     << "# series granularity count mean m2 min max (hex-floats, exact)\n";
  for (const auto& [name, stats] : sweep.series) {
    for (std::size_t gi = 0; gi < sweep.granularities.size(); ++gi) {
      os << name << ' ' << double_to_hex(sweep.granularities[gi]) << ' '
         << stats[gi].count() << ' ' << double_to_hex(stats[gi].mean()) << ' '
         << double_to_hex(stats[gi].m2()) << ' '
         << double_to_hex(stats[gi].min()) << ' '
         << double_to_hex(stats[gi].max()) << '\n';
    }
  }
  return os.str();
}

TEST(GoldenSweep, Figure1CellMatchesCommittedGolden) {
  goldentest::expect_matches_golden(kGoldenPath,
                                    render_golden(golden_config()),
                                    "Figure-1 sweep cell");
}

/// 3 scenarios x 3 failure laws (one repair-free, two with repairs) x 3
/// policies on one granularity point: 27 instances, every reactive cell of
/// which moves replicas.  The records are those of
///   ftsched_cli sweep --procs 8 --graphs 1 --granularities 1.0 --seed 7
///     --scenario "t0;frac:f=0.5;uniform:hi=1" --failures "bernoulli:p=0.3;
///     repair:p=0.3,mttr=0.5;burst:p=0.4,width=0.2,mttr=0.3"
///     --policy "none;requeue-heft;reactive-ftsa" --shard 0/1
/// (whose header labels the shard "0/1" instead of "full").
FigureConfig policy_golden_config() {
  FigureConfig config;
  config.figure = 1;
  config.epsilon = 1;
  config.proc_count = 8;
  config.graphs_per_point = 1;
  config.seed = 7;
  config.granularities = {1.0};
  config.threads = 2;
  config.workload.proc_count = 8;
  config.scenarios = {"t0", "frac:f=0.5", "uniform:hi=1"};
  config.failure_models = {"bernoulli:p=0.3", "repair:p=0.3,mttr=0.5",
                           "burst:p=0.4,width=0.2,mttr=0.3"};
  config.policies = {"none", "requeue-heft", "reactive-ftsa"};
  return config;
}

TEST(GoldenSweep, PolicyGridShardRecordsMatchCommittedGolden) {
  const SweepPlan plan(policy_golden_config());
  std::ostringstream out;
  ShardWriterSink sink(out, plan);
  run_plan(plan, sink);
  goldentest::expect_matches_golden(kPolicyGoldenPath, out.str(),
                                    "Policy-grid shard records");
}

}  // namespace
}  // namespace ftsched
