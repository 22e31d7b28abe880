// Shared vocabulary of the sweep-request benchmark.
//
// The benchmark is one client issuing sweep requests in a closed loop.  A
// request is one SweepPlan run through run_plan or a SweepBackend into the
// benchmark's own RecordingSink; every module the request crosses is timed
// from here, around public calls only (nothing inside libftsched is
// instrumented).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ftsched/experiments/runner.hpp"
#include "ftsched/experiments/sweep_plan.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

/// One sample as the benchmark's sink received it.
struct Delivered {
  ftsched::InstanceCoord coord;
  ftsched::SeriesSample sample;
};

/// The benchmark's sink: keeps every delivered sample (for the checks),
/// notes when the first one arrived, and forwards to the program's own
/// OnlineStatsSink.  With `timed`, the forwarding call is timed — the
/// traced run's experiments.sink_s.
class RecordingSink final : public ftsched::SweepSink {
 public:
  RecordingSink(const ftsched::SweepPlan& plan, bool timed)
      : aggregate_(plan), timed_(timed) {}

  void on_sample(const ftsched::InstanceCoord& coord,
                 const ftsched::SeriesSample& sample) override {
    if (!first_) first_ = Clock::now();
    samples_.push_back({coord, sample});
    if (!timed_) {
      aggregate_.on_sample(coord, sample);
      return;
    }
    const Clock::time_point t0 = Clock::now();
    aggregate_.on_sample(coord, sample);
    sink_seconds_ += seconds_since(t0);
  }

  [[nodiscard]] const std::vector<Delivered>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] std::optional<Clock::time_point> first() const noexcept {
    return first_;
  }
  [[nodiscard]] double sink_seconds() const noexcept { return sink_seconds_; }
  /// The program's aggregate (the sink is spent afterwards).
  [[nodiscard]] ftsched::SweepResult take() { return aggregate_.take(); }

 private:
  ftsched::OnlineStatsSink aggregate_;
  bool timed_;
  std::vector<Delivered> samples_;
  std::optional<Clock::time_point> first_;
  double sink_seconds_ = 0.0;
};

/// Per-layer accumulators of the traced in-process composition.  Times are
/// seconds, summed over groups (so with T threads they can exceed wall).
struct LayerTotals {
  double generate_s = 0.0;   ///< workload: family->generate
  double schedule_s = 0.0;   ///< core: build_instance_schedules
  double ftsa_s = 0.0;       ///< core: FTSA alone through the registry
  double mc_ftsa_s = 0.0;    ///< core: MC-FTSA alone
  double ftbar_s = 0.0;      ///< core: FTBAR alone
  double reference_s = 0.0;  ///< core: FTSA* and FTBAR* alone
  double policy_s = 0.0;     ///< core: policy creation + callbacks
  double draw_s = 0.0;       ///< platform: draw_instance_cell
  double sim_build_s = 0.0;  ///< sim: ScheduleSimulator construction
  double static_s = 0.0;     ///< sim: simulate_drawn_cell
  double online_s = 0.0;     ///< sim: simulate_online_cell minus policy
  double busy_s = 0.0;       ///< the calls evaluate_group itself makes
  std::uint64_t policy_prepares = 0;
  std::uint64_t online_runs = 0;
  std::uint64_t static_runs = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t ftbar_schedules = 0;
  std::uint64_t ftbar_unsafe = 0;

  void add(const LayerTotals& o);
};

/// Runs `plan` through the public calls SweepPlan::evaluate_group makes, in
/// its order, timing each (see LayerTotals), on `threads` workers, then
/// delivers every sample to `sink` in increasing-id order.  When a group
/// throws, every group still runs (so the counters do not depend on thread
/// timing) and the first error in id order is rethrown, with nothing
/// delivered.  Otherwise the solo scheduler runs and simulator builds that
/// split the schedule phase follow on the same workers, then the check of
/// each FTBAR schedule with validate_fault_tolerance.  Returns the wall
/// time of the part before them.
double run_traced(const ftsched::SweepPlan& plan, ftsched::SweepSink& sink,
                  std::size_t threads, LayerTotals& totals);

/// Schedules of a plan that some crash set of at most epsilon processors
/// defeats (Theorem 4.1), by algorithm.
struct ScheduleAudit {
  std::uint64_t ftbar = 0;  ///< FTBAR schedules built
  std::uint64_t ftbar_unsafe = 0;
  std::uint64_t other_unsafe = 0;  ///< FTSA's and MC-FTSA's
};

/// Builds every schedule of `plan` again, one group at a time, and
/// validates each.  Run, untimed, on failed requests: it tells the known
/// FTBAR fault from any other failure.
[[nodiscard]] ScheduleAudit audit_schedules(const ftsched::SweepPlan& plan);

/// Fleet-side accumulators of the traced socket / subprocess runs.
struct FleetTotals {
  double join_s = 0.0;
  double poll_busy_s = 0.0;
  double poll_idle_s = 0.0;
  double wind_down_s = 0.0;
  double spawn_s = 0.0;
  double child_s = 0.0;
  double collect_s = 0.0;
  double merge_s = 0.0;
  std::uint64_t leases = 0;
  std::uint64_t steals = 0;
  std::uint64_t duplicates = 0;
};

/// Drives a Coordinator from the benchmark's own poll loop with `workers`
/// `cli worker --connect` children; samples go to `sink`.
void run_socket_traced(const ftsched::SweepPlan& plan, RecordingSink& sink,
                       const std::string& cli, std::size_t workers,
                       const std::string& scratch, FleetTotals& totals);

/// Spawns `workers` `cli sweep --shard j/K` children, then reads and merges
/// their shard files into the returned result.
[[nodiscard]] ftsched::SweepResult run_subprocess_traced(
    const ftsched::SweepPlan& plan, const std::string& cli,
    std::size_t workers, const std::string& scratch, FleetTotals& totals);

/// Serialisation cost of a request's samples through the shard-record
/// vocabulary (the fleets' wire and file format).
struct CodecTotals {
  double encode_s = 0.0;
  double decode_s = 0.0;
  std::uint64_t bytes = 0;
};

/// Encodes `samples` with append_sample_records and decodes every line
/// with parse_shard_record, timing both; returns false (with `problem`
/// set) when a decoded record does not reproduce its sample bit for bit.
[[nodiscard]] bool time_codec(const ftsched::SweepPlan& plan,
                              const std::vector<Delivered>& samples,
                              CodecTotals& totals, std::string& problem);

}  // namespace perfbench
