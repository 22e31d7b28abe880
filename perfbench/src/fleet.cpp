// The traced fleets: the socket backend's coordinator loop and the
// subprocess backend's spawn/collect waves, driven from the benchmark so
// each phase can be timed; plus the shard-record codec timing.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <csignal>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ftsched/experiments/backend.hpp"
#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/service/coordinator.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/util/subprocess.hpp"

namespace perfbench {

using namespace ftsched;

namespace {

/// Children of one fleet; any still running when the fleet is destroyed
/// (an error path) are killed and reaped.
class Fleet {
 public:
  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    for (Child& c : children_) {
      if (!c.outcome && c.proc.running()) c.proc.kill(SIGKILL);
    }
    for (Child& c : children_) {
      if (!c.outcome && c.proc.running()) (void)c.proc.wait();
    }
  }

  void spawn(const std::vector<std::string>& argv, const std::string& log,
             const std::string& err) {
    children_.push_back({ChildProcess::spawn(argv, log, err), err, {}});
  }

  /// Reaps whatever has exited; returns the number still running.
  std::size_t reap() {
    std::size_t alive = 0;
    for (Child& c : children_) {
      if (c.outcome) continue;
      c.outcome = c.proc.try_wait();
      if (!c.outcome) {
        ++alive;
      } else if (!c.outcome->success()) {
        last_death_ = c.outcome->describe() + ": " + stderr_tail(c.err);
      }
    }
    return alive;
  }

  /// Blocks until every child exited; returns the first failure, if any.
  std::optional<std::string> wait_all() {
    std::optional<std::string> failure;
    for (Child& c : children_) {
      if (!c.outcome) c.outcome = c.proc.wait();
      if (!c.outcome->success() && !failure) {
        failure = c.outcome->describe() + ": " + stderr_tail(c.err);
      }
    }
    return failure;
  }

  [[nodiscard]] const std::string& last_death() const { return last_death_; }

 private:
  struct Child {
    ChildProcess proc;
    std::string err;
    std::optional<ChildOutcome> outcome;
  };
  std::vector<Child> children_;
  std::string last_death_;
};

/// What a poll turn may change that the benchmark can see.
struct PollView {
  std::size_t delivered = 0;
  std::size_t joined = 0;
  std::size_t granted = 0;
  std::size_t connections = 0;

  bool operator==(const PollView&) const = default;
};

}  // namespace

void run_socket_traced(const SweepPlan& plan, RecordingSink& sink,
                       const std::string& cli, std::size_t workers,
                       const std::string& scratch, FleetTotals& totals) {
  Coordinator coordinator(plan, sink);
  const std::size_t fleet_size = std::min(plan.size(), workers);
  const Clock::time_point start = Clock::now();
  Fleet fleet;
  for (std::size_t i = 0; i < fleet_size; ++i) {
    const std::string name = "worker" + std::to_string(i);
    fleet.spawn({cli, "worker", "--connect",
                 "127.0.0.1:" + std::to_string(coordinator.port()), "--name",
                 name},
                scratch + "/" + name + ".log", scratch + "/" + name + ".err");
  }
  const auto view = [&] {
    return PollView{sink.samples().size(),
                    coordinator.stats().workers_joined,
                    coordinator.stats().leases_granted,
                    coordinator.connections()};
  };

  std::optional<double> joined;
  while (!coordinator.finished()) {
    const PollView before = view();
    const Clock::time_point t0 = Clock::now();
    coordinator.poll(100);
    const double turn = seconds_since(t0);
    (view() == before ? totals.poll_idle_s : totals.poll_busy_s) += turn;
    if (!joined && coordinator.stats().workers_joined >= fleet_size) {
      joined = seconds_since(start);
    }
    if (fleet.reap() == 0 && !coordinator.finished()) {
      coordinator.poll(0);
      if (coordinator.finished()) break;
      throw Error("all socket workers died before the sweep completed: " +
                  fleet.last_death());
    }
  }
  const Clock::time_point finished = Clock::now();
  while (fleet.reap() > 0) coordinator.poll(50);
  totals.wind_down_s += seconds_since(finished);
  totals.join_s += joined.value_or(seconds_between(start, finished));
  totals.leases += coordinator.stats().leases_granted;
  totals.steals += coordinator.stats().leases_stolen;
  totals.duplicates += coordinator.stats().duplicate_samples;
}

SweepResult run_subprocess_traced(const SweepPlan& plan,
                                  const std::string& cli, std::size_t workers,
                                  const std::string& scratch,
                                  FleetTotals& totals) {
  const std::size_t shards = std::min(plan.size(), workers);
  const std::vector<std::string> grid = sweep_cli_args(plan.config());
  std::vector<std::string> files;
  const Clock::time_point start = Clock::now();
  Fleet fleet;
  for (std::size_t j = 0; j < shards; ++j) {
    const std::string base = scratch + "/shard" + std::to_string(j);
    files.push_back(base + ".jsonl");
    std::vector<std::string> argv{cli, "sweep"};
    argv.insert(argv.end(), grid.begin(), grid.end());
    for (const std::string& a :
         {std::string("--threads"), std::string("1"), std::string("--shard"),
          std::to_string(j) + "/" + std::to_string(shards),
          std::string("--out"), files.back()}) {
      argv.push_back(a);
    }
    fleet.spawn(argv, base + ".log", base + ".err");
  }
  totals.spawn_s += seconds_since(start);
  const std::optional<std::string> failure = fleet.wait_all();
  totals.child_s += seconds_since(start);
  const auto remove_files = [&files] {
    for (const std::string& f : files) std::filesystem::remove(f);
  };
  if (failure) {
    remove_files();
    throw Error("shard child " + *failure);
  }

  const Clock::time_point collect = Clock::now();
  std::vector<ShardFile> parsed;
  for (const std::string& f : files) parsed.push_back(read_shard_file(f));
  for (const ShardFile& s : parsed) {
    FTSCHED_REQUIRE(s.header.fingerprint() == plan.fingerprint(),
                    "shard fingerprint differs from the plan's");
  }
  const Clock::time_point merge = Clock::now();
  SweepResult result = merge_shards(parsed);
  totals.merge_s += seconds_since(merge);
  totals.collect_s += seconds_since(collect);
  remove_files();
  return result;
}

bool time_codec(const SweepPlan& plan, const std::vector<Delivered>& samples,
                CodecTotals& totals, std::string& problem) {
  std::string wire;
  Clock::time_point t0 = Clock::now();
  for (const Delivered& d : samples) {
    append_sample_records(wire, plan, d.coord, d.sample);
  }
  totals.encode_s += seconds_since(t0);
  totals.bytes += wire.size();

  std::vector<ShardRecord> records;
  std::string line;
  t0 = Clock::now();
  for (std::size_t from = 0; from < wire.size();) {
    const std::size_t end = wire.find('\n', from);
    line.assign(wire, from, end - from);
    records.push_back(parse_shard_record(line, "codec"));
    from = end + 1;
  }
  totals.decode_s += seconds_since(t0);

  std::size_t at = 0;
  for (const Delivered& d : samples) {
    for (const auto& [name, value] : d.sample) {
      if (at >= records.size() || records[at].coord.id != d.coord.id ||
          records[at].series != plan.series_label(d.coord, name) ||
          std::bit_cast<std::uint64_t>(records[at].stats.mean()) !=
              std::bit_cast<std::uint64_t>(value) ||
          records[at].stats.count() != 1) {
        problem = "shard record " + std::to_string(at) +
                  " does not reproduce series " + name + " of instance " +
                  std::to_string(d.coord.id);
        return false;
      }
      ++at;
    }
  }
  if (at != records.size()) {
    problem = "shard codec produced extra records";
    return false;
  }
  return true;
}

}  // namespace perfbench
