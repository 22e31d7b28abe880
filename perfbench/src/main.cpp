// Sweep-request benchmark program.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --cli PATH
//             --scratch DIR [--smoke]
//
// One client issues sweep requests in a closed loop for S seconds, in whole
// rounds over a fixed pool of requests (see README.md).  --trace 0 reports
// the end-to-end metrics; --trace 1 runs every request both untraced and
// through the benchmark's own timed composition of the same public calls
// and reports the per-layer metrics.  The last stdout line is the JSON
// result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "ftsched/experiments/backend.hpp"
#include "ftsched/experiments/figures.hpp"

namespace perfbench {
namespace {

using namespace ftsched;

/// In-process requests run on this many threads; fleets start this many
/// workers (plus the benchmark process as coordinator: 4 = nproc here).
constexpr std::size_t kThreads = 2;
constexpr std::size_t kWorkers = 3;
/// Plan-pool builds before the first request, and one more after every
/// kSetupEvery requests; setup_s is the median of all of them.
constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kSetupEvery = 8;
/// At most one seeded request in this many of a pool (and at least one
/// request) may be left out.
constexpr std::size_t kMaxLeftOutPer = 20;

enum class Backend { kInproc, kSocket };

struct WorkloadDef {
  std::string name;
  std::vector<std::string> grid;  ///< sweep flags, minus --seed/--threads
  Backend backend;
  std::size_t pool;     ///< seeded requests per round
  double tail;          ///< request_tail_s percentile of a third (0..1)
};

const std::vector<std::string> kStaticCells = {
    "--scenario", "t0;frac:f=0.5;uniform:hi=1", "--failures",
    "eps;fixed:k=1;bernoulli:p=0.3"};

std::vector<std::string> concat(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Pools are sized so that one round takes 20-25 s on the reference
/// machine (README.md); each tail percentile is the highest whole 5% with
/// at least 10 completed requests beyond it in a third of one round.
const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = [] {
    return std::vector<WorkloadDef>{
        {"paper-static",
         concat({"--figure", "1", "--graphs", "2"}, kStaticCells),
         Backend::kInproc, 260, 0.85},
        {"policy-online",
         {"--figure", "1", "--graphs", "1", "--scenario", "t0;frac:f=0.5",
          "--failures", "bernoulli:p=0.3;repair:p=0.3,mttr=0.5", "--policy",
          "none;requeue-heft;reactive-ftsa"},
         Backend::kInproc, 120, 0.75},
        {"socket-fleet",
         concat({"--figure", "1", "--graphs", "4", "--procs", "10",
                 "--granularities", "0.4;1.0;1.6"},
                kStaticCells),
         Backend::kSocket, 90, 0.65},
    };
  }();
  return defs;
}

/// The FTBAR reproducer of README.md: fails every time, whatever the seed.
const std::vector<std::string> kFaultGrid = {
    "--figure", "1",  "--graphs",        "19", "--procs",
    "10",       "--seed", "5", "--granularities", "0.2"};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Grid seed of request i under benchmark seed `seed` (31 bits, so every
/// CLI and shard header renders it unchanged).
std::uint64_t grid_seed(std::uint64_t seed, std::uint64_t i) {
  return splitmix64(splitmix64(seed) ^ i) >> 33;
}

struct Request {
  std::uint64_t index = 0;  ///< position in the seed stream (seeded only)
  std::uint64_t seed = 0;
  bool fault = false;
  SweepPlan plan;
  /// Fleets: digests of the same request run in-process — its CSV and
  /// its samples, bit for bit — computed once, outside the timed loop.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> reference;
};

Request make_request(const WorkloadDef& def, std::uint64_t bench_seed,
                     std::uint64_t index) {
  const std::uint64_t seed = grid_seed(bench_seed, index);
  std::vector<std::string> args = def.grid;
  args.insert(args.end(), {"--seed", std::to_string(seed), "--threads",
                           std::to_string(kThreads)});
  return Request{index, seed, false, SweepPlan(sweep_config_from_args(args)),
                 std::nullopt};
}

Request make_fault_request() {
  std::vector<std::string> args = kFaultGrid;
  args.insert(args.end(), {"--threads", std::to_string(kThreads)});
  return Request{0, 5, true, SweepPlan(sweep_config_from_args(args)),
                 std::nullopt};
}

std::vector<Request> build_pool(const WorkloadDef& def, std::uint64_t seed,
                                std::size_t size) {
  std::vector<Request> pool;
  pool.reserve(size + 1);
  for (std::uint64_t i = 0; i < size; ++i) {
    pool.push_back(make_request(def, seed, i));
  }
  pool.push_back(make_fault_request());
  return pool;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string cli;
  std::string scratch;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--cli") a.cli = value;
    else if (key == "--scratch") a.scratch = value;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (a.cli.empty() || a.scratch.empty()) {
    throw std::invalid_argument("--cli and --scratch are required");
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile; `beyond` receives how many values lie above it.
double percentile(std::vector<double> v, double q, std::size_t& beyond) {
  beyond = 0;
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  beyond = v.size() - 1 - idx;
  return v[idx];
}

/// The q-percentile of each third of `walls` (in request order), median
/// over the thirds: a tail that a burst of machine noise within one third
/// cannot move.  `beyond` receives the fewest requests beyond a third's
/// percentile.
double tail_of_thirds(const std::vector<double>& walls, double q,
                      std::size_t& beyond) {
  std::vector<double> tails;
  beyond = walls.size();
  for (std::size_t i = 0; i < 3; ++i) {
    const auto at = [&walls](std::size_t k) {
      return walls.begin() + static_cast<std::ptrdiff_t>(walls.size() * k / 3);
    };
    const std::vector<double> third(at(i), at(i + 1));
    std::size_t n = 0;
    tails.push_back(percentile(third, q, n));
    beyond = std::min(beyond, n);
  }
  return median(tails);
}

double peak_rss_mib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

bool is_thm41_failure(const std::string& what) {
  return what.find("Thm 4.1 bug") != std::string::npos;
}

/// Everything one run accumulates.
struct RunTotals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t left_out = 0;    ///< seeded requests hit by the FTBAR fault
  std::uint64_t rounds = 0;
  std::uint64_t instances = 0;   ///< delivered by completed requests
  double wall_all = 0.0;         ///< every request run, left out too
  std::vector<double> walls;     ///< completed requests
  std::vector<double> firsts;    ///< completed requests
  double traced_wall = 0.0;
  double untraced_wall = 0.0;
  LayerTotals layers;
  FleetTotals fleet;
  CodecTotals codec;
  double sink_s = 0.0;
  double worker_idle_s = 0.0;
  std::uint64_t run_plan_simulations = 0;
  CheckLog log;
};

class Runner {
 public:
  Runner(const WorkloadDef& def, const Args& args)
      : def_(def), args_(args) {
    if (def.backend == Backend::kSocket) {
      backend_ = make_sweep_backend("socket",
                                    {{"workers", std::to_string(kWorkers)},
                                     {"bin", args.cli},
                                     {"dir", args.scratch}});
    } else {
      backend_ = make_sweep_backend("inproc:threads=" +
                                    std::to_string(kThreads));
    }
  }

  /// Runs request `r` of the pool.  A seeded request that hits the known
  /// FTBAR fault is left out: its wall time still counts, its FTBAR
  /// schedules are still counted, and it is replaced (in place) by the next
  /// request of the seed stream, so that every run attempts and fails the
  /// same share of requests whatever the seed.
  void run(Request& r, std::uint64_t& next_index, RunTotals& t) {
    for (;;) {
      const std::optional<Failure> failure = attempt(r, t);
      if (!failure) return;
      t.wall_all += failure->wall;
      ScheduleAudit audit;
      if (is_thm41_failure(failure->message)) audit = audit_schedules(r.plan);
      if (args_.trace) {
        t.layers.ftbar_schedules += audit.ftbar;
        t.layers.ftbar_unsafe += audit.ftbar_unsafe;
      }
      const bool ftbar_fault =
          audit.ftbar_unsafe > 0 && audit.other_unsafe == 0;
      if (!r.fault && ftbar_fault) {
        std::cerr << "perfbench: left out request " << r.index
                  << " (grid seed " << r.seed << "): FTBAR fault, "
                  << audit.ftbar_unsafe << " unsafe FTBAR schedule(s)\n";
        ++t.left_out;
        r = make_request(def_, args_.seed, next_index++);
        continue;
      }
      ++t.attempted;
      ++t.failed;
      if (!r.fault) {
        std::cerr << "perfbench: request " << r.index << " (grid seed "
                  << r.seed << ") failed: " << failure->message << '\n';
      } else if (!ftbar_fault) {
        t.log.fail("the FTBAR reproducer failed for another reason: " +
                   failure->message);
      }
      return;
    }
  }

 private:
  struct Failure {
    std::string message;
    double wall = 0.0;
  };

  /// One request; on success counts it and runs every check, otherwise
  /// returns why it failed and how long it took, counting nothing.
  std::optional<Failure> attempt(Request& r, RunTotals& t) {
    RecordingSink sink(r.plan, false);
    RunPlanStats stats;
    RunPlanOptions options;
    if (args_.trace) options.stats = &stats;
    const Clock::time_point t0 = Clock::now();
    std::optional<std::string> error;
    try {
      backend_->run(r.plan, sink, options);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double wall = seconds_since(t0);
    if (error) return Failure{*error, wall};
    ++t.attempted;
    t.wall_all += wall;
    t.walls.push_back(wall);
    t.firsts.push_back(sink.first() ? seconds_between(t0, *sink.first())
                                    : wall);
    t.instances += r.plan.size();

    const std::vector<Delivered>& samples = sink.samples();
    const SweepResult result = sink.take();
    check_delivery(r.plan, samples, t.log);
    check_aggregation(r.plan, samples, result, t.log);
    check_properties(r.plan, samples, t.log);
    if (r.plan.policies().size() > 1) {
      check_policy_pairing(r.plan, samples, t.log);
    }
    if (args_.trace) {
      t.untraced_wall += wall;
      t.run_plan_simulations += stats.simulations_run;
      trace(r, samples, result, wall, stats, t);
    } else if (def_.backend != Backend::kInproc) {
      if (!r.reference) {
        RecordingSink reference(r.plan, false);
        RunPlanOptions ref;
        ref.threads = kThreads;
        run_plan(r.plan, reference, ref);
        r.reference = {digest(sweep_to_csv(reference.take())),
                       digest(reference.samples())};
      }
      t.log.checked += 2;
      if (digest(sweep_to_csv(result)) != r.reference->first) {
        t.log.fail("request " + std::to_string(r.index) + " through " +
                   def_.name + " differs from the in-process CSV");
      }
      if (digest(samples) != r.reference->second) {
        t.log.fail("request " + std::to_string(r.index) + " through " +
                   def_.name + " delivered other samples than in-process");
      }
    }
    return std::nullopt;
  }

  /// The traced half of one completed request.
  void trace(const Request& r, const std::vector<Delivered>& samples,
             const SweepResult& result, double untraced_wall,
             const RunPlanStats& stats, RunTotals& t) {
    std::string problem;
    if (!time_codec(r.plan, samples, t.codec, problem)) t.log.fail(problem);

    // In-process composition: the traced run itself on in-process
    // workloads, the byte-identity reference on the fleets.
    RecordingSink traced(r.plan, true);
    LayerTotals layers;
    const double traced_wall = run_traced(r.plan, traced, kThreads, layers);
    t.layers.add(layers);
    t.sink_s += traced.sink_seconds();
    check_identical(samples, traced.samples(), t.log);

    if (def_.backend == Backend::kInproc) {
      // The program's own counters must agree with the composition's.
      ++t.log.checked;
      if (stats.simulations_run != layers.static_runs ||
          stats.dedupe_hits != layers.cache_hits) {
        t.log.fail("RunPlanStats of request " + std::to_string(r.index) +
                   " disagree with the traced cache counters");
      }
      t.worker_idle_s +=
          static_cast<double>(kThreads) * untraced_wall - layers.busy_s;
      t.traced_wall += traced_wall;
      return;
    }
    ++t.log.checked;
    if (sweep_to_csv(result) != sweep_to_csv(traced.take())) {
      t.log.fail("request " + std::to_string(r.index) + " through " +
                 def_.name + " differs from the in-process CSV");
    }
    const Clock::time_point f0 = Clock::now();
    RecordingSink fleet_sink(r.plan, false);
    run_socket_traced(r.plan, fleet_sink, args_.cli, kWorkers, args_.scratch,
                      t.fleet);
    t.traced_wall += seconds_since(f0);
    check_identical(samples, fleet_sink.samples(), t.log);

    // The same request through `sweep --shard j/K` children and their
    // shard files: the subprocess backend's path, for the backend.* and
    // merge layers (not timed against anything).
    const SweepResult merged = run_subprocess_traced(
        r.plan, args_.cli, kWorkers, args_.scratch, t.fleet);
    ++t.log.checked;
    if (!sweep_results_identical(result, merged)) {
      t.log.fail("merged shards of request " + std::to_string(r.index) +
                 " differ from the socket fleet's result");
    }
  }

  const WorkloadDef& def_;
  const Args& args_;
  SweepBackendPtr backend_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const RunTotals& t,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(t.attempted) +
                    ", \"failed\": " + std::to_string(t.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  std::cout << out << "}}" << std::endl;
}

std::vector<Metric> end_to_end(const WorkloadDef& def, const RunTotals& t,
                               double setup_s) {
  std::size_t beyond = 0;
  const double tail = tail_of_thirds(t.walls, def.tail, beyond);
  std::cerr << "perfbench: " << def.name << ": " << t.walls.size()
            << " completed requests in " << t.rounds << " round(s); p"
            << def.tail * 100 << " of each third has at least " << beyond
            << " beyond it\n";
  return {
      {"instances_per_s",
       t.wall_all > 0 ? static_cast<double>(t.instances) / t.wall_all : 0.0,
       "instances/s"},
      {"request_p50_s", median(t.walls), "s"},
      {"request_tail_s", tail, "s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
}

std::vector<Metric> per_layer(const RunTotals& t, double plan_build_s) {
  const double rounds =
      static_cast<double>(std::max<std::uint64_t>(t.rounds, 1));
  const LayerTotals& l = t.layers;
  const FleetTotals& f = t.fleet;
  const auto per_round = [rounds](double v) { return v / rounds; };
  const auto count = [rounds](std::uint64_t v) {
    return static_cast<double>(v) / rounds;
  };
  const auto us_per = [](double s, std::uint64_t n) {
    return n == 0 ? 0.0 : s / static_cast<double>(n) * 1e6;
  };
  const std::uint64_t lookups = l.cache_hits + l.static_runs;
  return {
      {"workload.generate_s", per_round(l.generate_s), "s"},
      {"core.schedule_s", per_round(l.schedule_s), "s"},
      {"core.ftsa_s", per_round(l.ftsa_s), "s"},
      {"core.mc_ftsa_s", per_round(l.mc_ftsa_s), "s"},
      {"core.ftbar_s", per_round(l.ftbar_s), "s"},
      {"core.reference_s", per_round(l.reference_s), "s"},
      {"core.policy_s", per_round(l.policy_s), "s"},
      {"core.policy_prepares", count(l.policy_prepares), "count"},
      {"core.ftbar_schedules", count(l.ftbar_schedules), "count"},
      {"core.ftbar_unsafe_schedules", count(l.ftbar_unsafe), "count"},
      {"platform.draw_s", per_round(l.draw_s), "s"},
      {"sim.build_s", per_round(l.sim_build_s), "s"},
      {"sim.static_s", per_round(l.static_s), "s"},
      {"sim.static_runs", count(l.static_runs), "count"},
      {"sim.static_us_per_run", us_per(l.static_s, l.static_runs), "us"},
      {"sim.online_s", per_round(l.online_s), "s"},
      {"sim.online_runs", count(l.online_runs), "count"},
      {"sim.online_us_per_run", us_per(l.online_s, l.online_runs), "us"},
      {"request.first_sample_p50_s", median(t.firsts), "s"},
      {"request.left_out", static_cast<double>(t.left_out), "count"},
      {"experiments.plan_build_s", plan_build_s, "s"},
      {"experiments.run_plan_simulations", count(t.run_plan_simulations),
       "count"},
      {"experiments.cache_hits", count(l.cache_hits), "count"},
      {"experiments.cache_hit_ratio",
       lookups == 0 ? 0.0
                    : static_cast<double>(l.cache_hits) /
                          static_cast<double>(lookups),
       "ratio"},
      {"experiments.sink_s", per_round(t.sink_s), "s"},
      {"experiments.worker_idle_s", per_round(t.worker_idle_s), "s"},
      {"experiments.shard_encode_s", per_round(t.codec.encode_s), "s"},
      {"experiments.shard_bytes", count(t.codec.bytes), "bytes"},
      {"experiments.shard_decode_s", per_round(t.codec.decode_s), "s"},
      {"experiments.merge_s", per_round(f.merge_s), "s"},
      {"service.join_s", per_round(f.join_s), "s"},
      {"service.poll_busy_s", per_round(f.poll_busy_s), "s"},
      {"service.poll_idle_s", per_round(f.poll_idle_s), "s"},
      {"service.wind_down_s", per_round(f.wind_down_s), "s"},
      {"service.leases", count(f.leases), "count"},
      {"service.steals", count(f.steals), "count"},
      {"service.duplicate_samples", count(f.duplicates), "count"},
      {"backend.spawn_s", per_round(f.spawn_s), "s"},
      {"backend.child_s", per_round(f.child_s), "s"},
      {"backend.collect_s", per_round(f.collect_s), "s"},
      {"trace.overhead_pct",
       t.untraced_wall > 0 ? (t.traced_wall / t.untraced_wall - 1.0) * 100.0
                           : 0.0,
       "%"},
  };
}

int run_main(const Args& args) {
  const auto& defs = workload_defs();
  const auto def_it = std::find_if(
      defs.begin(), defs.end(),
      [&](const WorkloadDef& d) { return d.name == args.workload; });
  if (def_it == defs.end()) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const WorkloadDef& def = *def_it;
  std::filesystem::create_directories(args.scratch);
  const std::size_t pool_size = args.smoke ? 2 : def.pool;

  // Set-up: build every request's SweepPlan before the first request.  The
  // same build is repeated before the run and between requests (untimed
  // by the requests), so that setup_s, their median, samples the machine
  // over the whole run rather than one instant.
  std::vector<double> setups;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    std::vector<Request> pool = build_pool(def, args.seed, pool_size);
    setups.push_back(seconds_since(t0));
    return pool;
  };
  std::vector<Request> pool = set_up();
  for (std::size_t i = 1; i < kSetupRepeats && !args.smoke; ++i) {
    (void)set_up();
  }

  Runner runner(def, args);
  RunTotals totals;
  std::uint64_t next_index = pool_size;
  std::size_t requests = 0;
  // Whole rounds: at least one, and another only while it is expected to
  // end within --seconds (the last round's length is the estimate).
  const Clock::time_point start = Clock::now();
  double round_s = 0.0;
  do {
    const Clock::time_point round_start = Clock::now();
    for (Request& r : pool) {
      runner.run(r, next_index, totals);
      if (++requests % kSetupEvery == 0 && !args.smoke) (void)set_up();
    }
    ++totals.rounds;
    round_s = seconds_since(round_start);
  } while (!args.smoke && seconds_since(start) + round_s <= args.seconds);
  const double setup_s = median(setups);

  // About 1% of seeded paper-static requests hit the FTBAR fault; a program
  // that hits it on more than 5% of a pool has made the fault worse, and
  // leaving those requests out would hide it.
  ++totals.log.checked;
  if (totals.left_out > std::max<std::size_t>(1, pool_size / kMaxLeftOutPer)) {
    totals.log.fail(std::to_string(totals.left_out) + " of " +
                    std::to_string(pool_size) +
                    " seeded requests hit the FTBAR fault");
  }
  bool correct = totals.log.ok() && totals.log.checked > 0;
  for (const std::string& p : totals.log.problems) {
    std::cerr << "perfbench: CHECK FAILED: " << p << '\n';
  }
  if (totals.attempted == totals.failed) {
    std::cerr << "perfbench: no request completed\n";
    correct = false;
  }
  print_result(correct, totals,
               args.trace ? per_layer(totals, setup_s)
                          : end_to_end(def, totals, setup_s));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
