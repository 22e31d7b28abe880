#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>

namespace perfbench {

using namespace ftsched;

namespace {

constexpr double kRelTol = 1e-9;

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void word(std::uint64_t w) { bytes(&w, sizeof w); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

bool close(double a, double b) {
  return std::fabs(a - b) <= kRelTol * std::max(1.0, std::fabs(b));
}

bool at_most(double a, double b) {
  return a <= b + kRelTol * std::max(1.0, std::fabs(b));
}

const double* find(const SeriesSample& s, const std::string& name) {
  const auto it = s.find(name);
  return it == s.end() ? nullptr : &it->second;
}

std::string where(const InstanceCoord& c) {
  return "instance " + std::to_string(c.id);
}

}  // namespace

void check_delivery(const SweepPlan& plan,
                    const std::vector<Delivered>& samples, CheckLog& log) {
  ++log.checked;
  if (samples.size() != plan.size()) {
    log.fail("sink received " + std::to_string(samples.size()) +
             " samples, plan has " + std::to_string(plan.size()));
    return;
  }
  for (std::size_t k = 0; k < samples.size(); ++k) {
    ++log.checked;
    if (samples[k].coord.id != plan.coord(k).id ||
        (k > 0 && samples[k].coord.id <= samples[k - 1].coord.id)) {
      log.fail("sample " + std::to_string(k) + " arrived out of id order (" +
               where(samples[k].coord) + ")");
      return;
    }
  }
}

void check_aggregation(const SweepPlan& plan,
                       const std::vector<Delivered>& samples,
                       const SweepResult& result, CheckLog& log) {
  struct Sum {
    std::size_t n = 0;
    double total = 0.0;
  };
  std::map<std::pair<std::string, std::size_t>, Sum> sums;
  for (const Delivered& d : samples) {
    for (const auto& [name, value] : d.sample) {
      Sum& s = sums[{plan.series_label(d.coord, name), d.coord.gran}];
      ++s.n;
      s.total += value;
    }
  }
  std::size_t cells = 0;
  for (const auto& [label, column] : result.series) {
    for (std::size_t g = 0; g < column.size(); ++g) {
      if (column[g].count() == 0) continue;
      ++cells;
      ++log.checked;
      const auto it = sums.find({label, g});
      if (it == sums.end()) {
        log.fail("aggregate " + label + "[" + std::to_string(g) +
                 "] has no delivered sample");
        continue;
      }
      const double mean = it->second.total / static_cast<double>(it->second.n);
      if (column[g].count() != it->second.n || !close(column[g].mean(), mean)) {
        log.fail("aggregate " + label + "[" + std::to_string(g) + "]: n=" +
                 std::to_string(column[g].count()) + " mean=" +
                 std::to_string(column[g].mean()) + ", recomputed n=" +
                 std::to_string(it->second.n) + " mean=" +
                 std::to_string(mean));
      }
    }
  }
  if (cells != sums.size()) {
    log.fail("program aggregated " + std::to_string(cells) +
             " (series, granularity) cells, samples give " +
             std::to_string(sums.size()));
  }
}

void check_properties(const SweepPlan& plan,
                      const std::vector<Delivered>& samples, CheckLog& log) {
  const std::size_t eps = plan.config().epsilon;
  const std::string eps_crash = "-" + std::to_string(eps) + "Crash";
  for (const Delivered& d : samples) {
    if (plan.policies()[d.coord.policy] != "none") continue;
    const SeriesSample& s = d.sample;
    for (const std::string algo : {"FTSA", "MC-FTSA", "FTBAR"}) {
      const double* lower = find(s, algo + "-LowerBound");
      const double* upper = find(s, algo + "-UpperBound");
      if (lower == nullptr || upper == nullptr) {
        log.fail(where(d.coord) + " lacks the " + algo + " bounds");
        continue;
      }
      ++log.checked;
      if (!at_most(*lower, *upper)) {
        log.fail(where(d.coord) + ": " + algo + " M* > M");
      }
      if (const double* crash = find(s, algo + eps_crash)) {
        ++log.checked;
        if (!at_most(*crash, *upper)) {
          log.fail(where(d.coord) + ": " + algo + eps_crash +
                   " latency exceeds M (Prop. 4.2)");
        }
      }
      const double* drawn = find(s, "DrawnCrashes");
      const double* success = find(s, algo + "-Success");
      if (drawn != nullptr && success != nullptr &&
          *drawn <= static_cast<double>(eps)) {
        ++log.checked;
        if (*success != 1.0) {
          log.fail(where(d.coord) + ": " + algo +
                   " failed with at most epsilon crashes (Thm 4.1)");
        }
      }
    }
    const double* zero = find(s, "FTSA-0Crash");
    const double* lower = find(s, "FTSA-LowerBound");
    if (zero == nullptr || lower == nullptr) {
      log.fail(where(d.coord) + " lacks FTSA-0Crash");
      continue;
    }
    ++log.checked;
    if (!close(*zero, *lower)) {
      log.fail(where(d.coord) + ": FTSA 0-crash latency differs from M*");
    }
  }
}

void check_policy_pairing(const SweepPlan& plan,
                          const std::vector<Delivered>& samples,
                          CheckLog& log) {
  using Key = std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                         std::size_t>;
  std::map<Key, double> drawn_of;
  for (const Delivered& d : samples) {
    const InstanceCoord& c = d.coord;
    const double* drawn = find(d.sample, "DrawnCrashes");
    if (drawn == nullptr) {
      log.fail(where(c) + " lacks DrawnCrashes");
      continue;
    }
    const auto [it, fresh] = drawn_of.try_emplace(
        Key{c.workload, c.scenario, c.failure, c.gran, c.rep}, *drawn);
    if (!fresh) {
      ++log.checked;
      if (std::bit_cast<std::uint64_t>(it->second) !=
          std::bit_cast<std::uint64_t>(*drawn)) {
        log.fail(where(c) + ": policy " + plan.policies()[c.policy] +
                 " drew a different crash count than its paired rows");
      }
    }
    if (plan.policies()[c.policy] != "none") continue;
    for (const std::string algo : {"FTSA", "MC-FTSA", "FTBAR"}) {
      ++log.checked;
      const double* moves = find(d.sample, algo + "-Moves");
      if (moves != nullptr && *moves != 0.0) {
        log.fail(where(c) + ": policy none moved " + algo + " replicas");
      }
    }
  }
}

std::uint64_t digest(const std::string& text) {
  Fnv1a h;
  h.bytes(text.data(), text.size());
  return h.value();
}

std::uint64_t digest(const std::vector<Delivered>& samples) {
  Fnv1a h;
  for (const Delivered& d : samples) {
    h.word(d.coord.id);
    for (const auto& [name, value] : d.sample) {
      h.bytes(name.data(), name.size() + 1);  // with the terminator
      h.word(std::bit_cast<std::uint64_t>(value));
    }
  }
  return h.value();
}

void check_identical(const std::vector<Delivered>& expected,
                     const std::vector<Delivered>& actual, CheckLog& log) {
  ++log.checked;
  if (expected.size() != actual.size()) {
    log.fail("traced run delivered " + std::to_string(actual.size()) +
             " samples, untraced " + std::to_string(expected.size()));
    return;
  }
  for (std::size_t k = 0; k < expected.size(); ++k) {
    const SeriesSample& a = expected[k].sample;
    const SeriesSample& b = actual[k].sample;
    bool same = expected[k].coord.id == actual[k].coord.id &&
                a.size() == b.size();
    for (auto ia = a.begin(), ib = b.begin(); same && ia != a.end();
         ++ia, ++ib) {
      same = ia->first == ib->first &&
             std::bit_cast<std::uint64_t>(ia->second) ==
                 std::bit_cast<std::uint64_t>(ib->second);
    }
    ++log.checked;
    if (!same) {
      log.fail("traced sample " + std::to_string(k) + " (" +
               where(expected[k].coord) + ") differs from run_plan's");
      return;
    }
  }
}

}  // namespace perfbench
