// Perf-smoke regression gate over bench_sweep_cells' BENCH_sweep.json.
//
//   bench_gate <fresh.json> <baseline.json> [min_speedup_ratio]
//
// Compares a fresh bench record against the checked-in baseline
// (tests/perf/BENCH_sweep_baseline.json) and fails the build when the
// engine regressed:
//
//  * the two records must describe the same grid (seed, cell counts,
//    granularities, graphs/point, instances) — otherwise the comparison is
//    meaningless and the baseline needs regenerating;
//  * the fresh run must be bit-identical (grouped == ungrouped) — this
//    doubles the bench's own exit-2 guard;
//  * simulations_run / dedupe_hits must match the baseline *exactly*: the
//    counters are deterministic for a fixed grid whatever the thread count
//    or machine, so any drift means the dedupe or draw logic changed;
//    dedupe_hits must also be positive (the cache must actually fire);
//  * the policy row (policy_* keys: a 3-policy grid) must describe the same
//    grid, be bit-identical too, and match its online_runs / moves /
//    static counters exactly — they are as deterministic as the above;
//  * the grouped-vs-ungrouped speedup — a wall-time *ratio*, so largely
//    machine-independent — must be at least `min_speedup_ratio` (default
//    0.5) of the baseline's: a halved speedup on a quiet runner is a real
//    regression, while normal CI noise passes;
//  * the grouped policy grid may cost at most kMaxPolicyStaticRatio times
//    the grouped static grid per instance — another same-run wall-time
//    ratio, and the online path's target.
//
// Exit 0 = gate passed, 1 = usage/IO error, 3 = regression detected.
#include <charconv>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

namespace {

/// Bound on (policy_grouped_seconds / policy_instances) /
/// (grouped_seconds / instances).
constexpr double kMaxPolicyStaticRatio = 2.0;

/// Minimal scanner for the one-line flat JSON bench_sweep_cells emits:
/// string keys, values either bare tokens (numbers, true/false) or quoted
/// strings.  Strict enough to reject truncated files loudly.
std::map<std::string, std::string> parse_flat(const std::string& text,
                                              const std::string& name) {
  std::map<std::string, std::string> out;
  std::size_t i = 0;
  const auto fail = [&](const std::string& why) -> void {
    std::cerr << "bench_gate: " << name << ": malformed JSON: " << why << "\n";
    std::exit(1);
  };
  const auto skip = [&] {
    while (i < text.size() &&
           (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' ||
            text[i] == '\r')) {
      ++i;
    }
  };
  const auto string_token = [&]() -> std::string {
    if (i >= text.size() || text[i] != '"') fail("expected '\"'");
    ++i;
    std::string s;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\') ++i;
      if (i < text.size()) s.push_back(text[i]);
      ++i;
    }
    if (i >= text.size()) fail("unterminated string");
    ++i;
    return s;
  };
  skip();
  if (i >= text.size() || text[i] != '{') fail("expected '{'");
  ++i;
  while (true) {
    skip();
    const std::string key = string_token();
    skip();
    if (i >= text.size() || text[i] != ':') fail("expected ':'");
    ++i;
    skip();
    std::string value;
    if (i < text.size() && text[i] == '"') {
      value = string_token();
    } else {
      while (i < text.size() && text[i] != ',' && text[i] != '}') {
        value.push_back(text[i]);
        ++i;
      }
    }
    out[key] = value;
    skip();
    if (i >= text.size()) fail("unterminated object");
    if (text[i] == '}') break;
    if (text[i] != ',') fail("expected ',' or '}'");
    ++i;
  }
  return out;
}

std::map<std::string, std::string> load(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::cerr << "bench_gate: cannot open " << path << "\n";
    std::exit(1);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_flat(buffer.str(), path);
}

const std::string& field(const std::map<std::string, std::string>& record,
                         const std::string& key, const std::string& name) {
  const auto it = record.find(key);
  if (it == record.end()) {
    std::cerr << "bench_gate: " << name << ": missing key '" << key << "'\n";
    std::exit(1);
  }
  return it->second;
}

/// Locale-independent double parse (the record renders with '.' always).
double number(const std::map<std::string, std::string>& record,
              const std::string& key, const std::string& name) {
  const std::string& text = field(record, key, name);
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    std::cerr << "bench_gate: " << name << ": key '" << key
              << "' is not a number: '" << text << "'\n";
    std::exit(1);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3 || argc > 4) {
    std::cerr << "usage: bench_gate <fresh.json> <baseline.json>"
                 " [min_speedup_ratio]\n";
    return 1;
  }
  const std::string fresh_path = argv[1];
  const std::string base_path = argv[2];
  double min_ratio = 0.5;
  if (argc == 4) {
    const std::string arg = argv[3];
    const auto [ptr, ec] =
        std::from_chars(arg.data(), arg.data() + arg.size(), min_ratio);
    if (ec != std::errc{} || ptr != arg.data() + arg.size() ||
        min_ratio <= 0.0) {
      std::cerr << "bench_gate: bad min_speedup_ratio '" << arg << "'\n";
      return 1;
    }
  }

  const auto fresh = load(fresh_path);
  const auto base = load(base_path);
  int failures = 0;
  const auto flag = [&](const std::string& what) {
    std::cerr << "bench_gate: REGRESSION: " << what << "\n";
    ++failures;
  };

  // Same grid, or the comparison is meaningless.
  for (const char* key : {"bench", "figure", "workloads", "scenarios",
                          "failures", "granularities", "graphs_per_point",
                          "instances", "seed", "policy_policies",
                          "policy_failures", "policy_scenarios",
                          "policy_instances"}) {
    const std::string& got = field(fresh, key, fresh_path);
    const std::string& want = field(base, key, base_path);
    if (got != want) {
      std::cerr << "bench_gate: grid mismatch on '" << key << "': fresh="
                << got << " baseline=" << want
                << " (regenerate the baseline if the bench grid changed)\n";
      return 1;
    }
  }

  if (field(fresh, "identical", fresh_path) != "true") {
    flag("grouped sweep diverged from the ungrouped path");
  }
  if (field(fresh, "policy_identical", fresh_path) != "true") {
    flag("grouped policy sweep diverged from the ungrouped path");
  }

  // Deterministic counters: exact match, any drift is a logic change.
  for (const char* key :
       {"simulations_run", "dedupe_hits", "policy_online_runs",
        "policy_moves", "policy_simulations_run", "policy_dedupe_hits"}) {
    const std::string& got = field(fresh, key, fresh_path);
    const std::string& want = field(base, key, base_path);
    if (got != want) {
      flag(std::string(key) + " drifted: fresh=" + got + " baseline=" + want);
    }
  }
  if (number(fresh, "dedupe_hits", fresh_path) <= 0.0) {
    flag("dedupe cache never fired (dedupe_hits == 0)");
  }

  const double fresh_speedup = number(fresh, "speedup", fresh_path);
  const double base_speedup = number(base, "speedup", base_path);
  const double floor = base_speedup * min_ratio;
  if (fresh_speedup < floor) {
    std::ostringstream msg;
    msg << "grouped speedup " << fresh_speedup << "x fell below " << floor
        << "x (baseline " << base_speedup << "x * ratio " << min_ratio << ")";
    flag(msg.str());
  }

  const double policy_static_ratio =
      (number(fresh, "policy_grouped_seconds", fresh_path) /
       number(fresh, "policy_instances", fresh_path)) /
      (number(fresh, "grouped_seconds", fresh_path) /
       number(fresh, "instances", fresh_path));
  if (!(policy_static_ratio <= kMaxPolicyStaticRatio)) {
    std::ostringstream msg;
    msg << "grouped policy grid costs " << policy_static_ratio
        << "x the grouped static grid per instance (bound "
        << kMaxPolicyStaticRatio << "x)";
    flag(msg.str());
  }

  if (failures != 0) {
    std::cerr << "bench_gate: " << failures << " check(s) failed\n";
    return 3;
  }
  std::cout << "bench_gate: OK — speedup " << fresh_speedup
            << "x (baseline " << base_speedup << "x, floor " << floor
            << "x), simulations_run=" << field(fresh, "simulations_run", fresh_path)
            << ", dedupe_hits=" << field(fresh, "dedupe_hits", fresh_path)
            << ", policy_online_runs="
            << field(fresh, "policy_online_runs", fresh_path)
            << ", policy/static " << policy_static_ratio << "x (bound "
            << kMaxPolicyStaticRatio << "x), bit-identical\n";
  return 0;
}
