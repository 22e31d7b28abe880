// Output checks of the sweep-request benchmark.  Each recomputes something
// from the samples the benchmark's own sink received, independently of the
// program's aggregation, or checks a property the paper proves; none
// compares against a stored copy of earlier output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Collects failed checks; `checked` counts the individual comparisons made
/// so that a check which matched nothing cannot pass silently.
struct CheckLog {
  std::vector<std::string> problems;
  std::size_t checked = 0;

  void fail(std::string what) {
    if (problems.size() < 20) problems.push_back(std::move(what));
    else if (problems.size() == 20) problems.push_back("(more problems)");
  }
  [[nodiscard]] bool ok() const noexcept { return problems.empty(); }
};

/// Exactly plan.size() samples, in increasing id order, each the plan's
/// k-th selected coordinate.
void check_delivery(const ftsched::SweepPlan& plan,
                    const std::vector<Delivered>& samples, CheckLog& log);

/// Recomputes every aggregated count and mean from the delivered samples
/// and compares them with the program's SweepResult.
void check_aggregation(const ftsched::SweepPlan& plan,
                       const std::vector<Delivered>& samples,
                       const ftsched::SweepResult& result, CheckLog& log);

/// Properties of the method on every static-policy sample: the ε-crash
/// latency is at most M (Prop. 4.2), M* <= M, FTSA's 0-crash latency is
/// M*, and Success is 1 whenever at most ε crashes were drawn (Thm 4.1).
void check_properties(const ftsched::SweepPlan& plan,
                      const std::vector<Delivered>& samples, CheckLog& log);

/// Policy rows of one instance saw the same draw (DrawnCrashes agree) and
/// `none` made no moves.
void check_policy_pairing(const ftsched::SweepPlan& plan,
                          const std::vector<Delivered>& samples,
                          CheckLog& log);

/// FNV-1a digests: of a CSV's bytes, and of a sample stream (ids, series
/// names and the bits of every double), so two runs can be compared
/// byte for byte without keeping either.
[[nodiscard]] std::uint64_t digest(const std::string& text);
[[nodiscard]] std::uint64_t digest(const std::vector<Delivered>& samples);

/// The two sample streams are identical, coordinates and doubles bit for
/// bit.
void check_identical(const std::vector<Delivered>& expected,
                     const std::vector<Delivered>& actual, CheckLog& log);

}  // namespace perfbench
