#include "ftsched/util/stats.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>

#include "ftsched/util/error.hpp"

namespace ftsched {

OnlineStats OnlineStats::of(double x) noexcept {
  OnlineStats s;
  s.n_ = 1;
  s.mean_ = x;
  s.m2_ = 0.0;
  s.min_ = s.max_ = x;
  return s;
}

OnlineStats OnlineStats::from_parts(std::size_t count, double mean, double m2,
                                    double min, double max) noexcept {
  if (count == 0) return {};
  OnlineStats s;
  s.n_ = count;
  s.mean_ = mean;
  s.m2_ = m2;
  s.min_ = min;
  s.max_ = max;
  return s;
}

void OnlineStats::add(double x) noexcept {
  // Deliberately routed through merge(): sequential adds and a
  // coordinate-ordered merge of single-sample accumulators must agree
  // bit-for-bit (the sharded-sweep contract, see stats.hpp).
  merge(of(x));
}

double OnlineStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double OnlineStats::ci95_halfwidth() const noexcept {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n = n_ + other.n_;
  const double delta = other.mean_ - mean_;
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  mean_ += delta * nb / static_cast<double>(n);
  m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ = n;
}

std::string double_to_hex(double x) {
  // std::to_chars is locale-independent (snprintf("%a")/strtod are not:
  // a host locale with a ',' radix would corrupt the shard protocol).
  char buffer[64];
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), x, std::chars_format::hex);
  FTSCHED_ASSERT(result.ec == std::errc{}, "to_chars buffer too small");
  std::string digits(buffer, result.ptr);
  if (!std::isfinite(x)) return digits;  // "inf" / "-inf" / "nan"
  if (digits.front() == '-') return "-0x" + digits.substr(1);
  return "0x" + digits;
}

double hex_to_double(const std::string& text) {
  FTSCHED_REQUIRE(!text.empty(), "empty float literal");
  std::string_view body = text;
  const bool negative = body.front() == '-';
  if (negative || body.front() == '+') body.remove_prefix(1);
  if (body.size() >= 2 && body[0] == '0' && (body[1] == 'x' || body[1] == 'X')) {
    body.remove_prefix(2);
  }
  double value = 0.0;
  const auto result = std::from_chars(body.data(), body.data() + body.size(),
                                      value, std::chars_format::hex);
  // from_chars takes a '-' of its own: "0x-1p+0" must not read as -1.
  FTSCHED_REQUIRE(
      result.ec == std::errc{} && result.ptr == body.data() + body.size() &&
          body.front() != '-',
      "malformed hex-float literal: '" + text + "'");
  return negative ? -value : value;
}

double percentile_sorted(const std::vector<double>& sorted,
                         double q) noexcept {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(std::vector<double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  OnlineStats acc;
  for (double x : xs) acc.add(x);
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.min = xs.front();
  s.max = xs.back();
  s.p25 = percentile_sorted(xs, 0.25);
  s.median = percentile_sorted(xs, 0.50);
  s.p75 = percentile_sorted(xs, 0.75);
  return s;
}

}  // namespace ftsched
