// Property tests for OnlineStats aggregation and its lossless hex-float
// serialization — the two primitives the sharded-sweep job protocol is
// built on (experiments/sweep_io.hpp):
//
//   * add(x) == merge(of(x)) bit-exactly, so merging single-sample
//     accumulators in coordinate order reproduces sequential aggregation
//     down to the last ulp, for ANY partition of the samples into shards;
//   * merge() is associative (exactly on count/min/max; to rounding on
//     mean/M2 — floating-point Chan merge is only approximately
//     associative, which is exactly why the merge tool restores the
//     canonical coordinate order instead of merging in file order);
//   * double_to_hex / hex_to_double round-trip every double bit-exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ftsched/util/error.hpp"
#include "ftsched/util/stats.hpp"
#include "proptest.hpp"

namespace ftsched {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Exact state equality: the comparison the shard-merge contract is about.
void expect_bit_identical(const OnlineStats& a, const OnlineStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(bits(a.mean()), bits(b.mean()));
  EXPECT_EQ(bits(a.m2()), bits(b.m2()));
  EXPECT_EQ(bits(a.min()), bits(b.min()));
  EXPECT_EQ(bits(a.max()), bits(b.max()));
}

/// A value stream with awkward magnitudes mixed in.
double draw_value(Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return rng.uniform(-1e12, 1e12);
    case 1: return rng.uniform(-1e-9, 1e-9);
    case 2: return rng.exponential(0.3);
    case 3: return -rng.exponential(2.0);
    case 4: return static_cast<double>(rng.uniform_int(-5, 5));
    default: return rng.uniform(-5, 5);
  }
}

TEST(StatsProperty, AddIsMergeOfSingleton) {
  proptest::check("add(x) == merge(of(x)), bit-exactly, at every prefix",
                  [](Rng& rng, std::uint64_t) {
                    OnlineStats added;
                    OnlineStats merged;
                    const auto n =
                        static_cast<std::size_t>(rng.uniform_int(1, 60));
                    for (std::size_t i = 0; i < n; ++i) {
                      const double x = draw_value(rng);
                      added.add(x);
                      merged.merge(OnlineStats::of(x));
                      expect_bit_identical(added, merged);
                    }
                  });
}

TEST(StatsProperty, CoordinateOrderMergeMatchesSequentialAnyPartition) {
  // The shard-merge theorem at the stats level: deal a sample stream
  // round-robin onto k "shards" as singleton accumulators, then merge the
  // singletons back in original (coordinate) order — bit-identical to
  // sequential adds no matter how the stream was partitioned.
  proptest::check(
      "ordered singleton merge == sequential add for any round-robin "
      "partition",
      [](Rng& rng, std::uint64_t) {
        const auto n = static_cast<std::size_t>(rng.uniform_int(1, 80));
        const auto shards = static_cast<std::size_t>(rng.uniform_int(1, 7));
        std::vector<double> stream;
        OnlineStats whole;
        for (std::size_t i = 0; i < n; ++i) {
          stream.push_back(draw_value(rng));
          whole.add(stream.back());
        }
        // Shard s holds the singletons of indices i with i % shards == s;
        // the merge walks indices 0..n-1 and pulls each from its shard.
        std::vector<std::vector<OnlineStats>> per_shard(shards);
        for (std::size_t i = 0; i < n; ++i) {
          per_shard[i % shards].push_back(OnlineStats::of(stream[i]));
        }
        OnlineStats merged;
        std::vector<std::size_t> cursor(shards, 0);
        for (std::size_t i = 0; i < n; ++i) {
          merged.merge(per_shard[i % shards][cursor[i % shards]++]);
        }
        expect_bit_identical(whole, merged);
      });
}

TEST(StatsProperty, MergeAssociative) {
  proptest::check(
      "merge is associative: exact on count/min/max, to rounding on "
      "mean/variance",
      [](Rng& rng, std::uint64_t) {
        OnlineStats a, b, c;
        for (OnlineStats* s : {&a, &b, &c}) {
          const auto n = static_cast<std::size_t>(rng.uniform_int(0, 30));
          for (std::size_t i = 0; i < n; ++i) s->add(rng.uniform(-100, 100));
        }
        OnlineStats left = a;   // (a ⊕ b) ⊕ c
        left.merge(b);
        left.merge(c);
        OnlineStats bc = b;     // a ⊕ (b ⊕ c)
        bc.merge(c);
        OnlineStats right = a;
        right.merge(bc);
        EXPECT_EQ(left.count(), right.count());
        EXPECT_EQ(bits(left.min()), bits(right.min()));
        EXPECT_EQ(bits(left.max()), bits(right.max()));
        if (left.count() == 0) return;
        EXPECT_NEAR(left.mean(), right.mean(),
                    1e-12 * (1.0 + std::abs(left.mean())));
        EXPECT_NEAR(left.variance(), right.variance(),
                    1e-9 * (1.0 + left.variance()));
      });
}

TEST(StatsProperty, HexFloatRoundTripsBitExactly) {
  proptest::check("hex_to_double(double_to_hex(x)) == x, bit-exactly",
                  [](Rng& rng, std::uint64_t) {
                    for (int i = 0; i < 8; ++i) {
                      // Uniform over bit patterns covers denormals, huge
                      // and tiny magnitudes, both signs; skip NaNs (no
                      // bit-stable text form, and stats never produce
                      // them from finite samples).
                      const double x = std::bit_cast<double>(rng());
                      if (std::isnan(x)) continue;
                      EXPECT_EQ(bits(hex_to_double(double_to_hex(x))),
                                bits(x))
                          << double_to_hex(x);
                    }
                  });
}

TEST(Stats, HexFloatSpecialValues) {
  for (double x :
       {0.0, -0.0, 1.0, -1.0, 1.0 / 3.0, std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(bits(hex_to_double(double_to_hex(x))), bits(x))
        << double_to_hex(x);
  }
  EXPECT_THROW((void)hex_to_double(""), InvalidArgument);
  EXPECT_THROW((void)hex_to_double("0x1.8p+1 trailing"), InvalidArgument);
  EXPECT_THROW((void)hex_to_double("not-a-float"), InvalidArgument);
  // A second sign after the first one or after "0x" is not a literal.
  for (const char* bad : {"-0x-1p+0", "0x-1p+0", "+-1p+0", "--inf", "-"}) {
    EXPECT_THROW((void)hex_to_double(bad), InvalidArgument) << bad;
  }
}

TEST(StatsProperty, FromPartsRoundTripsAccumulatorState) {
  proptest::check("from_parts(count, mean, m2, min, max) inverts the "
                  "accessors bit-exactly",
                  [](Rng& rng, std::uint64_t) {
                    OnlineStats s;
                    const auto n =
                        static_cast<std::size_t>(rng.uniform_int(0, 40));
                    for (std::size_t i = 0; i < n; ++i) s.add(draw_value(rng));
                    const OnlineStats back = OnlineStats::from_parts(
                        s.count(), s.mean(), s.m2(), s.min(), s.max());
                    expect_bit_identical(s, back);
                  });
}

TEST(Stats, FromPartsEmptyIgnoresFields) {
  const OnlineStats s = OnlineStats::from_parts(0, 3.0, 4.0, 5.0, 6.0);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.m2(), 0.0);
}

}  // namespace
}  // namespace ftsched
