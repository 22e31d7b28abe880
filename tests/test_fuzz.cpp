// Fuzz-style property tests: random mutations of valid schedules must be
// caught by the validator; random graph serialization round trips; the
// shard, frame and service-message parsers reject truncated, oversized and
// garbled input with an ftsched::Error and nothing else; the umbrella
// header compiles and exposes the API.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "ftsched/ftsched.hpp"
#include "proptest.hpp"

namespace ftsched {
namespace {

std::unique_ptr<Workload> small_workload(std::uint64_t seed,
                                         std::size_t procs = 5,
                                         std::size_t tasks = 15) {
  Rng rng(seed);
  PaperWorkloadParams params;
  params.task_min = params.task_max = tasks;
  params.proc_count = procs;
  return make_paper_workload(rng, params);
}

/// Rebuilds a schedule from `s` applying `mutate` to the serialized
/// replica data, then reports whether validate() rejects it.
enum class Mutation {
  kShiftStartEarlier,   // replica starts before its inputs arrive
  kShrinkDuration,      // duration no longer matches E(t, P)
  kMoveToUsedProc,      // two replicas of one task on the same processor
  kDropChannel,         // a replica loses an inbound channel
  kOverlapOnProcessor,  // two replicas overlap on one processor
};

bool mutation_rejected(const ReplicatedSchedule& original,
                       const CostModel& costs, Mutation mutation, Rng& rng) {
  const TaskGraph& g = costs.graph();
  // Deep-copy replica and channel data.
  std::vector<std::vector<Replica>> replicas(g.task_count());
  for (TaskId t : g.tasks()) replicas[t.index()] = original.replicas(t);
  std::vector<std::vector<Channel>> channels(g.edge_count());
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    channels[e] = original.channels(e);
  }

  // Pick a random task with predecessors (most mutations need one).
  std::vector<TaskId> candidates;
  for (TaskId t : g.tasks()) {
    if (g.in_degree(t) > 0) candidates.push_back(t);
  }
  if (candidates.empty()) return true;  // nothing to mutate
  const TaskId victim = candidates[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(candidates.size()) - 1))];
  auto& reps = replicas[victim.index()];

  switch (mutation) {
    case Mutation::kShiftStartEarlier: {
      // Move the replica's whole slot well before time 0 arrivals allow;
      // keep duration consistent so only the precedence check can fire.
      Replica& r = reps[0];
      if (r.start <= 1e-9) return true;  // already at zero; skip
      const double shift = r.start;  // start at 0: inputs cannot be there
      r.start -= shift;
      r.finish -= shift;
      r.pess_start = std::max(r.pess_start - shift, r.start);
      r.pess_finish = r.pess_start + (r.finish - r.start);
      break;
    }
    case Mutation::kShrinkDuration: {
      Replica& r = reps[0];
      r.finish = r.start + 0.5 * (r.finish - r.start);
      r.pess_finish = std::max(r.pess_finish, r.finish);
      break;
    }
    case Mutation::kMoveToUsedProc: {
      if (reps.size() < 2) return true;
      reps[0].proc = reps[1].proc;  // Prop 4.1 violation
      break;
    }
    case Mutation::kDropChannel: {
      const auto in = g.in_edges(victim);
      const std::size_t e = in[0];
      auto& cs = channels[e];
      // Remove every channel into replica 0 of the victim.
      cs.erase(std::remove_if(cs.begin(), cs.end(),
                              [](const Channel& c) {
                                return c.dst_replica == 0;
                              }),
               cs.end());
      break;
    }
    case Mutation::kOverlapOnProcessor: {
      // Stretch replica 0 far enough to overlap the next slot on its
      // processor, keeping exec-duration mismatch out of the picture by
      // instead moving another replica of the same proc earlier.
      const ProcId p = reps[0].proc;
      // Find some other replica on p and slam it into reps[0]'s window.
      for (TaskId t : g.tasks()) {
        if (t == victim) continue;
        for (Replica& other : replicas[t.index()]) {
          if (other.proc == p) {
            const double duration = other.finish - other.start;
            other.start = reps[0].start;
            other.finish = other.start + duration;
            other.pess_start = std::max(other.pess_start, other.start);
            other.pess_finish =
                std::max(other.pess_finish, other.finish);
            goto mutated;
          }
        }
      }
      return true;  // no second replica on that processor; skip
    mutated:
      break;
    }
  }

  ReplicatedSchedule corrupted(costs, original.epsilon(), "fuzz");
  for (TaskId t : g.tasks()) {
    corrupted.place_task(t, replicas[t.index()]);
  }
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    corrupted.set_channels(e, channels[e]);
  }
  try {
    corrupted.validate();
    return false;  // mutation slipped through
  } catch (const Error&) {
    return true;
  }
}

class MutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationFuzz, ValidatorCatchesCorruptions) {
  const auto w = small_workload(GetParam());
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, GetParam()});
  Rng rng(GetParam() * 977);
  for (const Mutation mutation :
       {Mutation::kShiftStartEarlier, Mutation::kShrinkDuration,
        Mutation::kMoveToUsedProc, Mutation::kDropChannel,
        Mutation::kOverlapOnProcessor}) {
    for (int trial = 0; trial < 5; ++trial) {
      EXPECT_TRUE(mutation_rejected(s, w->costs(), mutation, rng))
          << "mutation " << static_cast<int>(mutation)
          << " not rejected (trial " << trial << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// Serialization fuzz: random graphs of every family round-trip exactly.
class SerializeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializeFuzz, GraphRoundTrips) {
  Rng rng(GetParam());
  std::vector<TaskGraph> graphs;
  {
    LayeredDagParams lp;
    lp.task_count = 30 + static_cast<std::size_t>(rng.uniform_int(0, 40));
    graphs.push_back(make_layered_dag(rng, lp));
    GnpDagParams gp;
    gp.task_count = 25;
    graphs.push_back(make_gnp_dag(rng, gp));
    graphs.push_back(make_series_parallel(rng, 40));
    graphs.push_back(make_cholesky(4));
    graphs.push_back(make_lu(3));
  }
  for (const TaskGraph& g : graphs) {
    const TaskGraph h = graph_from_string(graph_to_string(g));
    ASSERT_EQ(h.task_count(), g.task_count()) << g.name();
    ASSERT_EQ(h.edge_count(), g.edge_count()) << g.name();
    for (const Edge& e : g.edges()) {
      EXPECT_TRUE(h.has_edge(e.src, e.dst));
      EXPECT_DOUBLE_EQ(h.volume(e.src, e.dst), e.volume);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzz,
                         ::testing::Values(11u, 12u, 13u, 14u));

// Schedule round-trip fuzz across algorithms and epsilons.
class ScheduleIoFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleIoFuzz, AllAlgorithmsRoundTrip) {
  const auto w = small_workload(GetParam());
  std::vector<ReplicatedSchedule> schedules;
  schedules.push_back(ftsa_schedule(w->costs(), FtsaOptions{2, GetParam()}));
  schedules.push_back(
      mc_ftsa_schedule(w->costs(), McFtsaOptions{1, GetParam()}));
  FtbarOptions bo;
  bo.npf = 1;
  bo.seed = GetParam();
  schedules.push_back(ftbar_schedule(w->costs(), bo));
  schedules.push_back(heft_schedule(w->costs()));
  schedules.push_back(cpop_schedule(w->costs()));
  for (const ReplicatedSchedule& s : schedules) {
    const auto reloaded =
        schedule_from_string(schedule_to_string(s), w->costs());
    EXPECT_DOUBLE_EQ(reloaded.lower_bound(), s.lower_bound())
        << s.algorithm();
    EXPECT_DOUBLE_EQ(reloaded.upper_bound(), s.upper_bound())
        << s.algorithm();
    EXPECT_EQ(reloaded.channel_count(), s.channel_count()) << s.algorithm();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleIoFuzz,
                         ::testing::Values(21u, 22u, 23u, 24u));

// ------------------------------------------------- wire and shard parsers

/// Uniform draw from {0, ..., n-1}.
std::size_t below(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// Tokens that stress the flat-JSON grammar and the number parsers.
const std::vector<std::string>& hostile_tokens() {
  static const std::vector<std::string> tokens = {
      "\"", "\\", "\\u0000", "{", "}", ":", ",", "\n", "\r\n", " ", ";",
      "-", "+", "-1", "0x", "0x1p99999", "-0x1.8p+1", "nan", "inf", "1e400",
      "18446744073709551616", "99999999999999999999999", "\"\":\"\"",
      std::string(1, '\0'), "\xff\xfe", "\"series\":", "\"n\":\"0\""};
  return tokens;
}

/// One random corruption of `text`: truncation, garbled bytes, a dropped
/// or duplicated span, a hostile token, or an oversized run.
std::string corrupt(const std::string& text, Rng& rng) {
  std::string out = text;
  const std::size_t at = below(rng, out.size() + 1);
  switch (below(rng, 6)) {
    case 0:  // truncated
      out.resize(at);
      break;
    case 1:  // garbled bytes
      for (std::size_t i = 0, n = 1 + below(rng, 8); i < n && !out.empty();
           ++i) {
        out[below(rng, out.size())] = static_cast<char>(below(rng, 256));
      }
      break;
    case 2:  // a span dropped
      out.erase(at, below(rng, 40));
      break;
    case 3:  // a span duplicated
      out.insert(at, out.substr(at, below(rng, 60)));
      break;
    case 4: {  // a hostile token
      const auto& tokens = hostile_tokens();
      out.insert(at, tokens[below(rng, tokens.size())]);
      break;
    }
    default:  // an oversized run of one byte
      out.insert(at, std::string(1000 + below(rng, 200000),
                                 "9a\"{,;\\"[below(rng, 7)]));
      break;
  }
  return out;
}

/// Runs `parse` on corrupted input: it may succeed, or throw an
/// ftsched::Error; any other exception is a parser defect (a crash is
/// the sanitizer build's to catch).
template <typename Parse>
void expect_clean_outcome(const std::string& input, Parse&& parse) {
  try {
    parse(input);
  } catch (const Error&) {
    // rejected with a diagnostic: fine
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-ftsched exception " << typeid(e).name() << ": "
                  << e.what();
  }
}

/// The shard stream of a tiny two-policy grid: a header line plus records.
const std::string& valid_shard_text() {
  static const std::string text = [] {
    FigureConfig config = figure_config(1);
    config.granularities = {0.6, 1.2};
    config.graphs_per_point = 1;
    config.proc_count = 5;
    config.workload.proc_count = 5;
    config.workload.task_min = config.workload.task_max = 12;
    config.threads = 1;
    config.failure_models = {"repair:p=0.4,mttr=0.5"};
    config.policies = {"none", "requeue-heft"};
    const SweepPlan plan(config);
    std::ostringstream os;
    ShardWriterSink sink(os, plan);
    run_plan(plan, sink);
    return os.str();
  }();
  return text;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(ParserFuzz, ShardStreamsAndRecordsRejectCorruptInput) {
  const std::string& valid = valid_shard_text();
  const std::vector<std::string> lines = lines_of(valid);
  ASSERT_GT(lines.size(), 2u);
  {
    std::istringstream in(valid);
    EXPECT_EQ(read_shard(in, "valid").records.size(), lines.size() - 1);
  }
  proptest::check(
      "corrupted shard streams and record lines throw ftsched::Error or "
      "parse",
      [&](Rng& rng, std::uint64_t) {
        std::string text = valid;
        for (std::size_t i = 0, n = 1 + below(rng, 3); i < n; ++i) {
          text = corrupt(text, rng);
        }
        expect_clean_outcome(text, [](const std::string& t) {
          std::istringstream in(t);
          (void)read_shard(in, "fuzz");
        });
        const std::string line = corrupt(lines[below(rng, lines.size())], rng);
        expect_clean_outcome(line, [](const std::string& l) {
          (void)parse_shard_record(l, "fuzz");
        });
      },
      {.iterations = 400});
}

/// Length-prefixed framing as util/net.hpp puts it on the wire.
std::string frame(const std::string& payload) {
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((n >> shift) & 0xffu));
  }
  return out + payload;
}

/// The messages a coordinator and a worker exchange, one of each kind,
/// with real shard records in the sample frame.
std::vector<std::string> valid_service_payloads() {
  const std::vector<std::string> records = lines_of(valid_shard_text());
  std::string sample = msg_sample_head(7, 3);
  for (std::size_t i = 1; i < std::min<std::size_t>(records.size(), 6); ++i) {
    sample += "\n" + records[i];
  }
  return {msg_hello("w1"),
          msg_plan({"--figure", "1", "--graphs", "2"}, "0/1", "abc", true),
          msg_ready("abc"),
          msg_lease_request(),
          msg_lease(7, {0, 3, 11}),
          sample,
          msg_done(7),
          msg_heartbeat(),
          msg_reject("fingerprint mismatch"),
          msg_bye()};
}

TEST(ParserFuzz, FrameDecoderRejectsOversizedAndSurvivesGarbage) {
  const std::vector<std::string> payloads = valid_service_payloads();
  std::string stream;
  for (const std::string& p : payloads) stream += frame(p);
  {
    // Byte-at-a-time delivery reassembles every frame exactly.
    FrameDecoder decoder;
    std::vector<std::string> got;
    std::string payload;
    for (const char c : stream) {
      decoder.feed(&c, 1);
      while (decoder.next(payload)) got.push_back(payload);
    }
    EXPECT_EQ(got, payloads);
    EXPECT_FALSE(decoder.mid_frame());
  }
  {
    FrameDecoder decoder;
    const std::string huge = "\xff\xff\xff\xff";
    decoder.feed(huge.data(), huge.size());
    std::string payload;
    EXPECT_THROW((void)decoder.next(payload), Error);
  }
  proptest::check(
      "a corrupted frame stream decodes, waits, or throws ftsched::Error",
      [&](Rng& rng, std::uint64_t) {
        const std::string input = corrupt(stream, rng);
        expect_clean_outcome(input, [&rng](const std::string& in) {
          FrameDecoder decoder;
          std::string payload;
          std::size_t pos = 0;
          while (pos < in.size()) {
            const std::size_t n =
                std::min(in.size() - pos, 1 + below(rng, 300));
            decoder.feed(in.data() + pos, n);
            pos += n;
            while (decoder.next(payload)) {
              EXPECT_LE(payload.size(), kMaxNetFrameBytes);
            }
          }
        });
      },
      {.iterations = 400});
}

TEST(ParserFuzz, ServiceMessagesRejectCorruptInput) {
  const std::vector<std::string> payloads = valid_service_payloads();
  for (const std::string& p : payloads) {
    const ServiceMessage msg = parse_service_message(p, "valid");
    EXPECT_FALSE(msg.type.empty()) << p;
  }
  proptest::check(
      "corrupted service messages throw ftsched::Error or parse",
      [&](Rng& rng, std::uint64_t) {
        const std::string input =
            corrupt(payloads[below(rng, payloads.size())], rng);
        expect_clean_outcome(input, [](const std::string& in) {
          const ServiceMessage msg = parse_service_message(in, "fuzz");
          // What the coordinator and worker read next off each kind.
          if (msg.type == "lease") {
            (void)parse_index_list(msg.field("ks"), "fuzz");
          }
          for (const std::string& line : msg.record_lines) {
            (void)parse_shard_record(line, "fuzz");
          }
        });
      },
      {.iterations = 400});
}

}  // namespace
}  // namespace ftsched
