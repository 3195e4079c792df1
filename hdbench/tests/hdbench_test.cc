// Tests of the benchmark's own pieces: statistics, renamings, reply checks.
#include <gtest/gtest.h>

#include <numeric>

#include "checks.h"
#include "core/log_k_decomp.h"
#include "decomp/decomp_writer.h"
#include "hypergraph/generators.h"
#include "hypergraph/parser.h"
#include "service/canonical.h"
#include "spans.h"
#include "stats.h"

namespace hdbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(StatsTest, NearestRankPercentile) {
  EXPECT_EQ(Percentile(OneTo(100), 0.50), 50.0);
  EXPECT_EQ(Percentile(OneTo(100), 0.90), 90.0);
  EXPECT_EQ(Percentile(OneTo(100), 0.99), 99.0);
  EXPECT_EQ(Percentile(OneTo(10), 0.99), 10.0);
  EXPECT_EQ(Percentile({7.0}, 0.5), 7.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  // Arrival order does not matter.
  EXPECT_EQ(Percentile({5, 1, 4, 2, 3}, 0.5), 3.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.0);
}

TEST(StatsTest, TailRuleNeedsSamplesBeyondThePercentile) {
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(1000, 0.9), 100u);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
  // p99 with 1,000 samples beyond it needs 100,000 samples.
  EXPECT_FALSE(TailPercentileAllowed(99'999, 0.99, 1000));
  EXPECT_TRUE(TailPercentileAllowed(100'000, 0.99, 1000));
  // A cold_solves pass (144 requests) never qualifies.
  EXPECT_FALSE(TailPercentileAllowed(144, 0.99, 1000));
}

TEST(SpansTest, SelfTimeSubtractsMergedChildren) {
  SpanRecorder spans;
  const auto t0 = Clock::now();
  auto at = [&](int us) { return t0 + std::chrono::microseconds(us); };
  const uint64_t root = spans.Add("root", 0, at(0), at(100));
  spans.Add("child", root, at(10), at(40));
  spans.Add("child", root, at(30), at(50));  // overlaps the first
  spans.Add("child", root, at(90), at(120));  // runs past the parent
  EXPECT_DOUBLE_EQ(spans.SelfTimesUs("root")[0], 100.0 - 40.0 - 10.0);
  EXPECT_EQ(spans.DurationsUs("child").size(), 3u);
  const auto totals = spans.Totals();
  EXPECT_EQ(totals.at("child").root, "root");
  EXPECT_EQ(totals.at("child").count, 3u);
  EXPECT_DOUBLE_EQ(totals.at("root").self_us, 50.0);
}

TEST(RenameTest, RenamingIsIsomorphicToItsSource) {
  htd::util::Rng gen(7);
  const htd::Hypergraph source = htd::MakeRandomCq(gen, 20, 4, 0.25);
  htd::util::Rng rng(11);
  const Renaming renaming = RenameInstance(source, rng, 3);
  auto renamed = htd::ParseAuto(renaming.text);
  ASSERT_TRUE(renamed.ok()) << renamed.status().message();
  ASSERT_EQ(renamed->num_edges(), source.num_edges());
  ASSERT_EQ(renamed->num_vertices(), source.num_vertices());
  int moved_edges = 0;
  // The recorded maps carry every source edge onto a renamed edge over the
  // images of its vertices: an isomorphism.
  for (int e = 0; e < source.num_edges(); ++e) {
    const int image = renamed->FindEdge(renaming.edge_names[e]);
    ASSERT_GE(image, 0);
    std::vector<int> expected;
    for (int v : source.edge_vertex_list(e)) {
      const int w = renamed->FindVertex(renaming.vertex_names[v]);
      ASSERT_GE(w, 0);
      expected.push_back(w);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(renamed->edge_vertex_list(image), expected);
    if (image != e) ++moved_edges;
  }
  EXPECT_EQ(htd::service::CanonicalFingerprint(*renamed),
            htd::service::CanonicalFingerprint(source));
  // Fresh names, and the edges were reordered.
  EXPECT_EQ(renamed->edge_name(0).rfind("n3_", 0), 0u);
  EXPECT_EQ(renamed->vertex_name(0).rfind("n3_", 0), 0u);
  EXPECT_GT(moved_edges, 0);
}

/// A /v1/decompose reply body as the server renders it.
Reply DecomposeReply(const std::string& decomposition_json) {
  Reply reply;
  reply.transport_ok = true;
  reply.status = 200;
  reply.body = "{\"outcome\": \"yes\", \"width\": 2, \"cache_hit\": true, "
               "\"deduplicated\": false, \"seconds\": 0.000000, "
               "\"threads_used\": 0, \"fingerprint\": \"00\", "
               "\"decomposition\": " +
               decomposition_json + "}\n";
  return reply;
}

TEST(CheckTest, ValidatorRejectsACorruptedDecomposition) {
  const htd::Hypergraph cycle = htd::MakeCycle(6);
  htd::LogKDecomp solver;
  const htd::SolveResult solved = solver.Solve(cycle, 2);
  ASSERT_EQ(solved.outcome, htd::Outcome::kYes);
  const std::string json = htd::WriteDecompositionJson(cycle, *solved.decomposition);
  EXPECT_EQ(CheckDecompose(DecomposeReply(json), cycle, 2, true), Verdict::kOk);

  // The same tree sent to a renamed requester no longer covers its edges.
  const htd::Hypergraph renamed = [&] {
    htd::util::Rng rng(5);
    return *htd::ParseAuto(RenameInstance(cycle, rng, 0).text);
  }();
  EXPECT_EQ(CheckDecompose(DecomposeReply(json), renamed, 2, true),
            Verdict::kInvalidDecomposition);

  // Dropping a vertex from the root's χ breaks coverage.
  std::string corrupted = json;
  const size_t chi = corrupted.find("\"chi\": [\"");
  ASSERT_NE(chi, std::string::npos);
  const size_t name_end = corrupted.find('"', chi + 9);
  corrupted.erase(chi + 8, name_end - (chi + 8) + 1 +
                               (corrupted[name_end + 1] == ',' ? 1 : 0));
  EXPECT_EQ(CheckDecompose(DecomposeReply(corrupted), cycle, 2, true),
            Verdict::kInvalidDecomposition);

  // A reply that disagrees with the reference outcome is wrong too.
  EXPECT_EQ(CheckDecompose(DecomposeReply(json), cycle, 2, false),
            Verdict::kWrongOutcome);
}

TEST(CheckTest, TransportAndStatusFailuresAreFailures) {
  Reply down;
  EXPECT_EQ(CheckDecompose(down, htd::MakeCycle(4), 2, {}), Verdict::kTransport);
  Reply shed;
  shed.transport_ok = true;
  shed.status = 429;
  EXPECT_EQ(CheckQuery(shed, 3), Verdict::kHttpStatus);
  Reply late;
  late.transport_ok = true;
  late.status = 200;
  late.body = "{\"outcome\": \"cancelled\", \"cache_hit\": false, "
              "\"deduplicated\": false, \"seconds\": 1.000000, "
              "\"threads_used\": 4, \"fingerprint\": \"00\"}\n";
  EXPECT_EQ(CheckDecompose(late, htd::MakeCycle(4), 2, {}),
            Verdict::kMissedDeadline);
}

Reply QueryReply(const std::string& outcome, unsigned long long count) {
  Reply reply;
  reply.transport_ok = true;
  reply.status = 200;
  reply.body = "{\"outcome\": \"" + outcome + "\", \"count\": " +
               std::to_string(count) +
               ", \"count_saturated\": false, \"fingerprint\": \"00\", "
               "\"cache_hit\": true, \"probes\": 4, \"decompose_seconds\": "
               "0.000100, \"pick_seconds\": 0.000010, \"execute_seconds\": "
               "0.002000}\n";
  return reply;
}

TEST(CheckTest, WrongCountIsCountedAsFailed) {
  Tally tally;
  tally.Record(CheckQuery(QueryReply("satisfiable", 18), 18));
  tally.Record(CheckQuery(QueryReply("satisfiable", 17), 18));
  tally.Record(CheckQuery(QueryReply("unsatisfiable", 0), 0));
  EXPECT_EQ(tally.attempted, 3u);
  EXPECT_EQ(tally.failed, 1u);
  EXPECT_EQ(tally.failures[Verdict::kWrongCount], 1u);

  auto parsed = ParseQueryBody(QueryReply("satisfiable", 18).body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->probes, 4);
  EXPECT_DOUBLE_EQ(parsed->execute_seconds, 0.002);
}

TEST(ClientTest, ParsesServerTiming) {
  const auto stages = ParseServerTiming(
      "parse;dur=0.012, fingerprint;dur=0.003, cache;dur=0.001, "
      "schedule;dur=0.000, solve;dur=0.000, serialise;dur=0.020");
  ASSERT_EQ(stages.size(), 6u);
  EXPECT_EQ(stages[0].first, "parse");
  EXPECT_DOUBLE_EQ(stages[0].second, 0.012);
  EXPECT_EQ(stages[5].first, "serialise");
  EXPECT_TRUE(ParseServerTiming("").empty());
}

}  // namespace
}  // namespace hdbench
