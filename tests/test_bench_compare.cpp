// Tests for the bench regression gate: the minimal JSON reader it is built
// on, and compare_bench_json() itself — pass/fail/schema-mismatch exit
// codes, per-metric tolerances, and direction-aware comparison (a 20%
// throughput drop must fail; a 20% throughput gain must not).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/bench_compare.hpp"
#include "util/json.hpp"

namespace {

using nscc::harness::CompareOptions;
using nscc::harness::compare_bench_json;
using nscc::harness::kCompareError;
using nscc::harness::kComparePass;
using nscc::harness::kCompareRegression;

// ---------------------------------------------------------------------------
// util::json reader.

TEST(JsonReader, ParsesNestedDocument) {
  std::string err;
  auto v = nscc::util::json::parse(
      R"({"a": [1, 2.5, -3e2], "b": {"s": "x\"y"}, "t": true, "n": null})",
      &err);
  ASSERT_TRUE(v.has_value()) << err;
  const auto* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  const auto* b = v->find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->string_or("s", ""), "x\"y");
  EXPECT_TRUE(v->find("t")->boolean);
  EXPECT_TRUE(v->find("n")->is_null());
}

TEST(JsonReader, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(nscc::util::json::parse("{\"a\": }", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(nscc::util::json::parse("[1, 2", &err).has_value());
  EXPECT_FALSE(nscc::util::json::parse("{} trailing", &err).has_value());
  EXPECT_FALSE(nscc::util::json::parse("", &err).has_value());
}

TEST(JsonReader, RoundTripsSerializedDoubles) {
  // sweep.cpp serialises with %.17g; the reader must recover the exact
  // value so exact (tolerance-0) comparison of deterministic metrics works.
  std::string err;
  auto v = nscc::util::json::parse(R"({"x": 0.10000000000000001})", &err);
  ASSERT_TRUE(v.has_value()) << err;
  EXPECT_EQ(v->number_or("x", 0), 0.1);
}

// ---------------------------------------------------------------------------
// compare_bench_json.

/// One-cell nscc-bench document with the given throughput and completion.
std::string doc(double events_per_sec, double completion_s,
                const char* schema = "nscc-bench-v3",
                const char* extra_stat = nullptr, double extra_value = 0) {
  std::ostringstream os;
  os << R"({"schema": ")" << schema << R"(", "bench": "demo", "results": [)"
     << R"({"workload": "ga", "variant": "nscc", "age": 3, "seed": 1,)"
     << R"( "repeat": 0, "params": {"procs": 4},)"
     << R"( "stats": {"events_per_sec": )" << events_per_sec
     << R"(, "completion_s": )" << completion_s;
  if (extra_stat != nullptr) {
    os << R"(, ")" << extra_stat << R"(": )" << extra_value;
  }
  os << "}}]}";
  return os.str();
}

TEST(BenchCompare, IdenticalDocumentsPassExactly) {
  std::ostringstream out;
  EXPECT_EQ(compare_bench_json(doc(1000, 2.5), doc(1000, 2.5), {}, out),
            kComparePass);
  EXPECT_NE(out.str().find("0 regression(s)"), std::string::npos);
}

TEST(BenchCompare, TwentyPercentThroughputRegressionFails) {
  // The gate's reason to exist: a synthetic 20% events/sec drop must fail
  // even under the CI tolerance for wall-clock noise (10%).
  CompareOptions opt;
  opt.metric_tolerance["events_per_sec"] = 0.10;
  std::ostringstream out;
  EXPECT_EQ(compare_bench_json(doc(1000, 2.5), doc(800, 2.5), opt, out),
            kCompareRegression);
  EXPECT_NE(out.str().find("REGRESSION"), std::string::npos);
  EXPECT_NE(out.str().find("events_per_sec"), std::string::npos);
}

TEST(BenchCompare, NoiseWithinTolerancePasses) {
  CompareOptions opt;
  opt.metric_tolerance["events_per_sec"] = 0.10;
  std::ostringstream out;
  EXPECT_EQ(compare_bench_json(doc(1000, 2.5), doc(950, 2.5), opt, out),
            kComparePass);
  EXPECT_NE(out.str().find("within tolerance"), std::string::npos);
}

TEST(BenchCompare, ImprovementsPassAtZeroTolerance) {
  // Direction-aware: more throughput and less completion time are both
  // improvements, so the strictest gate still passes them.
  std::ostringstream out;
  EXPECT_EQ(compare_bench_json(doc(1000, 2.5), doc(1300, 2.0), {}, out),
            kComparePass);
}

TEST(BenchCompare, CompletionTimeIncreaseFailsExactGate) {
  std::ostringstream out;
  EXPECT_EQ(compare_bench_json(doc(1000, 2.5), doc(1000, 2.6), {}, out),
            kCompareRegression);
}

TEST(BenchCompare, UnknownMetricsAreTwoSided) {
  // A metric with no known direction regresses on *any* out-of-tolerance
  // drift — in a deterministic sim, unexplained change is the signal.
  std::ostringstream out;
  EXPECT_EQ(compare_bench_json(doc(1000, 2.5, "nscc-bench-v3", "mystery", 5),
                               doc(1000, 2.5, "nscc-bench-v3", "mystery", 6),
                               {}, out),
            kCompareRegression);
  std::ostringstream out2;
  CompareOptions loose;
  loose.default_tolerance = 0.5;
  EXPECT_EQ(compare_bench_json(doc(1000, 2.5, "nscc-bench-v3", "mystery", 5),
                               doc(1000, 2.5, "nscc-bench-v3", "mystery", 6),
                               loose, out2),
            kComparePass);
}

TEST(BenchCompare, SchemaMismatchIsAnError) {
  std::ostringstream out;
  EXPECT_EQ(compare_bench_json(doc(1000, 2.5, "nscc-bench-v2"),
                               doc(1000, 2.5, "nscc-bench-v3"), {}, out),
            kCompareError);
  EXPECT_NE(out.str().find("schema mismatch"), std::string::npos);
}

TEST(BenchCompare, ForeignSchemaIsAnError) {
  std::ostringstream out;
  EXPECT_EQ(compare_bench_json(doc(1000, 2.5, "other-tool-v1"),
                               doc(1000, 2.5, "other-tool-v1"), {}, out),
            kCompareError);
}

TEST(BenchCompare, MalformedJsonIsAnError) {
  std::ostringstream out;
  EXPECT_EQ(compare_bench_json("{not json", doc(1000, 2.5), {}, out),
            kCompareError);
}

TEST(BenchCompare, MissingCellIsARegression) {
  // Candidate ran a different variant: the baseline cell silently vanishing
  // must fail, not pass vacuously.
  std::string cand = doc(1000, 2.5);
  const auto pos = cand.find("\"nscc\"");
  ASSERT_NE(pos, std::string::npos);
  cand.replace(pos, 6, "\"sc\"");
  std::ostringstream out;
  EXPECT_EQ(compare_bench_json(doc(1000, 2.5), cand, {}, out),
            kCompareRegression);
  EXPECT_NE(out.str().find("cell missing"), std::string::npos);
}

TEST(BenchCompare, MissingMetricIsARegression) {
  std::ostringstream out;
  EXPECT_EQ(compare_bench_json(doc(1000, 2.5, "nscc-bench-v3", "extra", 1),
                               doc(1000, 2.5), {}, out),
            kCompareRegression);
  EXPECT_NE(out.str().find("missing from candidate"), std::string::npos);
}

TEST(BenchCompare, ParamsDistinguishCells) {
  // Same workload/variant but different sweep params are different cells.
  std::string cand = doc(1000, 2.5);
  const auto pos = cand.find("\"procs\": 4");
  ASSERT_NE(pos, std::string::npos);
  cand.replace(pos, 10, "\"procs\": 8");
  std::ostringstream out;
  EXPECT_EQ(compare_bench_json(doc(1000, 2.5), cand, {}, out),
            kCompareRegression);
}

TEST(BenchCompare, DuplicateCellKeysAreAnError) {
  // A second record under the same key would silently go uncompared.
  std::string twice = doc(1000, 2.5);
  const auto record = twice.find("{\"workload\"");
  const auto end = twice.rfind("]}");
  ASSERT_NE(record, std::string::npos);
  twice.insert(end, ", " + twice.substr(record, end - record));
  std::ostringstream out;
  EXPECT_EQ(compare_bench_json(doc(1000, 2.5), twice, {}, out),
            kCompareError);
  EXPECT_NE(out.str().find("share the cell key"), std::string::npos);
}

TEST(BenchCompare, RunStatsCountersGateOneWay) {
  // The gate reads its RunStats directions from the names the run
  // document writes: under a 5 % tolerance a 10 % drop in messages_sent is
  // an improvement, a 10 % rise a regression.
  for (const char* metric :
       {"messages_sent", "bytes_sent", "global_read_blocks",
        "global_read_block_s", "frames_lost", "retransmissions",
        "read_escalations", "integrity_dropped", "sanitize_violations"}) {
    CompareOptions tolerant;
    tolerant.metric_tolerance[metric] = 0.05;
    const std::string base = doc(1000, 2.5, "nscc-bench-v5", metric, 100);
    std::ostringstream better;
    EXPECT_EQ(compare_bench_json(
                  base, doc(1000, 2.5, "nscc-bench-v5", metric, 90), tolerant,
                  better),
              kComparePass)
        << metric << "\n"
        << better.str();
    std::ostringstream worse;
    EXPECT_EQ(compare_bench_json(
                  base, doc(1000, 2.5, "nscc-bench-v5", metric, 110), tolerant,
                  worse),
              kCompareRegression)
        << metric;
  }
  // Counters no producer gates one way stay two-sided.
  CompareOptions tolerant;
  tolerant.metric_tolerance["crashes"] = 0.05;
  std::ostringstream out;
  EXPECT_EQ(compare_bench_json(doc(1000, 2.5, "nscc-bench-v5", "crashes", 10),
                               doc(1000, 2.5, "nscc-bench-v5", "crashes", 9),
                               tolerant, out),
            kCompareRegression);
}

}  // namespace
