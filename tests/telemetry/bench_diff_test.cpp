// Bench regression gate core: glob matching, numeric flattening, and the
// tolerance-rule diff that geo_report exposes. The acceptance cases mirror
// the CI gate: identical documents diff clean, a 10% cycle inflation is
// caught, an accuracy drop is caught, improvements and wall-clock noise are
// not flagged, and a vanished metric is treated as lost coverage.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace geo::telemetry {
namespace {

Json parse_or_die(const char* text) {
  auto parsed = Json::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return parsed.has_value() ? *parsed : Json::object();
}

DiffResult diff(const char* base, const char* current) {
  return diff_documents(parse_or_die(base), parse_or_die(current),
                        default_diff_rules());
}

const MetricDelta* find_delta(const DiffResult& r, const std::string& path) {
  for (const MetricDelta& d : r.deltas)
    if (d.path == path) return &d;
  return nullptr;
}

TEST(GlobMatch, CoversStarQuestionAndBacktracking) {
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("*", "anything.at.all"));
  EXPECT_TRUE(glob_match("*cycles*", "metrics.counters.total_cycles"));
  EXPECT_TRUE(glob_match("*cycles*", "cycles"));
  EXPECT_FALSE(glob_match("*cycles*", "metrics.counters.energy"));
  EXPECT_TRUE(glob_match("attr.layers.?.total_cycles",
                         "attr.layers.3.total_cycles"));
  EXPECT_FALSE(glob_match("attr.layers.?.total_cycles",
                          "attr.layers.12.total_cycles"));
  // '*' must backtrack: the first 'b' after the star is not the right one.
  EXPECT_TRUE(glob_match("*a*b", "xaxbxb"));
  EXPECT_FALSE(glob_match("*a*b", "xaxbx"));
  EXPECT_FALSE(glob_match("abc", "ab"));
  EXPECT_FALSE(glob_match("ab", "abc"));
}

TEST(BenchDiff, FlattenWalksObjectsArraysAndBools) {
  std::vector<std::pair<std::string, double>> flat;
  flatten_numeric(
      parse_or_die(R"({"a":{"b":2},"list":[1,{"c":3}],"ok":true,"s":"x"})"),
      "", flat);
  ASSERT_EQ(flat.size(), 4u);
  EXPECT_EQ(flat[0], (std::pair<std::string, double>{"a.b", 2.0}));
  EXPECT_EQ(flat[1], (std::pair<std::string, double>{"list.0", 1.0}));
  EXPECT_EQ(flat[2], (std::pair<std::string, double>{"list.1.c", 3.0}));
  EXPECT_EQ(flat[3], (std::pair<std::string, double>{"ok", 1.0}))
      << "bools flatten to 1/0; strings are skipped";
}

TEST(BenchDiff, IdenticalDocumentsDiffClean) {
  const char* doc = R"({"metrics":{"counters":{"machine":{
      "total_cycles":123456,"stall_cycles":1000}}},
      "attr":{"generation_cycles":900,"ledger_ok":true},
      "accuracy":97.8})";
  const DiffResult r = diff(doc, doc);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.regressions, 0u);
  EXPECT_EQ(r.improvements, 0u);
  EXPECT_EQ(r.compared, 5u);
}

TEST(BenchDiff, TenPercentCycleInflationIsCaught) {
  const DiffResult r = diff(R"({"machine":{"total_cycles":1000}})",
                            R"({"machine":{"total_cycles":1100}})");
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.regressions, 1u);
  const MetricDelta* d = find_delta(r, "machine.total_cycles");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, DeltaKind::kRegression);

  // 1% stays inside the 2% relative tolerance.
  EXPECT_TRUE(diff(R"({"machine":{"total_cycles":1000}})",
                   R"({"machine":{"total_cycles":1010}})")
                  .ok());
}

TEST(BenchDiff, CycleReductionIsAnImprovementNotARegression) {
  const DiffResult r = diff(R"({"machine":{"total_cycles":1000}})",
                            R"({"machine":{"total_cycles":900}})");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.improvements, 1u);
  EXPECT_EQ(find_delta(r, "machine.total_cycles")->kind,
            DeltaKind::kImprovement);
}

TEST(BenchDiff, AccuracyDropIsCaughtAndGainIsNot) {
  // 0.25-percentage-point absolute window.
  EXPECT_FALSE(diff(R"({"eval":{"accuracy":98.0}})",
                    R"({"eval":{"accuracy":97.0}})")
                   .ok());
  EXPECT_TRUE(diff(R"({"eval":{"accuracy":98.0}})",
                   R"({"eval":{"accuracy":97.9}})")
                  .ok());
  const DiffResult gain = diff(R"({"eval":{"accuracy":97.0}})",
                               R"({"eval":{"accuracy":98.0}})");
  EXPECT_TRUE(gain.ok());
  EXPECT_EQ(gain.improvements, 1u);
}

TEST(BenchDiff, SpeedupCollapseIsCaughtAndGainIsNot) {
  // One loose shrink-only rule covers every measured ratio: falling below
  // half the baseline is a regression, any rise is not.
  const char* base = R"({"batch":{"batch_speedup":3.4},
      "simd":{"mac_popcount_speedup":13.0}})";
  const DiffResult drop = diff(base, R"({"batch":{"batch_speedup":1.6},
      "simd":{"mac_popcount_speedup":6.0}})");
  EXPECT_EQ(drop.regressions, 2u);
  EXPECT_EQ(find_delta(drop, "batch.batch_speedup")->kind,
            DeltaKind::kRegression);
  EXPECT_EQ(find_delta(drop, "simd.mac_popcount_speedup")->kind,
            DeltaKind::kRegression);

  const DiffResult rise = diff(base, R"({"batch":{"batch_speedup":6.0},
      "simd":{"mac_popcount_speedup":30.0}})");
  EXPECT_TRUE(rise.ok());
  EXPECT_EQ(rise.improvements, 2u);
}

TEST(BenchDiff, LedgerOkGoingFalseIsARegression) {
  const DiffResult r = diff(R"({"attr":{"ledger_ok":true}})",
                            R"({"attr":{"ledger_ok":false}})");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(find_delta(r, "attr.ledger_ok")->kind, DeltaKind::kRegression);
}

TEST(BenchDiff, WallClockMeasurementsAreIgnored) {
  const DiffResult r = diff(
      R"({"metrics":{"histograms":{"machine.tile":{"p50":1.0}}},
          "machine":{"stream_table_build_ns":100,"images_per_s":50.0}})",
      R"({"metrics":{"histograms":{"machine.tile":{"p50":9.0}}},
          "machine":{"stream_table_build_ns":1e9,"images_per_s":1.0}})");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.compared, 0u);
  EXPECT_EQ(r.ignored, 3u);
}

TEST(BenchDiff, RunShapeDiagnosticsAreIgnoredEvenWhenRemoved) {
  // A warm trained-model cache skips training entirely: train.* metrics
  // vanish and stream-table hit counts collapse. Neither is a regression —
  // but the cycle ledger right next to them still gates.
  const DiffResult r = diff(
      R"({"metrics":{
            "counters":{"train.batches":960,
                        "machine.stream_table_hits":20705600,
                        "machine.act_streams_generated":12544,
                        "machine.wgt_buffer_fills":32,
                        "machine.total_cycles":1000},
            "gauges":{"train.accuracy":0.71875}}})",
      R"({"metrics":{
            "counters":{"machine.stream_table_hits":476809,
                        "machine.act_streams_generated":12800,
                        "machine.wgt_buffer_fills":48,
                        "machine.total_cycles":1000}}})");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.compared, 1u);  // only the cycle counter
  EXPECT_EQ(r.ignored, 5u);

  // ...and the same warm-cache run with an inflated ledger still fails.
  const DiffResult bad = diff(
      R"({"metrics":{"counters":{"train.batches":960,
                                 "machine.total_cycles":1000}}})",
      R"({"metrics":{"counters":{"machine.total_cycles":1100}}})");
  EXPECT_FALSE(bad.ok());
}

TEST(BenchDiff, RemovedMetricIsARegressionAddedIsNot) {
  const DiffResult removed = diff(R"({"a":{"total_cycles":10,"extra":1}})",
                                  R"({"a":{"total_cycles":10}})");
  EXPECT_FALSE(removed.ok());
  EXPECT_EQ(find_delta(removed, "a.extra")->kind, DeltaKind::kRemoved);

  const DiffResult added = diff(R"({"a":{"total_cycles":10}})",
                                R"({"a":{"total_cycles":10,"new_metric":5}})");
  EXPECT_TRUE(added.ok());
  EXPECT_EQ(find_delta(added, "a.new_metric")->kind, DeltaKind::kAdded);
}

TEST(BenchDiff, CatchAllRuleGatesUnknownMetricsTwoSided) {
  // No named rule matches "widgets": the trailing 2% two-sided rule does.
  EXPECT_FALSE(diff(R"({"widgets":100})", R"({"widgets":103})").ok());
  EXPECT_FALSE(diff(R"({"widgets":100})", R"({"widgets":97})").ok());
  EXPECT_TRUE(diff(R"({"widgets":100})", R"({"widgets":101})").ok());
}

TEST(BenchDiff, SummaryNamesTheRegressedPath) {
  const DiffResult r = diff(R"({"machine":{"total_cycles":1000}})",
                            R"({"machine":{"total_cycles":1100}})");
  const std::string text = summarize_diff(r);
  EXPECT_NE(text.find("machine.total_cycles"), std::string::npos) << text;
  EXPECT_NE(text.find("1 regression"), std::string::npos) << text;
}

TEST(BenchDiff, JsonParseRoundTripsRenderedDocuments) {
  // The tree parser must read back what Json::dump writes (the diff core
  // consumes real BENCH_*.json files produced by Json::dump).
  Json doc = Json::object();
  doc.set("int", Json(static_cast<std::int64_t>(42)));
  doc.set("neg", Json(-1.5));
  doc.set("flag", Json(true));
  doc.set("name", Json("esc \"quote\" \\ slash\n"));
  Json arr = Json::array();
  arr.push(Json(1.0));
  arr.push(Json::object());
  doc.set("arr", std::move(arr));

  auto back = Json::parse(doc.dump(2));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->find("int")->integer(), 42);
  EXPECT_DOUBLE_EQ(back->find("neg")->number(), -1.5);
  EXPECT_TRUE(back->find("flag")->boolean());
  EXPECT_EQ(back->find("name")->str(), "esc \"quote\" \\ slash\n");
  EXPECT_EQ(back->find("arr")->elements().size(), 2u);

  EXPECT_FALSE(Json::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(Json::parse("").has_value());
}

}  // namespace
}  // namespace geo::telemetry
