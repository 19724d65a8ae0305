#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

namespace geo::telemetry {
namespace {

// ---------------------------------------------------------------------------
// JSON

TEST(Json, EscapesAndDumps) {
  Json obj = Json::object();
  obj.set("s", Json("a\"b\\c\n\t"));
  obj.set("n", Json(1.5));
  obj.set("i", Json(static_cast<std::int64_t>(42)));
  obj.set("b", Json(true));
  obj.set("null", Json());
  Json arr = Json::array();
  arr.push(Json(1.0));
  arr.push(Json("x"));
  obj.set("arr", std::move(arr));
  const std::string s = obj.dump();
  EXPECT_TRUE(json_valid(s)) << s;
  EXPECT_NE(s.find("\"a\\\"b\\\\c\\n\\t\""), std::string::npos);
  EXPECT_NE(s.find("\"i\": 42"), std::string::npos);
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  Json obj = Json::object();
  obj.set("inf", Json(std::numeric_limits<double>::infinity()));
  obj.set("nan", Json(std::numeric_limits<double>::quiet_NaN()));
  const std::string s = obj.dump();
  EXPECT_TRUE(json_valid(s)) << s;
  EXPECT_EQ(s.find("inf\": null") != std::string::npos, true) << s;
}

TEST(Json, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("[1, 2.5, -3e4, \"x\", true, false, null]"));
  EXPECT_TRUE(json_valid("{\"a\": {\"b\": [[]]}}"));
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("{\"a\": 1,}"));
  EXPECT_FALSE(json_valid("[1 2]"));
  EXPECT_FALSE(json_valid("{\"a\": 1} trailing"));
  EXPECT_FALSE(json_valid("\"unterminated"));
  // One grammar: what the check accepts, Json::parse loads.
  EXPECT_FALSE(json_valid("1e999"));
  EXPECT_FALSE(json_valid("-1e999"));
  EXPECT_FALSE(json_valid("\"\\uD800\\u0041\""));
}

TEST(Json, RawNodeValidatedAtDump) {
  Json obj = Json::object();
  obj.set("good", Json::raw("[1,2,3]"));
  obj.set("bad", Json::raw("{not json"));
  const std::string s = obj.dump();
  EXPECT_TRUE(json_valid(s)) << s;
  EXPECT_NE(s.find("[1,2,3]"), std::string::npos);
  EXPECT_NE(s.find("\"bad\": null"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics

TEST(Histogram, PercentilesOfConstantSeriesAreExact) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.observe(2.5);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.min(), 2.5);
  EXPECT_DOUBLE_EQ(h.max(), 2.5);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  // All observations share one bucket whose representative value is clamped
  // to the observed [min, max], so every percentile is exact.
  EXPECT_DOUBLE_EQ(h.percentile(50), 2.5);
  EXPECT_DOUBLE_EQ(h.percentile(99), 2.5);
}

TEST(Histogram, PercentilesAreMonotoneAndBracketed) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.observe(i * 1e-4);  // 0.0001 .. 1.0
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 10000);
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
  // Log2 buckets are coarse but the median of U(0,1] must land well away
  // from the tails.
  EXPECT_NEAR(s.p50, 0.5, 0.3);
  EXPECT_GT(s.p95, 0.5);
}

TEST(Histogram, HandlesZeroNegativeAndExtremeValues) {
  Histogram h;
  h.observe(0.0);
  h.observe(-1.0);
  h.observe(1e300);
  h.observe(1e-300);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e300);
  // Percentiles stay within the observed range even for under/overflow
  // buckets.
  EXPECT_GE(h.percentile(1), h.min());
  EXPECT_LE(h.percentile(99), h.max());
}

TEST(Histogram, EmptySnapshotIsZero) {
  Histogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Counter, ThreadedIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, ReturnsStableReferencesAndSortedSnapshot) {
  auto& reg = MetricsRegistry::instance();
  Counter& a = reg.counter("test.registry.zz");
  Counter& b = reg.counter("test.registry.aa");
  Counter& a2 = reg.counter("test.registry.zz");
  EXPECT_EQ(&a, &a2);
  a.add(3);
  b.add(1);
  reg.gauge("test.registry.gauge").set(2.5);
  reg.histogram("test.registry.hist").observe(1.0);

  const auto snap = reg.snapshot();
  std::vector<std::string> names;
  for (const auto& m : snap) names.push_back(m.name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  bool found = false;
  for (const auto& m : snap)
    if (m.name == "test.registry.zz") {
      found = true;
      EXPECT_EQ(m.kind, MetricKind::kCounter);
      EXPECT_DOUBLE_EQ(m.value, 3.0);
    }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Exporters

TEST(Export, JsonAndCsvRenderTheRegistry) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("test.export.counter").add(7);
  reg.gauge("test.export.gauge").set(1.25);
  auto& h = reg.histogram("test.export.hist");
  for (int i = 0; i < 10; ++i) h.observe(0.5);

  const Json j = metrics_to_json(reg);
  const std::string s = j.dump();
  EXPECT_TRUE(json_valid(s)) << s;
  EXPECT_NE(s.find("\"test.export.counter\""), std::string::npos);
  EXPECT_NE(s.find("\"p99\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracing

TEST(Tracer, DisabledPathRecordsNothing) {
  auto& tracer = Tracer::instance();
  tracer.disable();
  EXPECT_FALSE(tracer.enabled());
  tracer.begin("noop", "test");
  tracer.end("noop", "test");
  { ScopedTimer t("test.tracer.noop", "test"); }
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Tracer, RendersBalancedWellFormedTrace) {
  auto& tracer = Tracer::instance();
  const std::string path =
      (std::filesystem::temp_directory_path() / "geo_telemetry_test.json")
          .string();
  tracer.enable(path);
  {
    ScopedTimer outer("test.trace.outer", "test", {{"layer", 3.0}});
    ScopedTimer inner("test.trace.inner", "test");
  }
  tracer.instant("test.trace.marker", "test");
  tracer.counter("test.trace.series", 42.0);
  EXPECT_EQ(tracer.event_count(), 6u);  // 2xB + 2xE + i + C

  const std::string doc = tracer.render();
  EXPECT_TRUE(json_valid(doc)) << doc;
  auto count = [&doc](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = doc.find(needle); pos != std::string::npos;
         pos = doc.find(needle, pos + needle.size()))
      ++n;
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"B\""), 2u);
  EXPECT_EQ(count("\"ph\":\"E\""), 2u);
  EXPECT_EQ(count("\"ph\":\"i\""), 1u);
  EXPECT_EQ(count("\"ph\":\"C\""), 1u);
  EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(doc.find("\"layer\":3"), std::string::npos);

  EXPECT_TRUE(tracer.flush());
  std::ifstream in(path);
  std::stringstream file;
  file << in.rdbuf();
  EXPECT_TRUE(json_valid(file.str()));
  EXPECT_EQ(tracer.event_count(), 0u) << "flush clears the buffer";

  tracer.disable();
  std::filesystem::remove(path);
}

TEST(ScopedTimer, ObservesElapsedIntoHistogram) {
  Histogram h;
  {
    ScopedTimer t(h, "test.scoped.hist", "test");
  }
  EXPECT_EQ(h.count(), 1);
  EXPECT_GE(h.max(), 0.0);
  EXPECT_LT(h.max(), 10.0) << "elapsed seconds, not nanoseconds";
}

TEST(ScopedTimer, NamedOverloadUsesRegistry) {
  auto& reg = MetricsRegistry::instance();
  auto& h = reg.histogram("test.scoped.named");
  const std::int64_t before = h.count();
  {
    ScopedTimer t("test.scoped.named", "test");
  }
  EXPECT_EQ(h.count(), before + 1);
}

}  // namespace
}  // namespace geo::telemetry
