// Tests for the benchmark's own logic: the percentile rule, open-loop
// latency accounting, and the layer chain the exec workloads use between
// layers.
#include <gtest/gtest.h>

#include <numeric>

#include "exec/thread_pool.hpp"
#include "harness.hpp"
#include "model.hpp"
#include "nn/quantize.hpp"
#include "resilience/resilience.hpp"
#include "serve/pipeline.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);  // 1 .. n
  return v;
}

TEST(Percentile, NearestRankWithEnoughTail) {
  const Percentile p90 = percentile(ramp(100), 0.9);
  ASSERT_TRUE(p90.ok);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.samples, 100u);
  EXPECT_EQ(p90.beyond, 10u);

  const Percentile p50 = percentile(ramp(41), 0.5);
  ASSERT_TRUE(p50.ok);
  EXPECT_EQ(p50.value, 21.0);
  EXPECT_EQ(p50.beyond, 20u);
}

TEST(Percentile, RefusesWhenFewerThanTenSamplesLieBeyond) {
  // 99 samples: p90 is rank 90 with only 9 above it.
  const Percentile p90 = percentile(ramp(99), 0.9);
  EXPECT_FALSE(p90.ok);
  EXPECT_EQ(p90.beyond, 9u);
  EXPECT_EQ(p90.samples, 99u);
  // The old "p99 of 8 samples" is just the maximum; refused.
  EXPECT_FALSE(percentile(ramp(8), 0.99).ok);
  EXPECT_FALSE(percentile({}, 0.5).ok);
  EXPECT_NE(describe(p90, "p90").find("refused (n=99, 9 beyond < 10)"),
            std::string::npos);
}

TEST(Percentile, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = ramp(200);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 0.9).value, 180.0);
  EXPECT_EQ(median(v), 100.5);
}

TEST(OpenLoop, ArrivalsAreSeededPoissonWithinThePhase) {
  const auto a = poisson_arrivals(400.0, 5.0, 7);
  EXPECT_EQ(a, poisson_arrivals(400.0, 5.0, 7));
  EXPECT_NE(a, poisson_arrivals(400.0, 5.0, 8));
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 5.0);
  // 2000 expected; a Poisson count's sd is ~45.
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 250.0);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  const Clock::time_point t0{};
  const auto ms = [&](double v) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(v));
  };
  // On time: latency is the server's submit -> response.
  EXPECT_DOUBLE_EQ(from_due_ms(ms(10), ms(10), 4000.0), 4.0);
  // A generator stalled until t = 100 ms submits the requests due at 20, 50
  // and 90 ms late; each is charged the wait since its own due time.
  const double due[] = {20, 50, 90};
  const double want[] = {84, 54, 14};
  for (int i = 0; i < 3; ++i)
    EXPECT_NEAR(from_due_ms(ms(due[i]), ms(100), 4000.0), want[i], 1e-6);
}

// Four 100 ms windows; the hypervisor stole half the wanted time in the
// second and most of it in the fourth. A unit needs 10 ms of CPU: ten
// complete per calm window, five of 20 ms each in the half-stolen one.
TEST(StealCorrection, TakesStolenTimeOutOfTheCalmerWindows) {
  const auto at = [](double ms) {
    return Clock::time_point{} +
           std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double, std::milli>(ms));
  };
  const double stolen[] = {0.0, 0.5, 0.0, 0.9};
  std::vector<Window> windows;
  std::vector<Sample> latency;
  std::vector<Clock::time_point> done;
  for (int w = 0; w < 4; ++w) {
    windows.push_back({at(100.0 * w), at(100.0 * (w + 1)), stolen[w]});
    const double ms = 10.0 / (1.0 - stolen[w]);
    for (int i = 1; i * ms <= 100.0; ++i) {
      const double end = 100.0 * w + std::min(99.0, i * ms);
      latency.push_back({at(end), ms});
      done.push_back(at(end));
    }
  }
  EXPECT_DOUBLE_EQ(stolen_between(windows, at(50), at(150)), 0.25);

  // Calmer half: windows 0 and 2, twenty 10 ms units in 200 ms.
  const StealCorrected c =
      correct_for_steal(windows, latency, 0, done, at(0), at(400));
  ASSERT_EQ(c.latency_ms.size(), 20u);
  for (double ms : c.latency_ms) EXPECT_DOUBLE_EQ(ms, 10.0);
  EXPECT_DOUBLE_EQ(c.stolen_latency, 0.0);
  EXPECT_NEAR(c.throughput_per_s, 100.0, 1e-6);

  // Asking for more samples than the calm half holds adds the next calmest
  // window, each sample scaled by its own share: 20 ms * (1 - 0.5).
  const StealCorrected more =
      correct_for_steal(windows, latency, 25, done, at(0), at(400));
  ASSERT_EQ(more.latency_ms.size(), 25u);
  for (double ms : more.latency_ms) EXPECT_NEAR(ms, 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(more.stolen_latency, 0.5 / 3);

  // A throughput weight below 1 takes only that share of the stolen time
  // out; latency is unaffected. Over the half-stolen window with weight
  // 0.5: five units in 100 * (1 - 0.25) ms.
  const StealCorrected half =
      correct_for_steal(windows, latency, 0, done, at(100), at(200), 0.5);
  EXPECT_EQ(half.latency_ms, c.latency_ms);
  EXPECT_NEAR(half.throughput_per_s, 5 / 0.075, 1e-6);
}

TEST(Chain, DequantizesAndAveragesTwoByTwo) {
  geo::arch::ConvShape s = geo::arch::ConvShape::conv("c", 1, 4, 2, 1, 0, true);
  std::vector<std::uint8_t> acts(2 * 4 * 4);
  for (std::size_t i = 0; i < acts.size(); ++i)
    acts[i] = static_cast<std::uint8_t>(i * 8);
  const std::vector<float> x = chain(acts, s);
  ASSERT_EQ(x.size(), 2u * 2 * 2);
  const auto dq = [](int code) { return geo::nn::dequantize_unsigned(code, 8); };
  // Channel 0, top-left window: codes 0, 8, 32, 40.
  EXPECT_FLOAT_EQ(x[0], (dq(0) + dq(8) + dq(32) + dq(40)) * 0.25f);
  // Channel 1, bottom-right window: codes 8 * {26, 27, 30, 31}.
  EXPECT_FLOAT_EQ(x[7],
                  (dq(208) + dq(216) + dq(240) + dq(248)) * 0.25f);

  s.pool = false;
  const std::vector<float> flat = chain(acts, s);
  ASSERT_EQ(flat.size(), acts.size());
  EXPECT_FLOAT_EQ(flat[5], dq(40));
}

// The exec workloads' layer-by-layer chain must compute exactly what the
// PipelineRouter's serial chain computes on LeNet-5's FC tail.
TEST(Chain, MatchesPipelineRouterOnTheFcTail) {
  geo::exec::ScopedThreads lanes(kLanes);
  const Model m = make_model(geo::arch::NetworkShape::lenet5(), 3);
  const Reference ref = run_reference(m, bench_hw());
  const std::vector<float>& input = ref.layer_inputs[0][2];

  geo::resilience::ResilientExecutor ex(bench_hw(),
                                        geo::resilience::RetryPolicy{});
  std::vector<float> x = input;
  std::vector<std::uint8_t> out;
  for (std::size_t l = 2; l < m.layers.size(); ++l) {
    const Layer& layer = m.layers[l];
    auto r = ex.run_conv(layer.shape, layer.weights, x, layer.scale,
                         layer.shift, layer.salt);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    out = r->activations;
    x = chain(out, layer.shape);
  }
  EXPECT_EQ(out, ref.outputs[0].back());

  geo::serve::ServeOptions o;
  o.replicas = 1;
  geo::serve::PipelineRouter router(bench_hw(), 2, o);
  geo::serve::NetworkRequest req;
  for (std::size_t l = 2; l < m.layers.size(); ++l) {
    const Layer& layer = m.layers[l];
    geo::serve::LayerSpec spec;
    spec.shape = layer.shape;
    spec.weights = layer.weights;
    spec.bn_scale = layer.scale;
    spec.bn_shift = layer.shift;
    spec.layer_salt = layer.salt;
    req.layers.push_back(std::move(spec));
  }
  req.input = input;
  const geo::serve::NetworkResponse resp = router.run(std::move(req));
  ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
  EXPECT_EQ(resp.result.activations, out);
}

TEST(Report, PrintsEveryMetricWithItsUnit) {
  Report r;
  r.attempted = 3;
  r.set("latency_p50_ms", 1.5, "ms");
  r.set("setup_s", 0.25, "s");
  r.set("latency_p50_ms", 2.5, "ms");  // overwrite keeps one entry
  EXPECT_EQ(r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"latency_p50_ms\": {\"value\": 2.5, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench
