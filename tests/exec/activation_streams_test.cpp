// Activation-stream generation accounting: a prepared ConvExecution
// generates every input slot's stream once, at prepare; tile walks only read
// them; and a retry regenerates exactly the distinct slots its tile reads.
// Parameterized over the pool size, so the pooled walk (which the TSan job
// runs at GEO_THREADS=4) is held to the same counts as the inline one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "arch/machine.hpp"
#include "exec/parallel_conv.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_model.hpp"
#include "nn/sc_layers.hpp"
#include "telemetry/metrics.hpp"

namespace geo {
namespace {

using arch::ConvExecution;
using arch::ConvShape;
using arch::GeoMachine;
using arch::HwConfig;
using fault::FaultConfig;
using fault::ScopedFaultInjection;

std::int64_t generated() {
  return telemetry::MetricsRegistry::instance()
      .counter("machine.act_streams_generated")
      .value();
}

struct Layer {
  ConvShape shape = ConvShape::conv("gen", 4, 6, 5, 3, 1, false);
  std::vector<float> weights, input, ones, zeros;

  Layer() {
    std::mt19937 rng(77);
    std::uniform_real_distribution<float> wdist(-0.8f, 0.8f);
    std::uniform_real_distribution<float> adist(0.0f, 1.0f);
    weights.resize(static_cast<std::size_t>(shape.weights()));
    for (auto& w : weights) w = wdist(rng);
    input.resize(static_cast<std::size_t>(shape.activations()));
    for (auto& a : input) a = adist(rng);
    ones.assign(static_cast<std::size_t>(shape.cout), 1.0f);
    zeros.assign(static_cast<std::size_t>(shape.cout), 0.0f);
  }

  ConvExecution prepare() const {
    // Four rows: the layer splits into several window groups, so a tile
    // reads only part of the input.
    HwConfig hw = HwConfig::ulp();
    hw.rows = 4;
    hw.accum = nn::AccumMode::kPbw;
    hw.stream_len = 64;
    hw.stream_len_pool = 64;
    hw.stream_len_output = 64;
    auto exec = GeoMachine(hw).prepare_conv(shape, weights, input, ones,
                                            zeros, 9);
    EXPECT_TRUE(exec.ok()) << exec.status().to_string();
    return std::move(exec).value();
  }

  // The distinct input slots the windows of `tile` read.
  std::size_t tile_slots(const ConvExecution& exec, std::int64_t tile) const {
    const auto xy = static_cast<std::size_t>(shape.hout()) * shape.wout();
    std::vector<std::size_t> slots;
    for (const std::size_t oidx : exec.tile_outputs(tile))
      nn::for_each_window_tap(shape, oidx % xy, 0, shape.taps(),
                              [&](int, std::size_t s) { slots.push_back(s); });
    std::sort(slots.begin(), slots.end());
    return static_cast<std::size_t>(
        std::unique(slots.begin(), slots.end()) - slots.begin());
  }
};

class ActivationStreams : public ::testing::TestWithParam<int> {};

TEST_P(ActivationStreams, GeneratedOnceAtPrepareAndNeverByTheWalk) {
  exec::ScopedThreads threads(GetParam());
  ScopedFaultInjection off(nullptr);  // shield from ambient GEO_FAULTS
  const Layer l;

  const std::int64_t before = generated();
  ConvExecution exec = l.prepare();
  EXPECT_EQ(generated() - before, l.shape.activations());

  const std::int64_t prepared = generated();
  exec::ParallelConvRunner().run_all(exec);
  EXPECT_EQ(generated(), prepared);
  exec::ParallelConvRunner().run_all(exec);
  EXPECT_EQ(generated(), prepared);
  EXPECT_TRUE(exec.finish().stats.ledger_ok);
}

TEST_P(ActivationStreams, RetryRegeneratesTheTilesDistinctSlotsAndRecovers) {
  exec::ScopedThreads threads(GetParam());
  const Layer l;
  const auto cfg =
      FaultConfig::parse("sram=2e-3,burst=2,ecc=secded,transient=1,rng=1");
  ASSERT_TRUE(cfg.ok());
  ScopedFaultInjection inject(*cfg);

  ConvExecution exec = l.prepare();
  exec::ParallelConvRunner().run_all(exec);
  std::int64_t tile = 0;
  while (tile < exec.tile_count() && exec.zeroed_inputs(tile) == 0) ++tile;
  ASSERT_LT(tile, exec.tile_count()) << "the spec must zero some tile's input";

  // Each retry re-reads the tile's words once per distinct slot; the
  // transient model re-rolls them, so the tile comes back clean.
  const std::size_t slots = l.tile_slots(exec, tile);
  ASSERT_LT(slots, static_cast<std::size_t>(l.shape.activations()));
  int retries = 0;
  while (exec.zeroed_inputs(tile) != 0 && retries < 8) {
    const std::int64_t before = generated();
    exec.regenerate_tile_inputs(tile);
    EXPECT_EQ(generated() - before, static_cast<std::int64_t>(slots));
    exec.run_tile(tile);
    ++retries;
  }
  EXPECT_EQ(exec.zeroed_inputs(tile), 0) << "after " << retries << " retries";
  EXPECT_GE(retries, 1);
  EXPECT_TRUE(exec.finish().stats.ledger_ok);
}

INSTANTIATE_TEST_SUITE_P(Threads, ActivationStreams, ::testing::Values(1, 4));

}  // namespace
}  // namespace geo
