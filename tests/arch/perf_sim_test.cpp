#include "arch/perf_sim.hpp"

#include <gtest/gtest.h>

namespace geo::arch {
namespace {

const NetworkShape kCnn = NetworkShape::cnn4_cifar();

TEST(PerfSim, ProducesConsistentResult) {
  const PerfSim sim(HwConfig::ulp());
  const PerfResult r = sim.simulate(kCnn);
  EXPECT_GT(r.cycles, 0);
  EXPECT_GT(r.frames_per_second, 0);
  EXPECT_GT(r.energy_per_frame_j, 0);
  EXPECT_NEAR(r.frames_per_second * r.seconds, 1.0, 1e-9);
  EXPECT_NEAR(r.average_power_w, r.energy_per_frame_j / r.seconds, 1e-12);
  EXPECT_EQ(r.layers.size(), kCnn.layers.size());
}

TEST(PerfSim, DvfsVoltageApplied) {
  const PerfSim sim(HwConfig::ulp());
  EXPECT_LT(sim.simulate(kCnn).vdd, 0.9);
  HwConfig no_pipe = HwConfig::ulp();
  no_pipe.pipeline_stage = false;
  EXPECT_DOUBLE_EQ(PerfSim(no_pipe).simulate(kCnn).vdd, 0.9);
}

// Monotonicity: disabling any single optimization must not help.
class OptimizationMonotone : public ::testing::TestWithParam<int> {};

TEST_P(OptimizationMonotone, DisablingNeverImproves) {
  HwConfig off = HwConfig::ulp();
  bool latency_neutral = false;
  switch (GetParam()) {
    case 0: off.progressive = false; break;
    case 1: off.shadow_buffers = false; break;
    case 2: off.near_memory = false; break;
    case 3:
      // The pipeline stage trades one fill cycle per pass for DVFS energy;
      // its win is energy, not latency.
      off.pipeline_stage = false;
      latency_neutral = true;
      break;
  }
  const PerfResult base = PerfSim(HwConfig::ulp()).simulate(kCnn);
  const PerfResult ablated = PerfSim(off).simulate(kCnn);
  if (!latency_neutral) {
    EXPECT_GE(ablated.seconds, base.seconds * 0.999);
  }
  EXPECT_GE(ablated.energy_per_frame_j, base.energy_per_frame_j * 0.95);
}

INSTANTIATE_TEST_SUITE_P(Opts, OptimizationMonotone, ::testing::Range(0, 4));

TEST(PerfSim, ShorterStreamsFaster) {
  HwConfig fast = HwConfig::ulp();  // 32,64
  HwConfig slow = HwConfig::ulp();
  slow.stream_len_pool = 128;
  slow.stream_len = 128;
  const double t_fast = PerfSim(fast).simulate(kCnn).seconds;
  const double t_slow = PerfSim(slow).simulate(kCnn).seconds;
  EXPECT_GT(t_slow / t_fast, 1.8) << "128-streams should be ~2-4x slower";
}

TEST(PerfSim, ShadowBufferingHidesReload) {
  HwConfig base = HwConfig::base_ulp();
  HwConfig gen = HwConfig::geo_gen_ulp();
  const double t_base = PerfSim(base).simulate(kCnn).seconds;
  const double t_gen = PerfSim(gen).simulate(kCnn).seconds;
  EXPECT_GT(t_base / t_gen, 1.2)
      << "paper: progressive shadow buffering gives ~1.7x speedup";
  EXPECT_LT(t_base / t_gen, 3.0);
}

TEST(PerfSim, StallsVanishWithProgressiveShadow) {
  // At 128-bit streams (the GEO-GEN operating point) the compute phase is
  // long enough for the shadow buffers to hide the whole reload. Shorter
  // streams legitimately leave residual stalls.
  HwConfig hw = HwConfig::ulp();
  hw.stream_len_pool = 128;
  hw.stream_len = 128;
  const Compiler c(hw);
  const LayerPlan plan = c.plan_layer(kCnn.layers[1],
                                      Dataflow::kWeightStationary);
  EXPECT_LT(pass_cost(plan, hw).stall_cycles, plan.stream_cycles * 0.2);
}

TEST(PerfSim, SerialReloadStallsWithoutOptimizations) {
  HwConfig hw = HwConfig::base_ulp();
  const Compiler c(hw);
  const LayerPlan plan =
      c.plan_layer(kCnn.layers[1], Dataflow::kOutputStationary);
  EXPECT_GT(pass_cost(plan, hw).stall_cycles, 0);
}

TEST(PerfSim, UlpPeakMatchesPaper) {
  // GEO ULP-32,64: 640 GOPS, ~13 TOPS/W (Table II).
  const PerfSim sim(HwConfig::ulp());
  EXPECT_NEAR(sim.peak_gops(), 640.0, 1.0);
  EXPECT_GT(sim.peak_tops_per_watt(), 5.0);
  EXPECT_LT(sim.peak_tops_per_watt(), 40.0);
}

TEST(PerfSim, Ulp1632DoublesPeak) {
  HwConfig hw = HwConfig::ulp();
  hw.stream_len_pool = 16;
  hw.stream_len = 32;
  EXPECT_NEAR(PerfSim(hw).peak_gops(), 1280.0, 2.0);
}

TEST(PerfSim, ExternalMemoryCanBound) {
  // VGG on LP streams ~15 MB of weights per frame: external bandwidth must
  // show up in the runtime.
  HwConfig hw = HwConfig::lp();
  const PerfResult r = PerfSim(hw).simulate(NetworkShape::vgg16());
  EXPECT_GT(r.energy.external_memory, 0.0);
  HwConfig no_ext = hw;
  no_ext.external_memory = false;
  const PerfResult r_no_ext = PerfSim(no_ext).simulate(NetworkShape::vgg16());
  EXPECT_LE(r_no_ext.seconds, r.seconds + 1e-12);
  EXPECT_LT(r_no_ext.energy_per_frame_j, r.energy_per_frame_j);
}

TEST(PerfSim, EnergyBreakdownItemsSumToTotal) {
  const PerfResult r = PerfSim(HwConfig::ulp()).simulate(kCnn);
  double sum = 0;
  for (const auto& [name, j] : r.energy.items()) sum += j;
  EXPECT_NEAR(sum, r.energy.total(), r.energy.total() * 1e-9);
}

TEST(PerfSim, LeakageScalesWithRuntime) {
  HwConfig fast = HwConfig::ulp();
  HwConfig slow = fast;
  slow.stream_len = 128;
  slow.stream_len_pool = 128;
  const PerfResult rf = PerfSim(fast).simulate(kCnn);
  const PerfResult rs = PerfSim(slow).simulate(kCnn);
  EXPECT_GT(rs.energy.leakage, rf.energy.leakage);
}

TEST(PerfSim, UlpPowerInPaperBallpark) {
  // Paper Table II: GEO ULP at 48 mW (we accept a generous band — the model
  // is calibrated, not fitted per-workload).
  const PerfResult r = PerfSim(HwConfig::ulp()).simulate(kCnn);
  EXPECT_GT(r.average_power_w, 0.010);
  EXPECT_LT(r.average_power_w, 0.150);
}

TEST(PerfSim, UlpFrameRateInPaperBallpark) {
  // Paper: 14k frames/s for CNN-4/CIFAR on GEO ULP-32,64.
  const PerfResult r = PerfSim(HwConfig::ulp()).simulate(kCnn);
  EXPECT_GT(r.frames_per_second, 4e3);
  EXPECT_LT(r.frames_per_second, 60e3);
}

}  // namespace
}  // namespace geo::arch
