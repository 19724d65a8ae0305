// End-to-end fault injection through the GeoMachine and the nn SC layers:
// the zero-overhead default, machine/reference equivalence under identical
// fault models, monotonic degradation, and the ECC accuracy ordering the
// fault_sweep bench asserts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "arch/machine.hpp"
#include "fault/fault_model.hpp"
#include "nn/sc_layers.hpp"

namespace geo {
namespace {

using arch::ConvShape;
using arch::GeoMachine;
using arch::HwConfig;
using arch::MachineResult;
using fault::EccMode;
using fault::FaultConfig;
using fault::ScopedFaultInjection;

struct Fixture {
  ConvShape shape;
  std::vector<float> weights, input, ones, zeros;

  explicit Fixture(unsigned seed = 77) {
    shape = ConvShape::conv("t", 4, 6, 5, 3, 1, false);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> wdist(-0.8f, 0.8f);
    std::uniform_real_distribution<float> adist(0.0f, 1.0f);
    weights.resize(static_cast<std::size_t>(shape.weights()));
    for (auto& w : weights) w = wdist(rng);
    input.resize(static_cast<std::size_t>(shape.activations()));
    for (auto& a : input) a = adist(rng);
    ones.assign(static_cast<std::size_t>(shape.cout), 1.0f);
    zeros.assign(static_cast<std::size_t>(shape.cout), 0.0f);
  }
};

HwConfig small_hw(nn::AccumMode accum) {
  HwConfig hw = HwConfig::ulp();
  hw.accum = accum;
  hw.stream_len = 64;
  hw.stream_len_pool = 64;
  hw.stream_len_output = 64;
  return hw;
}

MachineResult run_machine(const Fixture& f, const HwConfig& hw) {
  GeoMachine machine(hw);
  return machine.run_conv(f.shape, f.weights, f.input, f.ones, f.zeros, 9);
}

double total_error(const MachineResult& a, const MachineResult& b) {
  double err = 0.0;
  for (std::size_t i = 0; i < a.counters.size(); ++i)
    err += std::abs(static_cast<double>(a.counters[i]) -
                    static_cast<double>(b.counters[i]));
  return err;
}

TEST(FaultInjection, DisabledModelIsBitIdenticalToDefault) {
  // GEO_FAULTS unset: the default run and an explicitly-disabled scope must
  // produce the same bits and the same cycle ledger (zero-overhead default).
  const Fixture f;
  const HwConfig hw = small_hw(nn::AccumMode::kPbw);
  const MachineResult plain = run_machine(f, hw);
  ScopedFaultInjection off(nullptr);
  const MachineResult scoped = run_machine(f, hw);
  EXPECT_EQ(plain.counters, scoped.counters);
  EXPECT_EQ(plain.activations, scoped.activations);
  EXPECT_EQ(plain.stats.total_cycles, scoped.stats.total_cycles);
}

TEST(FaultInjection, InertConfigMatchesClean) {
  const Fixture f;
  const HwConfig hw = small_hw(nn::AccumMode::kPbw);
  const MachineResult clean = run_machine(f, hw);
  FaultConfig cfg;  // all rates zero
  cfg.rng_seed = 3;
  ScopedFaultInjection inject(cfg);
  const MachineResult under = run_machine(f, hw);
  EXPECT_EQ(clean.counters, under.counters);
}

TEST(FaultInjection, RunsAreDeterministic) {
  const Fixture f;
  const HwConfig hw = small_hw(nn::AccumMode::kPbw);
  FaultConfig cfg;
  cfg.stream_flip_rate = 0.02;
  cfg.sram_error_rate = 1e-3;
  cfg.rng_seed = 17;
  MachineResult r1, r2;
  {
    ScopedFaultInjection inject(cfg);
    r1 = run_machine(f, hw);
  }
  {
    ScopedFaultInjection inject(cfg);
    r2 = run_machine(f, hw);
  }
  EXPECT_EQ(r1.counters, r2.counters);
  EXPECT_EQ(r1.stats.total_cycles, r2.stats.total_cycles);
}

// The machine equivalence contract must survive fault injection: the same
// (domain, site) keying corrupts the reference model's streams exactly the
// way the machine's row/pass mapping corrupts its own.
class FaultEquivalence : public ::testing::TestWithParam<nn::AccumMode> {};

TEST_P(FaultEquivalence, MachineMatchesScConv2dUnderFaults) {
  const Fixture f;
  const HwConfig hw = small_hw(GetParam());
  FaultConfig cfg;
  cfg.stream_flip_rate = 0.01;
  cfg.accum_flip_rate = 0.005;
  cfg.sram_error_rate = 1e-3;
  cfg.seed_upset_rate = 0.05;
  cfg.rng_seed = 23;
  ScopedFaultInjection inject(cfg);

  GeoMachine machine(hw);
  const MachineResult r =
      machine.run_conv(f.shape, f.weights, f.input, f.ones, f.zeros, 9);

  std::mt19937 rng(1);
  nn::ScConv2d ref(f.shape.cin, f.shape.cout, f.shape.kh, 1, f.shape.pad,
                   rng, machine.layer_config(f.shape, 9));
  std::copy(f.weights.begin(), f.weights.end(),
            ref.weight().value.data().begin());
  nn::Tensor x({1, f.shape.cin, f.shape.hin, f.shape.win});
  std::copy(f.input.begin(), f.input.end(), x.data().begin());
  const nn::Tensor y = ref.forward(x, false);

  ASSERT_EQ(r.counters.size(), y.size());
  const double L = hw.stream_len;
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(r.counters[i] / L, y[i], 1e-6) << "output " << i;
}

INSTANTIATE_TEST_SUITE_P(Accum, FaultEquivalence,
                         ::testing::Values(nn::AccumMode::kOr,
                                           nn::AccumMode::kPbw,
                                           nn::AccumMode::kPbhw,
                                           nn::AccumMode::kFxp,
                                           nn::AccumMode::kApc));

TEST(FaultInjection, StreamDamageGrowsWithRate) {
  const Fixture f;
  const HwConfig hw = small_hw(nn::AccumMode::kPbw);
  const MachineResult clean = run_machine(f, hw);
  double prev = -1.0;
  for (const double rate : {1e-3, 1e-2, 5e-2, 0.2}) {
    FaultConfig cfg;
    cfg.stream_flip_rate = rate;
    cfg.rng_seed = 99;
    ScopedFaultInjection inject(cfg);
    const MachineResult faulty = run_machine(f, hw);
    const double err = total_error(clean, faulty);
    EXPECT_GT(err, prev) << "rate " << rate;
    prev = err;
  }
}

TEST(FaultInjection, SecdedBeatsNoEccAndChargesStalls) {
  const Fixture f;
  const HwConfig hw = small_hw(nn::AccumMode::kPbw);
  const MachineResult clean = run_machine(f, hw);

  double err_none = 0.0, err_secded = 0.0;
  std::int64_t stalls_none = 0, stalls_secded = 0;
  for (const EccMode ecc : {EccMode::kNone, EccMode::kSecded}) {
    FaultConfig cfg;
    cfg.sram_error_rate = 5e-3;
    cfg.ecc = ecc;
    cfg.rng_seed = 99;
    ScopedFaultInjection inject(cfg);
    const MachineResult faulty = run_machine(f, hw);
    EXPECT_GT(inject.model().stats().sram_words_corrupted, 0);
    if (ecc == EccMode::kNone) {
      err_none = total_error(clean, faulty);
      stalls_none = faulty.stats.stall_cycles;
    } else {
      err_secded = total_error(clean, faulty);
      stalls_secded = faulty.stats.stall_cycles;
      // Every corruption is retried through the correction path.
      EXPECT_EQ(inject.model().stats().sram_retry_cycles,
                2 * inject.model().stats().sram_words_corrupted);
    }
  }
  // burst=1 makes almost every event a correctable single-bit error: SECDED
  // must be strictly more accurate than running without ECC.
  EXPECT_GT(err_none, 0.0);
  EXPECT_LT(err_secded, err_none);
  EXPECT_GT(stalls_secded, stalls_none);
}

TEST(FaultInjection, StuckColumnPerturbsCounters) {
  const Fixture f;
  const HwConfig hw = small_hw(nn::AccumMode::kPbw);
  const MachineResult clean = run_machine(f, hw);
  FaultConfig cfg;
  cfg.stuck.column = 0;
  cfg.stuck.value = true;
  ScopedFaultInjection inject(cfg);
  const MachineResult faulty = run_machine(f, hw);
  EXPECT_GT(inject.model().stats().stuck_column_events, 0);
  EXPECT_NE(clean.counters, faulty.counters);
}

TEST(FaultInjection, LedgerStaysReconciledUnderFaults) {
  const Fixture f;
  const HwConfig hw = small_hw(nn::AccumMode::kFxp);
  FaultConfig cfg;
  cfg.stream_flip_rate = 0.05;
  cfg.sram_error_rate = 5e-3;
  cfg.ecc = EccMode::kSecded;
  cfg.rng_seed = 4;
  ScopedFaultInjection inject(cfg);
  const MachineResult r = run_machine(f, hw);
  EXPECT_TRUE(r.stats.ledger_ok);
  EXPECT_EQ(r.stats.total_cycles, r.stats.compute_cycles +
                                      r.stats.stall_cycles +
                                      r.stats.nearmem_cycles);
}

}  // namespace
}  // namespace geo
