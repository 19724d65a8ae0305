// The GEO_THREADS determinism contract: the same workload, seed, and fault
// spec must produce byte-identical conv outputs, resilience reports, and
// cycle ledgers at every thread count. These tests pin that contract at
// pool sizes 1, 2, and 8 within one process via ScopedThreads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_model.hpp"
#include "resilience/resilience.hpp"
#include "telemetry/metrics.hpp"

namespace geo {
namespace {

using arch::ConvShape;
using arch::GeoMachine;
using arch::HwConfig;
using arch::MachineResult;
using fault::EccMode;
using fault::FaultConfig;
using fault::ScopedFaultInjection;
using resilience::LayerOutcome;
using resilience::ResilientExecutor;
using resilience::RetryPolicy;

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

HwConfig small_hw() {
  HwConfig hw = HwConfig::ulp();
  hw.accum = nn::AccumMode::kPbw;
  hw.stream_len = 64;
  hw.stream_len_pool = 64;
  hw.stream_len_output = 64;
  return hw;
}

// Everything the acceptance contract calls "byte-identical" about one
// machine run, flattened to a comparable string.
std::string fingerprint(const MachineResult& r) {
  std::ostringstream os;
  for (const auto c : r.counters) os << c << ',';
  os << '|';
  for (const float a : r.activations) {
    // Bit pattern, not formatted value: the contract is bit-identity.
    std::uint32_t bits;
    static_assert(sizeof bits == sizeof a);
    std::memcpy(&bits, &a, sizeof bits);
    os << bits << ',';
  }
  os << '|' << r.stats.total_cycles << ':' << r.stats.compute_cycles << ':'
     << r.stats.stall_cycles << ':' << r.stats.nearmem_cycles << ':'
     << r.stats.ledger_ok;
  return os.str();
}

std::string fingerprint(const LayerOutcome& o) {
  std::ostringstream os;
  os << o.layer << '|' << static_cast<int>(o.rung) << '|' << o.degraded
     << '|' << o.tiles << '|' << o.tiles_retried << '|' << o.tiles_recovered
     << '|' << o.retries << '|' << o.backoff_cycles << '|'
     << o.abandoned_cycles << '|' << o.ledger_ok << '|';
  for (const auto d : o.detections) os << d << ',';
  return os.str();
}

TEST(Determinism, MachineConvIsByteIdenticalAcrossThreadCounts) {
  const Fixture f;
  const HwConfig hw = small_hw();
  ScopedFaultInjection off(nullptr);  // shield from ambient GEO_FAULTS
  std::vector<std::string> prints;
  for (const int threads : {1, 2, 8}) {
    exec::ScopedThreads scope(threads);
    GeoMachine machine(hw);
    auto r = machine.try_run_conv(f.shape, f.weights, f.input, f.ones,
                                  f.zeros, 9);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_TRUE(r->stats.ledger_ok) << "threads=" << threads;
    prints.push_back(fingerprint(*r));
  }
  EXPECT_EQ(prints[0], prints[1]);
  EXPECT_EQ(prints[0], prints[2]);
}

TEST(Determinism, DefectFaultRunIsByteIdenticalAcrossThreadCounts) {
  // The CI fault-recovery spec: uncorrectable double-bit SRAM bursts under
  // SECDED, and a transient spec whose retries re-roll. The resilience walk
  // fans every tile's first run out on the pool and retries in tile order,
  // so detections, retries, backoff and the abandoned-cycle ledger must be
  // the same at every thread count.
  const Fixture f;
  const HwConfig hw = small_hw();
  for (const char* spec : {"sram=2e-2,burst=2,ecc=secded,rng=99",
                           "sram=5e-3,burst=2,ecc=secded,transient=1,rng=31"}) {
    SCOPED_TRACE(spec);
    const auto cfg = FaultConfig::parse(spec);
    ASSERT_TRUE(cfg.ok());
    std::vector<std::string> run_prints, report_prints;
    for (const int threads : {1, 2, 8}) {
      exec::ScopedThreads scope(threads);
      ScopedFaultInjection inject(*cfg);
      ResilientExecutor executor(hw, RetryPolicy{});
      auto r = executor.run_conv(f.shape, f.weights, f.input, f.ones,
                                 f.zeros, 9, "det");
      ASSERT_TRUE(r.ok()) << r.status().to_string();
      run_prints.push_back(fingerprint(*r));
      ASSERT_EQ(executor.report().layers.size(), 1u);
      report_prints.push_back(fingerprint(executor.report().layers[0]));
    }
    EXPECT_EQ(run_prints[0], run_prints[1]);
    EXPECT_EQ(run_prints[0], run_prints[2]);
    EXPECT_EQ(report_prints[0], report_prints[1]) << report_prints[0];
    EXPECT_EQ(report_prints[0], report_prints[2]) << report_prints[0];
  }
}

TEST(Determinism, TransientFaultPassIsByteIdenticalAcrossThreadCounts) {
  // Transient draws are keyed by a per-site access sequence, so a single
  // full pass (one read per site) is order-independent — the machine may
  // fan tiles out even under the transient model.
  const Fixture f;
  const HwConfig hw = small_hw();
  FaultConfig cfg;
  cfg.sram_error_rate = 5e-3;
  cfg.stream_flip_rate = 1e-3;
  cfg.ecc = EccMode::kSecded;
  cfg.rng_seed = 31;
  cfg.transient = true;

  std::vector<std::string> prints;
  for (const int threads : {1, 2, 8}) {
    exec::ScopedThreads scope(threads);
    ScopedFaultInjection inject(cfg);
    GeoMachine machine(hw);
    auto r = machine.try_run_conv(f.shape, f.weights, f.input, f.ones,
                                  f.zeros, 9);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    prints.push_back(fingerprint(*r));
  }
  EXPECT_EQ(prints[0], prints[1]);
  EXPECT_EQ(prints[0], prints[2]);
}

TEST(Determinism, WorkerThreadsInheritSubmitterFaultScope) {
  // fault::active() is thread-local; the pool must propagate the
  // submitting thread's model onto its workers for the batch. A defect
  // model visible on the caller must therefore corrupt identically whether
  // tiles run inline or on workers — covered by the byte-identity tests —
  // and must be visible at all inside iterations, covered here.
  FaultConfig cfg;
  cfg.sram_error_rate = 1e-3;
  cfg.rng_seed = 5;
  ScopedFaultInjection inject(cfg);
  fault::FaultModel* expected = fault::active();
  ASSERT_NE(expected, nullptr);
  exec::ScopedThreads scope(4);
  std::atomic<int> mismatches{0};
  exec::parallel_for(64, 1, [&](std::int64_t) {
    if (fault::active() != expected) mismatches.fetch_add(1);
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Determinism, HistogramSurvivesConcurrentObservers) {
  telemetry::Histogram h;
  constexpr std::int64_t kN = 20000;
  exec::ScopedThreads scope(8);
  exec::parallel_for(kN, 64, [&](std::int64_t i) {
    h.observe(static_cast<double>(i % 1000) + 1.0);
  });
  EXPECT_EQ(h.count(), kN);
  // The min/max seeding race would lose one of these under contention.
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_GT(h.mean(), 0.0);
  EXPECT_GE(h.percentile(99.0), h.percentile(50.0));
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

}  // namespace
}  // namespace geo
