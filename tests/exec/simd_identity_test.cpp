// The GEO_SIMD byte-identity contract (ctest -L simd): one workload must
// produce byte-identical conv outputs, activations, and cycle ledgers for
// every backend x thread-count x fault-injection combination, in every
// accumulator mode — SIMD is an execution optimization, never a semantic
// change. Also pins comparator-table stream generation against bit-serial
// tick generation (GEO_STREAM_TABLE 1 vs 0) on the ULP configuration.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_model.hpp"
#include "sc/simd.hpp"

namespace geo {
namespace {

using arch::ConvShape;
using arch::GeoMachine;
using arch::HwConfig;
using arch::MachineResult;
using fault::EccMode;
using fault::FaultConfig;
using fault::ScopedFaultInjection;
using sc::simd::Backend;
using sc::simd::ScopedSimdBackend;

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

// Multi-word streams (wpl = 4) so the vector body runs, not just the
// scalar tail.
HwConfig hw_for(nn::AccumMode accum) {
  HwConfig hw = HwConfig::ulp();
  hw.accum = accum;
  hw.stream_len = 256;
  hw.stream_len_pool = 256;
  hw.stream_len_output = 256;
  return hw;
}

FaultConfig fault_cfg() {
  FaultConfig cfg;
  cfg.sram_error_rate = 2e-2;
  cfg.sram_burst = 2;
  cfg.ecc = EccMode::kSecded;
  cfg.rng_seed = 99;
  return cfg;
}

std::string fingerprint(const MachineResult& r) {
  std::ostringstream os;
  for (const auto c : r.counters) os << c << ',';
  os << '|';
  for (const float a : r.activations) {
    std::uint32_t bits;
    static_assert(sizeof bits == sizeof a);
    std::memcpy(&bits, &a, sizeof bits);
    os << bits << ',';
  }
  os << '|' << r.stats.total_cycles << ':' << r.stats.compute_cycles << ':'
     << r.stats.stall_cycles << ':' << r.stats.retry_stall_cycles << ':'
     << r.stats.nearmem_cycles << ':' << r.stats.passes << ':'
     << r.stats.psum_ops << ':' << r.stats.ledger_ok;
  return os.str();
}

// Scoped setenv/restore so knob tests cannot leak into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_ = false;
};

constexpr nn::AccumMode kModes[] = {nn::AccumMode::kFxp, nn::AccumMode::kApc,
                                    nn::AccumMode::kOr, nn::AccumMode::kPbw,
                                    nn::AccumMode::kPbhw};

class SimdIdentity : public ::testing::TestWithParam<nn::AccumMode> {};

// The full matrix for one accumulator mode:
//   GEO_SIMD {scalar, best} x GEO_THREADS {1, 8} x GEO_FAULTS {off, on}.
// All cells of a fault setting must match byte for byte (fault injection
// changes the bits by design, so on/off are compared within themselves).
TEST_P(SimdIdentity, ConvIsByteIdenticalAcrossBackendsAndThreads) {
  const Fixture f;
  const HwConfig hw = hw_for(GetParam());
  const std::vector<Backend> backends =
      sc::simd::detect_best() == Backend::kScalar
          ? std::vector<Backend>{Backend::kScalar}
          : std::vector<Backend>{Backend::kScalar, sc::simd::detect_best()};
  for (const bool faults : {false, true}) {
    std::vector<std::string> prints;
    for (const Backend b : backends) {
      for (const int threads : {1, 8}) {
        ScopedSimdBackend simd_scope(b);
        exec::ScopedThreads thread_scope(threads);
        std::optional<ScopedFaultInjection> inject;
        if (faults)
          inject.emplace(fault_cfg());
        else
          inject.emplace(nullptr);  // shield from ambient GEO_FAULTS
        GeoMachine machine(hw);
        auto r = machine.try_run_conv(f.shape, f.weights, f.input, f.ones,
                                      f.zeros, 9);
        ASSERT_TRUE(r.ok()) << r.status().to_string();
        EXPECT_TRUE(r->stats.ledger_ok)
            << sc::simd::to_string(b) << " threads=" << threads;
        prints.push_back(fingerprint(*r));
      }
    }
    for (std::size_t i = 1; i < prints.size(); ++i)
      EXPECT_EQ(prints[0], prints[i])
          << "faults=" << faults << " cell " << i << " diverged";
  }
}

// Comparator-table generation (GEO_STREAM_TABLE=1) must be byte-identical
// to bit-serial tick generation (GEO_STREAM_TABLE=0) on the ULP
// configuration, with no fault model — same outputs, same ledger — in
// every accumulator mode.
TEST_P(SimdIdentity, TableStreamsMatchTickStreams) {
  const Fixture f;
  const HwConfig hw = hw_for(GetParam());
  ScopedFaultInjection off(nullptr);
  std::vector<std::string> prints;
  for (const char* table : {"1", "0"}) {
    ScopedEnv env("GEO_STREAM_TABLE", table);
    GeoMachine machine(hw);
    auto r = machine.try_run_conv(f.shape, f.weights, f.input, f.ones,
                                  f.zeros, 9);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    prints.push_back(fingerprint(*r));
  }
  EXPECT_EQ(prints[0], prints[1]);
}

INSTANTIATE_TEST_SUITE_P(Accum, SimdIdentity, ::testing::ValuesIn(kModes),
                         [](const auto& info) {
                           switch (info.param) {
                             case nn::AccumMode::kFxp: return "Fxp";
                             case nn::AccumMode::kApc: return "Apc";
                             case nn::AccumMode::kOr: return "Or";
                             case nn::AccumMode::kPbw: return "Pbw";
                             case nn::AccumMode::kPbhw: return "Pbhw";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace geo
