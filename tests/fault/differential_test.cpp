// Randomized differential check of GeoMachine against the nn SC reference
// layers: seeded random conv and FC shapes on a reduced fabric (4 rows of 32
// MACs, so Cout and Cin*k*k fall on both sides of the row count and width),
// crossed with every accumulation mode, sharing level, progressive loading
// and the fault models of ScReferenceGolden, each draw on a shared LFSR or
// on per-SNG TRNGs (HwConfig::lfsr_per_sng). Wherever the hardware mapping
// cannot change the arithmetic the counters must equal the reference's
// outputs byte for byte; the remaining cases are counted, not compared.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "fault/fault_model.hpp"
#include "nn/sc_layers.hpp"

namespace geo {
namespace {

using arch::ConvShape;
using arch::GeoMachine;
using arch::HwConfig;
using nn::AccumMode;

constexpr int kRows = 4;
constexpr int kMacsPerRow = 32;
constexpr int kDraws = 4;  // random shapes per configuration

const char* const kFaultSpecs[] = {
    "",
    "stream=0.01,rng=5",
    "accum=0.005,rng=5",
    "seed=0.05,rng=5",
    "sram=1e-2,burst=2,rng=5",
    "sram=1e-2,burst=2,ecc=secded,rng=5",
    "stuck=0:1,rng=5",
    "stuck=1:0,accum=0.005,rng=5",
};

ConvShape random_shape(std::mt19937_64& rng) {
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  if (pick(0, 2) == 0)
    return ConvShape::fc("fc", pick(4, 80), pick(1, 2 * kRows - 1), false);
  const int k = 2 * pick(0, 2) + 1;  // 1, 3 or 5
  const int pad = pick(0, 2);
  ConvShape s = ConvShape::conv("conv", pick(1, 6), pick(1, 7),
                                pick(1, 2 * kRows - 1), k, pad, false);
  s.hin = s.win = std::max(s.hin, k - 2 * pad);  // kernel fits the input
  s.stride = pick(1, 2);
  return s;
}

// The accumulator the machine splits across kernel slices: an OR group
// (Sec. III-B), or the whole tap range where products are counted one by
// one through state that carries from tap to tap.
int accumulator_of(AccumMode accum, const ConvShape& s, int t, bool stuck) {
  const bool fc = s.kh == 1 && s.kw == 1 && s.hin == 1 && s.win == 1;
  switch (accum) {
    case AccumMode::kOr: return 0;
    case AccumMode::kPbw: return fc ? t / nn::kFcGroup : t % s.kw;
    case AccumMode::kPbhw: return fc ? t / nn::kFcGroup : t % (s.kh * s.kw);
    case AccumMode::kFxp: return stuck ? 0 : t;  // stuck column: per cycle
    case AccumMode::kApc: return 0;              // the APC's pairing run
  }
  return 0;
}

// True when no accumulator spans a kernel slice of `macs_per_row` taps.
bool slices_preserve_arithmetic(AccumMode accum, const ConvShape& s,
                                bool stuck) {
  std::vector<int> slice_of;
  for (int t = 0; t < s.taps(); ++t) {
    const auto g =
        static_cast<std::size_t>(accumulator_of(accum, s, t, stuck));
    if (g >= slice_of.size()) slice_of.resize(g + 1, -1);
    if (slice_of[g] < 0) slice_of[g] = t / kMacsPerRow;
    if (slice_of[g] != t / kMacsPerRow) return false;
  }
  return true;
}

struct Case {
  ConvShape shape;
  AccumMode accum;
  sc::Sharing sharing;
  bool progressive;
  const char* faults;
  int stream_len;
  bool trng;  // lfsr_per_sng: unshared TRNG generators
};

std::string describe(const Case& c) {
  const ConvShape& s = c.shape;
  return std::string(nn::to_string(c.accum)) + " " +
         sc::to_string(c.sharing) + (c.progressive ? " prog" : "") +
         (c.trng ? " trng" : " lfsr") +
         " faults='" + c.faults + "' " + s.name +
         " cin=" + std::to_string(s.cin) + " hw=" + std::to_string(s.hin) +
         " cout=" + std::to_string(s.cout) + " k=" + std::to_string(s.kh) +
         " stride=" + std::to_string(s.stride) +
         " pad=" + std::to_string(s.pad) + " L=" + std::to_string(c.stream_len);
}

// Runs one layer on the machine and through ScConv2d (ScLinear for an FC
// shape) under the case's fault model, and counts the outputs whose bytes
// differ.
int count_mismatches(const Case& c, std::uint64_t salt, std::mt19937_64& rng) {
  const ConvShape& s = c.shape;
  HwConfig hw = HwConfig::ulp();
  hw.rows = kRows;
  hw.macs_per_row = kMacsPerRow;
  hw.accum = c.accum;
  hw.sharing = c.sharing;
  hw.progressive = c.progressive;
  hw.lfsr_per_sng = c.trng;
  hw.stream_len = hw.stream_len_pool = hw.stream_len_output = c.stream_len;

  std::uniform_real_distribution<float> wdist(-0.9f, 0.9f);
  std::uniform_real_distribution<float> adist(0.0f, 1.0f);
  std::vector<float> weights(static_cast<std::size_t>(s.weights()));
  for (float& w : weights) w = wdist(rng);
  std::vector<float> input(static_cast<std::size_t>(s.activations()));
  for (float& a : input) a = adist(rng);
  const std::vector<float> ones(static_cast<std::size_t>(s.cout), 1.0f);
  const std::vector<float> zeros(static_cast<std::size_t>(s.cout), 0.0f);

  std::optional<fault::ScopedFaultInjection> inject;
  if (c.faults[0] == '\0') {
    inject.emplace(nullptr);
  } else {
    const auto spec = fault::FaultConfig::parse(c.faults);
    if (!spec.ok()) {
      ADD_FAILURE() << "bad fault spec " << c.faults;
      return 1;
    }
    inject.emplace(*spec);
  }
  GeoMachine machine(hw);
  const arch::MachineResult r =
      machine.run_conv(s, weights, input, ones, zeros, salt);
  const nn::ScLayerConfig cfg = machine.layer_config(s, salt);

  std::mt19937 init(1);
  nn::Tensor y;
  if (s.name == "fc") {
    nn::ScLinear ref(s.cin, s.cout, init, cfg);
    std::copy(weights.begin(), weights.end(),
              ref.weight().value.data().begin());
    std::fill(ref.bias().value.data().begin(), ref.bias().value.data().end(),
              0.0f);
    nn::Tensor x({1, s.cin});
    std::copy(input.begin(), input.end(), x.data().begin());
    y = ref.forward(x, false);
  } else {
    nn::ScConv2d ref(s.cin, s.cout, s.kh, s.stride, s.pad, init, cfg);
    std::copy(weights.begin(), weights.end(),
              ref.weight().value.data().begin());
    nn::Tensor x({1, s.cin, s.hin, s.win});
    std::copy(input.begin(), input.end(), x.data().begin());
    y = ref.forward(x, false);
    EXPECT_EQ(y.dim(2), s.hout());
    EXPECT_EQ(y.dim(3), s.wout());
  }
  if (r.counters.size() != y.size()) {
    ADD_FAILURE() << "machine has " << r.counters.size() << " outputs, nn "
                  << y.size();
    return static_cast<int>(y.size());
  }
  const double inv_len = 1.0 / static_cast<double>(cfg.stream_len);
  int mismatches = 0;
  for (std::size_t i = 0; i < y.size(); ++i)
    mismatches += std::bit_cast<std::uint32_t>(y[i]) !=
                  std::bit_cast<std::uint32_t>(
                      static_cast<float>(r.counters[i] * inv_len));
  return mismatches;
}

TEST(MachineDifferential, RandomLayersMatchTheReference) {
  std::mt19937_64 rng(20210301);
  // The generator is drawn from its own stream, so the shape and operand
  // draws are the same with and without it.
  std::mt19937_64 rng_kind(2006);
  int compared = 0, skipped = 0, fc_pb = 0, apc = 0, sliced = 0, trng = 0;
  std::uint64_t salt = 1;
  for (const AccumMode accum :
       {AccumMode::kOr, AccumMode::kPbw, AccumMode::kPbhw, AccumMode::kFxp,
        AccumMode::kApc})
    for (const sc::Sharing sharing :
         {sc::Sharing::kNone, sc::Sharing::kModerate, sc::Sharing::kExtreme})
      for (const bool progressive : {false, true})
        for (const char* faults : kFaultSpecs)
          for (int draw = 0; draw < kDraws; ++draw) {
            const Case c{random_shape(rng), accum, sharing, progressive,
                         faults,
                         32 << std::uniform_int_distribution<int>(0, 2)(rng),
                         std::bernoulli_distribution(0.5)(rng_kind)};
            const bool stuck = std::string(faults).find("stuck") == 0;
            const bool multi_slice = c.shape.taps() > kMacsPerRow;
            if (multi_slice &&
                !slices_preserve_arithmetic(accum, c.shape, stuck)) {
              ++skipped;
              continue;
            }
            SCOPED_TRACE(describe(c));
            EXPECT_EQ(count_mismatches(c, ++salt, rng), 0)
                << "of " << c.shape.outputs() << " outputs";
            ++compared;
            sliced += multi_slice;
            fc_pb += c.shape.name == "fc" && (accum == AccumMode::kPbw ||
                                              accum == AccumMode::kPbhw);
            apc += accum == AccumMode::kApc;
            trng += c.trng;
          }
  RecordProperty("compared", compared);
  RecordProperty("skipped", skipped);
  std::printf("differential: %d compared (%d FC partial-binary, %d APC, "
              "%d sliced, %d TRNG), %d skipped\n",
              compared, fc_pb, apc, sliced, trng, skipped);
  // The draw must exercise what the comparison is for.
  EXPECT_GE(compared, 600);
  EXPECT_GE(fc_pb, 100);
  EXPECT_GE(apc, 100);
  EXPECT_GE(sliced, 100);
  EXPECT_GE(trng, 250);
}

}  // namespace
}  // namespace geo
