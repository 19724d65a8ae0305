// Golden digests of the nn SC reference layers (ScConv2d, ScLinear) under
// every fault model: forward outputs and backward input gradients over two
// passes, across accumulation modes, RNGs, progressive loading and stream
// lengths. The digests were recorded from an independent implementation
// of each layer kind, so they pin the exact fault-site keying
// (weight/activation SRAM and stream sites, accumulator sites, stuck
// columns) and the gradient attenuation of both. They must hold with
// GEO_STREAM_TABLE forced on and off.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <ostream>
#include <random>
#include <string>

#include "fault/fault_model.hpp"
#include "nn/sc_layers.hpp"

namespace geo {
namespace {

using fault::FaultConfig;
using fault::ScopedFaultInjection;
using nn::AccumMode;

// Deterministic values in [lo, hi) that do not depend on the standard
// library's distribution implementations.
float hashed_value(std::uint64_t i, float lo, float hi) {
  std::uint64_t x = i * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull;
  x = (x ^ (x >> 31)) * 0xBF58476D1CE4E5B9ull;
  x ^= x >> 29;
  const float u = static_cast<float>(x >> 40) / static_cast<float>(1u << 24);
  return lo + (hi - lo) * u;
}

void fill(nn::Tensor& t, std::uint64_t salt, float lo, float hi) {
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = hashed_value(salt * 1000003ull + i, lo, hi);
}

// FNV-1a over the float bit patterns.
struct Digest {
  std::uint64_t h = 0xCBF29CE484222325ull;
  void add(const nn::Tensor& t) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      std::uint32_t bits = std::bit_cast<std::uint32_t>(t[i]);
      for (int b = 0; b < 4; ++b, bits >>= 8) {
        h ^= bits & 0xFFu;
        h *= 0x100000001B3ull;
      }
    }
  }
};

// Two forward/backward passes (the second pass re-seeds TRNG streams).
template <class Layer>
void run_layer(Layer& layer, const nn::Tensor& x, Digest& d) {
  for (int pass = 0; pass < 2; ++pass) {
    const nn::Tensor y = layer.forward(x, true);
    nn::Tensor g(y.shape());
    fill(g, 900 + static_cast<std::uint64_t>(pass), -1.0f, 1.0f);
    d.add(y);
    d.add(layer.backward(g));
  }
}

std::uint64_t digest_mode(AccumMode accum) {
  struct Variant {
    sc::RngKind rng;
    sc::Sharing sharing;
    bool progressive;
    int stream_len;
  };
  const Variant variants[] = {
      {sc::RngKind::kLfsr, sc::Sharing::kModerate, false, 64},
      {sc::RngKind::kTrng, sc::Sharing::kNone, true, 128},
  };
  Digest d;
  std::uint64_t salt = 1;
  for (const Variant& v : variants) {
    nn::ScLayerConfig cfg;
    cfg.rng = v.rng;
    cfg.sharing = v.sharing;
    cfg.accum = accum;
    cfg.progressive = v.progressive;
    cfg.stream_len = v.stream_len;
    std::mt19937 rng(5);
    {
      // 40 inputs: three partial-binary groups of 16, the last one short.
      cfg.layer_salt = salt++;
      nn::ScLinear fc(40, 3, rng, cfg);
      fill(fc.weight().value, 10, -0.9f, 0.9f);
      fill(fc.bias().value, 11, -0.1f, 0.1f);
      nn::Tensor x({2, 40});
      fill(x, 12, 0.0f, 1.0f);
      run_layer(fc, x, d);
    }
    struct ConvGeom {
      int cin, cout, k, stride, pad, h;
    };
    const ConvGeom convs[] = {
        {2, 3, 3, 1, 1, 5},  // padded: border windows lose taps
        {2, 3, 3, 2, 0, 5},  // strided, unpadded
        {4, 3, 1, 1, 0, 3},  // 1x1
    };
    for (const ConvGeom& c : convs) {
      cfg.layer_salt = salt++;
      nn::ScConv2d conv(c.cin, c.cout, c.k, c.stride, c.pad, rng, cfg);
      fill(conv.weight().value, 20 + salt, -0.9f, 0.9f);
      nn::Tensor x({2, c.cin, c.h, c.h});
      fill(x, 40 + salt, 0.0f, 1.0f);
      run_layer(conv, x, d);
    }
  }
  return d.h;
}

struct GoldenCase {
  const char* name;
  const char* spec;  // empty: no fault model
  // Per accumulation mode, in the order of kModes below.
  std::uint64_t digest[5];
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

constexpr AccumMode kModes[] = {AccumMode::kOr, AccumMode::kPbw,
                                AccumMode::kPbhw, AccumMode::kFxp,
                                AccumMode::kApc};

// A stuck column above bit 0 cancels in the pos - neg of the 1-bit OR-group
// counters, so "stuck_accum" moves only the fxp digest off "accum".
const GoldenCase kCases[] = {
    {"none", "",
     {0x690300d1c966ac74, 0x1dffba0883e769e3, 0xe605dcc29255aadc,
      0xb4f9d91a3541651e, 0x94a622dff588a201}},
    {"stream", "stream=0.01,rng=5",
     {0x0748b53435bbe7e2, 0x9e9c4eccd11e927e, 0xd6bc2fec1d90a9ed,
      0xfd96121dec7ee3be, 0x39712598a0419d45}},
    {"accum", "accum=0.005,rng=5",
     {0xef3ddddf0d9e277b, 0x7db3f88cbd89fc61, 0xc7819e640f6d0733,
      0x73ea5906dbfdbab2, 0x7055ee3250bdbeba}},
    {"seed", "seed=0.05,rng=5",
     {0x37957ec5ce54b229, 0x5c0b75a48819467f, 0x080499f049c2a5e7,
      0x421bcf92f4b75e27, 0x3e475a11b75c2e5a}},
    {"sram_burst", "sram=1e-2,burst=2,rng=5",
     {0xbf00a81fe8887d4b, 0x202f121f2ad1e171, 0xa62b7892220ecd6f,
      0x626511d9635521b8, 0x7ff0c5387bf8153d}},
    {"sram_secded", "sram=1e-2,burst=2,ecc=secded,rng=5",
     {0x4e97aaba96f310ba, 0xe6f05f7756a777b7, 0xb182bf475755897a,
      0x9ea3eb6d39753c6e, 0x2285136377d8b1d1}},
    {"stuck", "stuck=0:1,rng=5",
     {0x99fa1d5981cfe3d5, 0xb002c6974a2176c0, 0xd1041924e0a0ef97,
      0xf50ba7ddb0955516, 0x94a622dff588a201}},
    {"stuck_accum", "stuck=1:0,accum=0.005,rng=5",
     {0xef3ddddf0d9e277b, 0x7db3f88cbd89fc61, 0xc7819e640f6d0733,
      0x34b9acb0a458cc92, 0x7055ee3250bdbeba}},
};

class ScReferenceGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ScReferenceGolden, ForwardAndBackwardDigestsArePinned) {
  const GoldenCase& gc = GetParam();
  std::optional<ScopedFaultInjection> inject;
  if (gc.spec[0] == '\0') {
    inject.emplace(nullptr);
  } else {
    const auto cfg = FaultConfig::parse(gc.spec);
    ASSERT_TRUE(cfg.ok()) << gc.spec;
    inject.emplace(*cfg);
  }
  for (std::size_t m = 0; m < std::size(kModes); ++m) {
    const std::uint64_t got = digest_mode(kModes[m]);
    char hex[24];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, gc.digest[m])
        << "accum=" << nn::to_string(kModes[m]) << " digest " << hex;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Faults, ScReferenceGolden, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace geo
