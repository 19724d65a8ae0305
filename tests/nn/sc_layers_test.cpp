#include "nn/sc_layers.hpp"

#include "nn/quantize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace geo::nn {
namespace {

Tensor random_acts(std::vector<int> shape, unsigned seed, float lo = 0.0f,
                   float hi = 1.0f) {
  Tensor x(std::move(shape));
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  for (auto& v : x.data()) v = dist(rng);
  return x;
}

ScLayerConfig cfg(AccumMode accum, int stream_len,
                  sc::Sharing sharing = sc::Sharing::kModerate,
                  sc::RngKind rng = sc::RngKind::kLfsr) {
  ScLayerConfig c;
  c.accum = accum;
  c.stream_len = stream_len;
  c.sharing = sharing;
  c.rng = rng;
  c.layer_salt = 12;
  return c;
}

double mean_abs_diff(const Tensor& a, const Tensor& b) {
  double acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc += std::abs(a[i] - b[i]);
  return acc / static_cast<double>(a.size());
}

TEST(ScLayerConfig, LfsrBitsMatchStreamLength) {
  EXPECT_EQ(cfg(AccumMode::kPbw, 32).lfsr_bits(), 5u);
  EXPECT_EQ(cfg(AccumMode::kPbw, 128).lfsr_bits(), 7u);
  EXPECT_THROW(cfg(AccumMode::kPbw, 100).lfsr_bits(), std::invalid_argument);
}

// The shared window walk against direct division: tap t of a window is
// (ic, ky, kx) = (t / (kh*kw), t / kw % kh, t % kw). Random shapes with
// kh != kw, strides past the kernel, padding 0-2 and tap ranges [lo, hi)
// that start and end inside a kernel row.
TEST(WindowWalk, MatchesDivisionOracle) {
  std::mt19937_64 rng(21);
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  int wide_stride = 0, mid_row_lo = 0, mid_row_hi = 0;
  for (int draw = 0; draw < 400; ++draw) {
    ScShape s;
    s.kh = pick(1, 5);
    do s.kw = pick(1, 5); while (s.kw == s.kh);
    s.cin = pick(1, 4);
    s.cout = 1;
    s.stride = pick(1, 7);
    s.pad = pick(0, 2);
    s.hin = pick(std::max(1, s.kh - 2 * s.pad), s.kh + 8);
    s.win = pick(std::max(1, s.kw - 2 * s.pad), s.kw + 8);
    const int K = s.taps();
    int lo = pick(0, K), hi = pick(0, K);
    if (lo > hi) std::swap(lo, hi);
    wide_stride += s.stride > std::max(s.kh, s.kw);
    mid_row_lo += lo % s.kw != 0;
    mid_row_hi += hi % s.kw != 0;
    const std::size_t windows =
        static_cast<std::size_t>(s.hout()) * static_cast<std::size_t>(s.wout());
    for (std::size_t pos = 0; pos < windows; ++pos) {
      std::vector<std::pair<int, std::size_t>> walked, expected;
      for_each_window_tap(s, pos, lo, hi, [&](int t, std::size_t slot) {
        walked.emplace_back(t, slot);
      });
      const int oy = static_cast<int>(pos) / s.wout();
      const int ox = static_cast<int>(pos) % s.wout();
      for (int t = lo; t < hi; ++t) {
        const int ic = t / (s.kh * s.kw), ky = t / s.kw % s.kh, kx = t % s.kw;
        const int iy = oy * s.stride - s.pad + ky;
        const int ix = ox * s.stride - s.pad + kx;
        if (iy < 0 || iy >= s.hin || ix < 0 || ix >= s.win) continue;
        expected.emplace_back(
            t, (static_cast<std::size_t>(ic) * s.hin + iy) * s.win + ix);
      }
      ASSERT_EQ(walked, expected)
          << "cin=" << s.cin << " hin=" << s.hin << " win=" << s.win
          << " kh=" << s.kh << " kw=" << s.kw << " stride=" << s.stride
          << " pad=" << s.pad << " taps [" << lo << ", " << hi
          << ") window " << pos;
    }
  }
  // The draw must exercise what the oracle is for.
  EXPECT_GE(wide_stride, 40);
  EXPECT_GE(mid_row_lo, 100);
  EXPECT_GE(mid_row_hi, 100);
}

// ScAccumulator against a bit-serial oracle. The machine and the nn layers
// share the kernel, so their differential test cannot see a bug in it; this
// one recomputes each channel cycle by cycle: AND every tap's activation bit
// with the channel's weight bit, OR the products per group (or, under kFxp,
// count each one), then count. The run starts mid-bank (channel 2 of
// nch + 3), the tap range [lo, hi) starts past 0, and every fourth tap is
// padding.
TEST(ScAccumulator, MatchesBitSerialOracle) {
  struct Geometry {
    int cin, k, hw;  // hw = 1 with k = 1 is a fully-connected layer
  };
  for (const AccumMode mode : {AccumMode::kOr, AccumMode::kPbw,
                               AccumMode::kPbhw, AccumMode::kFxp})
    for (const Geometry g : {Geometry{2, 3, 5}, Geometry{40, 1, 1}})
      for (const std::size_t len : {std::size_t{64}, std::size_t{100}})
        for (const int nch : {1, 5, 64, 65}) {
          const TapLayout layout =
              tap_layout(mode, ScShape{g.cin, g.hw, g.hw, 1, g.k, g.k, 1, 0});
          const int K = layout.taps;
          const int cout = nch + 3;
          const int c0 = 2;
          const std::size_t wpl = (len + 63) / 64;
          std::mt19937_64 rng(len * 131 + static_cast<std::size_t>(nch));
          // Random streams, zero past `len` like every generated stream.
          auto fill = [&](std::vector<std::uint64_t>& v) {
            for (std::size_t i = 0; i < v.size(); ++i) {
              v[i] = rng() & rng();
              const std::size_t bit0 = i % wpl * 64;
              if (bit0 + 64 > len) v[i] &= (1ull << (len - bit0)) - 1;
            }
          };
          std::vector<std::uint64_t> act(static_cast<std::size_t>(K) * wpl);
          std::vector<std::uint64_t> wpos(act.size() * cout), wneg(wpos.size());
          fill(act);
          fill(wpos);
          fill(wneg);
          std::vector<const std::uint64_t*> taps(static_cast<std::size_t>(K));
          for (int t = 0; t < K; ++t)
            taps[static_cast<std::size_t>(t)] =
                t % 4 == 1 ? nullptr : &act[static_cast<std::size_t>(t) * wpl];
          const int lo = 3, hi = K - 2;

          ScAccumulator acc(layout, len, cout, nullptr);
          std::vector<ScAccumulator::Sum> sums(static_cast<std::size_t>(nch));
          acc.accumulate(0, 1, lo, hi, taps.data(), &wpos[c0 * wpl],
                         &wneg[c0 * wpl], sums);

          auto bit = [](const std::uint64_t* s, std::size_t i) {
            return static_cast<int>((s[i >> 6] >> (i & 63)) & 1u);
          };
          const auto groups = static_cast<std::size_t>(layout.groups);
          for (int c = 0; c < nch; ++c) {
            const auto ch = static_cast<std::size_t>(c0 + c);
            std::int64_t counter = 0;
            std::vector<std::int64_t> pos(groups), neg(groups);
            for (std::size_t i = 0; i < len; ++i) {
              std::vector<int> up(groups), un(groups);
              for (int t = lo; t < hi; ++t) {
                const std::uint64_t* a = taps[static_cast<std::size_t>(t)];
                if (a == nullptr) continue;
                const std::size_t w =
                    (static_cast<std::size_t>(t) * cout + ch) * wpl;
                const int p = bit(a, i) & bit(&wpos[w], i);
                const int n = bit(a, i) & bit(&wneg[w], i);
                if (groups == 0) {
                  counter += p - n;
                  continue;
                }
                const auto gi = static_cast<std::size_t>(
                    layout.group[static_cast<std::size_t>(t)]);
                up[gi] |= p;
                un[gi] |= n;
              }
              for (std::size_t gi = 0; gi < groups; ++gi) {
                pos[gi] += up[gi];
                neg[gi] += un[gi];
              }
            }
            double atten = 0.0;
            for (std::size_t gi = 0; gi < groups; ++gi) {
              counter += pos[gi] - neg[gi];
              atten += 1.0 - static_cast<double>(std::max(pos[gi], neg[gi])) /
                                 static_cast<double>(len);
            }
            const ScAccumulator::Sum& s = sums[static_cast<std::size_t>(c)];
            EXPECT_EQ(s.counter, counter)
                << to_string(mode) << " K=" << K << " len=" << len
                << " nch=" << nch << " channel " << c;
            EXPECT_DOUBLE_EQ(s.atten, atten)
                << to_string(mode) << " K=" << K << " len=" << len
                << " nch=" << nch << " channel " << c;
          }
        }
}

TEST(ScConv2d, FxpAccumulationApproximatesFloatConv) {
  // With per-product fixed-point accumulation the SC conv is an unbiased
  // estimate of the float conv (up to quantization + stream noise).
  std::mt19937 rng(1);
  ScConv2d conv(2, 3, 3, 1, 1, rng, cfg(AccumMode::kFxp, 256));
  // Small weights keep products in the accurate SC regime.
  for (auto& w : conv.weight().value.data()) w *= 0.5f;
  const Tensor x = random_acts({1, 2, 5, 5}, 2, 0.0f, 0.8f);

  std::mt19937 rng2(1);
  Conv2d ref(2, 3, 3, 1, 1, rng2);
  ref.weight().value = conv.weight().value;

  const Tensor y_sc = conv.forward(x, false);
  const Tensor y_ref = ref.forward(x, false);
  ASSERT_EQ(y_sc.shape(), y_ref.shape());
  EXPECT_LT(mean_abs_diff(y_sc, y_ref), 0.12)
      << "FXP-accumulated SC conv should track float conv";
}

TEST(ScConv2d, OrAccumulationUnderestimatesLargeSums) {
  std::mt19937 rng(3);
  ScConv2d or_conv(4, 2, 3, 1, 1, rng, cfg(AccumMode::kOr, 128));
  std::mt19937 rng2(3);
  ScConv2d fxp_conv(4, 2, 3, 1, 1, rng2, cfg(AccumMode::kFxp, 128));
  // All-positive weights make the OR-union loss visible.
  or_conv.weight().value.fill(0.35f);
  fxp_conv.weight().value.fill(0.35f);
  const Tensor x = random_acts({1, 4, 6, 6}, 4, 0.3f, 0.9f);
  const Tensor y_or = or_conv.forward(x, false);
  const Tensor y_fxp = fxp_conv.forward(x, false);
  double or_sum = 0, fxp_sum = 0;
  for (std::size_t i = 0; i < y_or.size(); ++i) {
    or_sum += y_or[i];
    fxp_sum += y_fxp[i];
  }
  EXPECT_LT(or_sum, 0.7 * fxp_sum)
      << "OR accumulation saturates well below the true sum";
}

TEST(ScConv2d, PbwSitsBetweenOrAndFxp) {
  // Partial binary accumulation recovers part of the OR loss (Sec. III-B).
  auto run = [](AccumMode mode) {
    std::mt19937 rng(5);
    ScConv2d conv(4, 2, 3, 1, 1, rng, cfg(mode, 128));
    conv.weight().value.fill(0.3f);
    const Tensor x = random_acts({1, 4, 6, 6}, 6, 0.3f, 0.9f);
    const Tensor y = conv.forward(x, false);
    double sum = 0;
    for (float v : y.data()) sum += v;
    return sum;
  };
  const double or_sum = run(AccumMode::kOr);
  const double pbw_sum = run(AccumMode::kPbw);
  const double pbhw_sum = run(AccumMode::kPbhw);
  const double fxp_sum = run(AccumMode::kFxp);
  EXPECT_LT(or_sum, pbw_sum);
  EXPECT_LT(pbw_sum, pbhw_sum);
  EXPECT_LE(pbhw_sum, fxp_sum * 1.02);
}

TEST(ScConv2d, ApcTracksFxp) {
  auto run = [](AccumMode mode) {
    std::mt19937 rng(7);
    ScConv2d conv(2, 2, 3, 1, 1, rng, cfg(mode, 128));
    const Tensor x = random_acts({1, 2, 5, 5}, 8, 0.0f, 0.9f);
    return conv.forward(x, false);
  };
  const Tensor apc = run(AccumMode::kApc);
  const Tensor fxp = run(AccumMode::kFxp);
  EXPECT_LT(mean_abs_diff(apc, fxp), 0.25);
}

TEST(ScConv2d, DeterministicWithLfsr) {
  std::mt19937 rng(9);
  ScConv2d conv(2, 2, 3, 1, 1, rng, cfg(AccumMode::kPbw, 64));
  const Tensor x = random_acts({1, 2, 5, 5}, 10);
  const Tensor a = conv.forward(x, false);
  const Tensor b = conv.forward(x, false);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_FLOAT_EQ(a[i], b[i]) << "LFSR forward must replay exactly";
}

TEST(ScConv2d, TrngVariesBetweenPasses) {
  std::mt19937 rng(9);
  ScConv2d conv(2, 2, 3, 1, 1, rng,
                cfg(AccumMode::kPbw, 64, sc::Sharing::kModerate,
                    sc::RngKind::kTrng));
  const Tensor x = random_acts({1, 2, 5, 5}, 10);
  const Tensor a = conv.forward(x, false);
  const Tensor b = conv.forward(x, false);
  EXPECT_GT(mean_abs_diff(a, b), 1e-4)
      << "TRNG passes draw fresh randomness";
}

TEST(ScConv2d, ExtremeSharingDistortsOutputs) {
  auto run = [](sc::Sharing sharing) {
    std::mt19937 rng(11);
    ScConv2d conv(8, 2, 3, 1, 1, rng, cfg(AccumMode::kOr, 128, sharing));
    const Tensor x = random_acts({1, 8, 6, 6}, 12, 0.2f, 0.8f);
    std::mt19937 rng2(11);
    Conv2d ref(8, 2, 3, 1, 1, rng2);
    ref.weight().value = conv.weight().value;
    // Compare against float conv clipped through the same OR expectation is
    // overkill; relative distortion between sharing levels is the point.
    return mean_abs_diff(conv.forward(x, false), ref.forward(x, false));
  };
  const double moderate = run(sc::Sharing::kModerate);
  const double extreme = run(sc::Sharing::kExtreme);
  EXPECT_GT(extreme, moderate)
      << "extreme sharing correlates streams inside the dot product";
}

TEST(ScConv2d, StoresFloatInputForBackward) {
  std::mt19937 rng(13);
  ScConv2d conv(1, 1, 3, 1, 1, rng, cfg(AccumMode::kPbw, 64));
  const Tensor x = random_acts({1, 1, 4, 4}, 14);
  conv.forward(x, true);
  Tensor g({1, 1, 4, 4}, 1.0f);
  const Tensor gx = conv.backward(g);  // must not throw; float path
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(ScLinear, ApproximatesFloatLinear) {
  std::mt19937 rng(15);
  ScLayerConfig c = cfg(AccumMode::kFxp, 256);
  ScLinear lin(8, 3, rng, c);
  for (auto& w : lin.weight().value.data()) w *= 0.5f;
  std::mt19937 rng2(15);
  Linear ref(8, 3, rng2);
  ref.weight().value = lin.weight().value;
  ref.bias().value = lin.bias().value;
  const Tensor x = random_acts({2, 8}, 16, 0.0f, 0.9f);
  EXPECT_LT(mean_abs_diff(lin.forward(x, false), ref.forward(x, false)),
            0.15);
}

TEST(ScLinear, OrModeUsesSingleGroup) {
  std::mt19937 rng(17);
  ScLinear lin(16, 2, rng, cfg(AccumMode::kOr, 128));
  lin.weight().value.fill(0.4f);
  lin.bias().value.fill(0.0f);
  Tensor x({1, 16}, 0.8f);
  const Tensor y = lin.forward(x, false);
  // One OR group saturates at ~1.0 despite the true sum being ~5.1.
  EXPECT_LT(y[0], 1.1f);
}

TEST(QuantConv2d, MatchesManualFakeQuant) {
  std::mt19937 rng(19);
  QuantConv2d qconv(2, 2, 3, 1, 1, rng, 4);
  std::mt19937 rng2(19);
  Conv2d ref(2, 2, 3, 1, 1, rng2);
  ref.weight().value = fake_quantize_signed(qconv.weight().value, 4);
  const Tensor x = random_acts({1, 2, 5, 5}, 20);
  const Tensor yq = qconv.forward(x, false);
  const Tensor yr = ref.forward(fake_quantize_unsigned(x, 4), false);
  for (std::size_t i = 0; i < yq.size(); ++i)
    EXPECT_NEAR(yq[i], yr[i], 1e-5);
}

TEST(QuantConv2d, WeightsRestoredAfterForward) {
  std::mt19937 rng(21);
  QuantConv2d qconv(1, 1, 3, 1, 1, rng, 4);
  const Tensor before = qconv.weight().value;
  qconv.forward(random_acts({1, 1, 4, 4}, 22), false);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_FLOAT_EQ(qconv.weight().value[i], before[i]);
}

TEST(QuantLinear, LowerBitsHigherError) {
  const Tensor x = random_acts({4, 16}, 23);
  auto err = [&](unsigned bits) {
    std::mt19937 rng(25);
    QuantLinear q(16, 4, rng, bits);
    std::mt19937 rng2(25);
    Linear ref(16, 4, rng2);
    return mean_abs_diff(q.forward(x, false), ref.forward(x, false));
  };
  EXPECT_GT(err(2), err(8));
}

TEST(ScModelConfig, KeyDistinguishesConfigs) {
  ScModelConfig a = ScModelConfig::stochastic(32, 64);
  ScModelConfig b = ScModelConfig::stochastic(64, 128);
  EXPECT_NE(a.key(), b.key());
  b = a;
  b.sharing = sc::Sharing::kExtreme;
  EXPECT_NE(a.key(), b.key());
  EXPECT_EQ(ScModelConfig::fixed_point(4).key(), "fxp4");
}

}  // namespace
}  // namespace geo::nn
