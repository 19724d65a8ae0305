// Configuration of the simulated compute mode for model building.
#pragma once

#include <cstdint>
#include <string>

#include "sc/rng_source.hpp"
#include "sc/seed_sharing.hpp"

namespace geo::nn {

// Where SC accumulation hands over to fixed point (Sec. III-B).
enum class AccumMode {
  kOr,    // all-OR accumulation (ACOUSTIC-style, fully stochastic)
  kPbw,   // fixed-point across the kernel W dimension, OR elsewhere (GEO)
  kPbhw,  // fixed-point across H and W, OR across Cin
  kFxp,   // every product converted and accumulated in fixed point
  kApc,   // approximate parallel counter [24] over all products
};

const char* to_string(AccumMode mode) noexcept;

// Shape of one SC layer as a convolution: input (cin, hin, win), filter bank
// (cout, cin, kh, kw). A fully-connected layer is a 1x1 convolution on a 1x1
// input. hout()/wout() are the SC path's one output-size rule;
// arch::ConvShape extends this shape, so the machine uses it too.
struct ScShape {
  int cin = 1, hin = 1, win = 1;
  int cout = 1, kh = 1, kw = 1;
  int stride = 1, pad = 0;

  int hout() const { return (hin + 2 * pad - kh) / stride + 1; }
  int wout() const { return (win + 2 * pad - kw) / stride + 1; }
  int taps() const { return cin * kh * kw; }
  std::int64_t outputs() const {
    return static_cast<std::int64_t>(cout) * hout() * wout();
  }
  std::int64_t weights() const {
    return static_cast<std::int64_t>(cout) * taps();
  }
  std::int64_t activations() const {
    return static_cast<std::int64_t>(cin) * hin * win;
  }
};

// OR-group fan-in of a fully-connected layer under partial-binary
// accumulation: each group of kFcGroup inputs is ORed, and the groups are
// summed in fixed point.
inline constexpr int kFcGroup = 16;

struct ScModelConfig {
  enum class Mode { kFloat, kFixedPoint, kStochastic };

  // The paper: "While max pooling is possible, we use average pooling with
  // computation skipping to reduce stream length requirements". Average
  // pooling folds into the output converters' neighbor-add; max pooling
  // needs comparators and cannot skip computation, but is supported.
  enum class PoolMode { kAvg, kMax };

  Mode mode = Mode::kFloat;
  PoolMode pool = PoolMode::kAvg;

  // kFixedPoint: weight/activation precision (Eyeriss baselines: 8 or 4).
  unsigned fp_bits = 8;

  // kStochastic parameters.
  sc::RngKind rng = sc::RngKind::kLfsr;
  sc::Sharing sharing = sc::Sharing::kModerate;
  AccumMode accum = AccumMode::kPbw;
  int stream_len = 128;         // layers without pooling (s)
  int stream_len_pool = 128;    // layers with pooling (sp)
  int stream_len_output = 128;  // output layers always 128 (paper)
  bool progressive = false;
  unsigned value_bits = 8;  // stored fixed-point width of weights/activations
  std::uint64_t seed = 1;   // base salt decorrelating layers

  // A config string usable as a cache key for trained models.
  std::string key() const;

  static ScModelConfig float_model() { return {}; }

  static ScModelConfig fixed_point(unsigned bits) {
    ScModelConfig c;
    c.mode = Mode::kFixedPoint;
    c.fp_bits = bits;
    return c;
  }

  static ScModelConfig stochastic(int stream_len_pool, int stream_len) {
    ScModelConfig c;
    c.mode = Mode::kStochastic;
    c.stream_len_pool = stream_len_pool;
    c.stream_len = stream_len;
    return c;
  }
};

}  // namespace geo::nn
