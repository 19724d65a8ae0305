// Bit-accurate SC-simulated convolution and fully-connected layers, plus the
// fixed-point (fake-quantized) variants used by the Eyeriss baselines.
//
// The SC layers implement the paper's forward pass exactly at stream level:
// split-unipolar streams from shared LFSR/TRNG SNGs (Sec. II-A), optional
// progressive generation (Sec. II-B), and OR / partial-binary / fixed-point
// accumulation (Sec. III-B). backward() is inherited from the float layers —
// SC forward guided by floating-point backpropagation, as in the paper.
//
// Both layers run one SC forward core: as on GEO's MAC rows, a
// fully-connected layer is a 1x1 convolution on a 1x1 input, so stream
// generation, fault-site keying, accumulation and gradient attenuation exist
// once. GeoMachine shares the front end and the datapath with it: the seed
// rule (LayerSeeds), stream generation (generate_weight_bank, and
// generate_activation_streams once per layer input, with
// generate_activation_stream for the machine's per-slot retry), the window
// walk (for_each_window_tap), the tap grouping (tap_layout) and the
// accumulation (ScAccumulator). So the machine equals the reference by
// construction, under every generator, on every layer whose OR groups fit
// in one kernel slice.
//
// Activations are unipolar (post-ReLU values in [0, 1]); weights are signed,
// so each weight carries a positive or a negative channel stream and every
// product needs two ANDs. Per-channel accumulation runs over packed 64-bit
// words.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_model.hpp"
#include "nn/layers.hpp"
#include "nn/sc_config.hpp"

namespace geo::nn {

// Per-layer slice of ScModelConfig (the {sp, s} stream-length choice has
// already been made by the model builder).
struct ScLayerConfig {
  sc::RngKind rng = sc::RngKind::kLfsr;
  sc::Sharing sharing = sc::Sharing::kModerate;
  AccumMode accum = AccumMode::kPbw;
  int stream_len = 128;
  unsigned value_bits = 8;
  bool progressive = false;
  std::uint64_t layer_salt = 0;

  bool operator==(const ScLayerConfig&) const = default;

  // GEO matches LFSR width to stream length: streams of 2^n use n bits.
  unsigned lfsr_bits() const;

  // Builds the per-layer config from a model config.
  static ScLayerConfig from_model(const ScModelConfig& model, int stream_len,
                                  int layer_index);
};

// The SC path's one seed rule: a layer's seeds as a pure function of its
// config, shape and forward pass. Under kTrng each pass re-seeds (fresh
// randomness; equal base seeds stay equal); deterministic sources ignore
// the pass. GeoMachine runs pass 0, the reference's first forward.
class LayerSeeds {
 public:
  LayerSeeds(const ScLayerConfig& cfg, const ScShape& shape,
             std::uint64_t pass = 0);

  sc::SeedSpec weight(const sc::WeightPos& pos) const {
    return for_pass(alloc_.weight(pos));
  }
  sc::SeedSpec activation(std::size_t slot) const {
    return for_pass(alloc_.activation(static_cast<int>(slot)));
  }

 private:
  sc::SeedSpec for_pass(sc::SeedSpec spec) const;

  sc::SeedAllocator alloc_;
  bool reseed_;
  std::uint64_t pass_;
};

// Generates a layer's tap-major weight bank (see TapLayout) into
// `wpos`/`wneg`: each weight is clamped to [-1, 1], its magnitude quantized,
// read through the weight SRAM and generated into the bank of its sign,
// with fault sites oc*K + t. Runs serially on the calling thread, in
// storage order. Returns the ECC retry cycles the weight SRAM reads cost.
std::int64_t generate_weight_bank(const ScLayerConfig& cfg,
                                  const ScShape& shape,
                                  const LayerSeeds& seeds,
                                  std::span<const float> weights,
                                  fault::FaultModel* fm, bool use_table,
                                  std::vector<std::uint64_t>& wpos,
                                  std::vector<std::uint64_t>& wneg);

// Generates the stream of input slot `slot` (value `a`, clamped to [0, 1])
// into `dst`: quantized, read through the activation SRAM and generated,
// with fault site `slot`. Returns what the slot's SRAM read did.
//
// Both generators use the shared stream tables (sc/stream_table.hpp) when
// `use_table` is set and tick the thread's generator otherwise; the two are
// bit-identical. `fm` may be null; when set, SRAM reads, seeds and stream
// buffers are corrupted keyed by (domain, site).
fault::FaultModel::SramRead generate_activation_stream(
    std::uint64_t* dst, const ScLayerConfig& cfg, const LayerSeeds& seeds,
    std::size_t slot, float a, fault::FaultModel* fm, bool use_table);

// Generates the stream of every input slot into `act` (slot s at s*wpl):
// GEO reads each activation from SRAM and generates its stream once per
// layer (Sec. II-A), and every pass reads that stream. Runs serially on the
// calling thread, in storage order, including slots no window reads. When
// `zeroed` is non-empty (one entry per slot), zeroed[s] is set to whether
// slot s's SRAM read came back ECC-zeroed. Returns the ECC retry cycles the
// activation SRAM reads cost.
std::int64_t generate_activation_streams(const ScLayerConfig& cfg,
                                         const LayerSeeds& seeds,
                                         std::span<const float> input,
                                         fault::FaultModel* fm,
                                         bool use_table,
                                         std::vector<std::uint64_t>& act,
                                         std::span<std::uint8_t> zeroed);

// The SC path's window walk: calls fn(t, slot) for every tap t in [lo, hi)
// of output window pos = oy*wout + ox that reads input slot
// (ic*hin + iy)*win + ix, skipping padding. Tap t = (ic*kh + ky)*kw + kx;
// (ic, ky, kx) is stepped with t, not divided out per tap.
template <typename Fn>
void for_each_window_tap(const ScShape& s, std::size_t pos, int lo, int hi,
                         Fn&& fn) {
  const int wo = s.wout();
  const int y0 = static_cast<int>(pos) / wo * s.stride - s.pad;
  const int x0 = static_cast<int>(pos) % wo * s.stride - s.pad;
  int kx = lo % s.kw;
  int ky = lo / s.kw % s.kh;
  int ic = lo / (s.kw * s.kh);
  for (int t = lo; t < hi; ++t) {
    const int iy = y0 + ky;
    const int ix = x0 + kx;
    if (iy >= 0 && iy < s.hin && ix >= 0 && ix < s.win)
      fn(t, (static_cast<std::size_t>(ic) * s.hin + iy) * s.win + ix);
    if (++kx == s.kw) {
      kx = 0;
      if (++ky == s.kh) {
        ky = 0;
        ++ic;
      }
    }
  }
}

// How a layer's taps feed its accumulators (Sec. III-B). Tap t of an output
// is t = (ic*kh + ky)*kw + kx. Under kOr / kPbw / kPbhw tap t ORs its
// product into OR group group[t] and the group popcounts are summed in
// fixed point; kFxp and kApc count every product and have no groups.
//
// A layer's weight bank is stored tap-major to match: the stream of tap t
// for output channel oc sits at (t*cout + oc)*wpl, so any run of channels
// is contiguous at every tap. Fault sites stay keyed by oc*K + t, so the
// storage order never changes a fault draw.
struct TapLayout {
  AccumMode accum = AccumMode::kPbw;
  int taps = 0;
  int groups = 0;
  std::vector<int> group;  // one entry per tap; empty without groups
};

// The one tap-to-group rule of ScConv2d, ScLinear and GeoMachine: kOr puts
// every tap in group 0, kPbw groups by kx and kPbhw by ky*kw + kx. A
// fully-connected layer (a 1x1 kernel on a 1x1 input) has no window to
// split, so kPbw and kPbhw group its taps by t / kFcGroup.
TapLayout tap_layout(AccumMode accum, const ScShape& shape);

// The row-broadcast SC accumulation of ScConv2d, ScLinear and GeoMachine,
// their one MAC inner loop. As one activation SNG feeds every MAC row in
// GEO, one window's gathered tap streams feed a run of output channels at
// once: for each tap of [lo, hi) the activation stream is ANDed with every
// channel's weight stream and ORed into that channel's group (kOr / kPbw /
// kPbhw), or the products are counted directly (kFxp, or kApc through the
// approximate parallel counter); then each channel's pos − neg group counts
// are summed, through the stuck counter column when one is configured.
// Under an accumulator-input fault model each product is formed first and
// its wires corrupted at site (oidx*K + t)*2 (+1 for the negative channel);
// draws are keyed by site, so the tap-outer loop order is free. The mode is
// chosen once per call, outside the tap loop. Holds the working buffers, so
// each thread that accumulates owns one; `layout` must outlive it.
class ScAccumulator {
 public:
  // `cout` is the weight bank's channel count (its tap stride).
  ScAccumulator(const TapLayout& layout, std::size_t length, int cout,
                fault::FaultModel* fm);
  ~ScAccumulator();

  struct Sum {
    std::int64_t counter = 0;  // pos - neg count
    double atten = 0.0;        // sum over groups of 1 - max(pos, neg)/length
  };

  // Accumulates taps [lo, hi) of one window into sums.size() consecutive
  // output channels. `act[t]` is tap t's activation stream, null for a
  // padding tap. `wpos` and `wneg` point at the first channel's streams in
  // the tap-major bank (tap t at t*cout*wpl, the next channel wpl further
  // on). Channel c of the run is output oidx + c*ostride (its fault sites)
  // and its sum lands in sums[c].
  void accumulate(std::size_t oidx, std::size_t ostride, int lo, int hi,
                  const std::uint64_t* const* act, const std::uint64_t* wpos,
                  const std::uint64_t* wneg, std::span<Sum> sums);

 private:
  struct ApcState;

  const TapLayout& layout_;
  std::size_t len_, wpl_, tap_stride_;
  fault::FaultModel* fm_;
  bool accum_faults_, stuck_faults_;
  // Per-call working buffers, one row of wpl words per channel.
  std::vector<std::uint64_t> groups_;   // groups x (pos, neg) x channels
  std::vector<std::uint64_t> prod_;     // one tap's (pos, neg) x channels
  std::vector<std::uint64_t> counts_;   // popcount of each (pos, neg) row
  std::vector<std::uint64_t> pending_;  // kApc: channels x (pos, neg)
  std::vector<ApcState> apc_;           // kApc: one per channel
  std::vector<std::uint32_t> cycles_;   // kFxp stuck: per-cycle counts
};

// Bit-exact fixed-point reference for one convolution layer: quantizes the
// operands exactly like the SC stream generators (|w| and a to `value_bits`
// unsigned codes) and returns the pos-neg counter totals an ideal noise-free
// stream computation of length `stream_len` converges to. This is the bottom
// rung of the resilience degradation ladder (docs/RESILIENCE.md): a layer
// whose SC execution cannot pass its detection guards is recomputed here,
// deterministically and independent of any fault injection.
//   weights (cout, cin, kh, kw) in [-1, 1];  input (cin, hin, win) in [0, 1]
// Returns (cout, hout, wout) counters.
std::vector<std::int32_t> fxp_reference_counters(
    const ScShape& shape, std::span<const float> weights,
    std::span<const float> input, unsigned value_bits, int stream_len);

class ScConv2d : public Conv2d {
 public:
  ScConv2d(int in_ch, int out_ch, int kernel, int stride, int pad,
           std::mt19937& rng, const ScLayerConfig& cfg);

  Tensor forward(const Tensor& x, bool train) override;

  // Straight-through backward, scaled per output by the OR-union
  // attenuation observed in the forward pass: for y = 1 - prod(1 - p_i),
  // dy/dp_i = prod_{j!=i}(1 - p_j) ~ (1 - y). Without this, saturated
  // unions receive gradients as if they were linear sums and all-OR
  // training diverges; with it, the backward is the "floating-point guided"
  // pass of Sec. IV. Partial-binary groups saturate less, so their
  // attenuation stays near 1 — one mechanical reason GEO trains better
  // than all-OR accumulation.
  Tensor backward(const Tensor& grad_out) override;

  std::string name() const override { return "sc_conv2d"; }

  const ScLayerConfig& config() const noexcept { return cfg_; }
  ScLayerConfig& config() noexcept { return cfg_; }

 private:
  ScLayerConfig cfg_;
  std::uint64_t forward_count_ = 0;
  Tensor atten_;  // per-output gradient attenuation, shaped like the output
};

class ScLinear : public Linear {
 public:
  ScLinear(int in_features, int out_features, std::mt19937& rng,
           const ScLayerConfig& cfg);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;  // see ScConv2d
  std::string name() const override { return "sc_linear"; }

  const ScLayerConfig& config() const noexcept { return cfg_; }
  ScLayerConfig& config() noexcept { return cfg_; }

 private:
  ScLayerConfig cfg_;
  std::uint64_t forward_count_ = 0;
  Tensor atten_;
};

// Fixed-point baseline layers: fake-quantize weights (signed) and input
// activations (unsigned) to `bits` bits in the forward pass,
// straight-through gradients in backward.
class QuantConv2d : public Conv2d {
 public:
  QuantConv2d(int in_ch, int out_ch, int kernel, int stride, int pad,
              std::mt19937& rng, unsigned bits)
      : Conv2d(in_ch, out_ch, kernel, stride, pad, rng), bits_(bits) {}

  Tensor forward(const Tensor& x, bool train) override;
  std::string name() const override { return "quant_conv2d"; }

 private:
  unsigned bits_;
};

class QuantLinear : public Linear {
 public:
  QuantLinear(int in_features, int out_features, std::mt19937& rng,
              unsigned bits)
      : Linear(in_features, out_features, rng), bits_(bits) {}

  Tensor forward(const Tensor& x, bool train) override;
  std::string name() const override { return "quant_linear"; }

 private:
  unsigned bits_;
};

}  // namespace geo::nn
