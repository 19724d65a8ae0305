#include "nn/sc_layers.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/env.hpp"
#include "fault/fault_model.hpp"
#include "nn/quantize.hpp"
#include "sc/progressive.hpp"
#include "sc/simd.hpp"
#include "sc/sng.hpp"
#include "sc/stream_table.hpp"

namespace geo::nn {

const char* to_string(AccumMode mode) noexcept {
  switch (mode) {
    case AccumMode::kOr: return "or";
    case AccumMode::kPbw: return "pbw";
    case AccumMode::kPbhw: return "pbhw";
    case AccumMode::kFxp: return "fxp";
    case AccumMode::kApc: return "apc";
  }
  return "?";
}

std::string ScModelConfig::key() const {
  switch (mode) {
    case Mode::kFloat: return "float";
    case Mode::kFixedPoint: return "fxp" + std::to_string(fp_bits);
    case Mode::kStochastic:
      return std::string("sc_") + sc::to_string(rng) + "_" +
             sc::to_string(sharing) + "_" + to_string(accum) + "_" +
             std::to_string(stream_len_pool) + "-" +
             std::to_string(stream_len) +
             (progressive ? "_prog" : "") + "_s" + std::to_string(seed);
  }
  return "?";
}

unsigned ScLayerConfig::lfsr_bits() const {
  unsigned n = 0;
  int l = stream_len;
  while (l > 1) {
    l >>= 1;
    ++n;
  }
  if ((1 << n) != stream_len)
    throw std::invalid_argument("ScLayerConfig: stream_len must be 2^n");
  return n;
}

ScLayerConfig ScLayerConfig::from_model(const ScModelConfig& model,
                                        int stream_len, int layer_index) {
  ScLayerConfig cfg;
  cfg.rng = model.rng;
  cfg.sharing = model.sharing;
  cfg.accum = model.accum;
  cfg.stream_len = stream_len;
  cfg.value_bits = model.value_bits;
  cfg.progressive = model.progressive;
  cfg.layer_salt = model.seed * 1000003ull + static_cast<std::uint64_t>(layer_index);
  return cfg;
}

namespace {

// Generates the stream of magnitude `v` (in [0, 1]) into `dst`: quantized to
// value_bits, read through SRAM `sram` and generated into buffer `buf`, both
// at fault site `site`. The seed is corrupted before the stream-table cache
// is keyed, so a seed-upset stream is served from the corrupted sequence's
// table, never the healthy one. Returns what the SRAM read did.
fault::FaultModel::SramRead generate_layer_stream(
    std::uint64_t* dst, const ScLayerConfig& cfg, sc::SeedSpec spec, float v,
    fault::FaultModel* fm, fault::FaultModel::Site sram,
    fault::FaultModel::Site buf, std::uint64_t site, bool use_table) {
  const auto length = static_cast<std::size_t>(cfg.stream_len);
  const std::size_t wpl = (length + 63) / 64;
  fault::FaultModel::SramRead read{quantize_unsigned(v, cfg.value_bits)};
  if (fm != nullptr) {
    read = fm->sram_read(read.word, cfg.value_bits, sram, site);
    spec = fm->corrupt_seed(spec, site);
  }
  const std::uint32_t q = read.word;
  std::fill(dst, dst + wpl, 0);
  if (q != 0) {
    const unsigned n = spec.bits;
    sc::StreamGenerator& gen = sc::StreamGenerator::local();
    if (cfg.progressive) {
      sc::ProgressiveSchedule sched;
      sched.value_bits = cfg.value_bits;
      sched.lfsr_bits = n;
      gen.generate_progressive(dst, wpl, length, cfg.rng, spec, sched, q,
                               use_table);
    } else {
      const std::uint32_t vn = n >= cfg.value_bits
                                   ? q << (n - cfg.value_bits)
                                   : q >> (cfg.value_bits - n);
      gen.generate(dst, wpl, length, cfg.rng, spec, vn, use_table);
    }
  }
  // A defective buffer cell flips bits even in an all-zero stream.
  if (fm != nullptr) fm->corrupt_stream(dst, length, buf, site);
  return read;
}

}  // namespace

LayerSeeds::LayerSeeds(const ScLayerConfig& cfg, const ScShape& shape,
                       std::uint64_t pass)
    : alloc_(cfg.sharing, cfg.lfsr_bits(),
             sc::KernelExtents{shape.cout, shape.cin, shape.kh, shape.kw},
             cfg.layer_salt),
      reseed_(cfg.rng == sc::RngKind::kTrng),
      pass_(pass) {}

sc::SeedSpec LayerSeeds::for_pass(sc::SeedSpec spec) const {
  if (reseed_)
    spec.seed = static_cast<std::uint32_t>(
        core::mix64(spec.seed ^ (pass_ * 0xD1B54A32D192ED03ull)) | 1u);
  return spec;
}

std::int64_t generate_weight_bank(const ScLayerConfig& cfg,
                                  const ScShape& shape,
                                  const LayerSeeds& seeds,
                                  std::span<const float> weights,
                                  fault::FaultModel* fm, bool use_table,
                                  std::vector<std::uint64_t>& wpos,
                                  std::vector<std::uint64_t>& wneg) {
  const std::size_t wpl = (static_cast<std::size_t>(cfg.stream_len) + 63) / 64;
  wpos.assign(weights.size() * wpl, 0);
  wneg.assign(weights.size() * wpl, 0);
  const int kw = shape.kw, kh = shape.kh, cout = shape.cout;
  const int K = shape.taps();
  // Storage order s = t*cout + oc. Serial: fanning out on the thread pool
  // was no faster (docs/PARALLELISM.md).
  std::size_t s = 0;
  std::int64_t retry_cycles = 0;
  for (int t = 0; t < K; ++t)
    for (int oc = 0; oc < cout; ++oc, ++s) {
      const std::size_t idx = static_cast<std::size_t>(oc) * K + t;
      const float w = std::clamp(weights[idx], -1.0f, 1.0f);
      retry_cycles +=
          generate_layer_stream((w >= 0.0f ? wpos : wneg).data() + s * wpl,
                                cfg,
                                seeds.weight({oc, t / (kw * kh), t / kw % kh,
                                              t % kw}),
                                std::abs(w), fm,
                                fault::FaultModel::Site::kWeightSram,
                                fault::FaultModel::Site::kWeightStream, idx,
                                use_table)
              .retry_cycles;
    }
  return retry_cycles;
}

fault::FaultModel::SramRead generate_activation_stream(
    std::uint64_t* dst, const ScLayerConfig& cfg, const LayerSeeds& seeds,
    std::size_t slot, float a, fault::FaultModel* fm, bool use_table) {
  return generate_layer_stream(dst, cfg, seeds.activation(slot),
                               std::clamp(a, 0.0f, 1.0f), fm,
                               fault::FaultModel::Site::kActSram,
                               fault::FaultModel::Site::kActStream, slot,
                               use_table);
}

std::int64_t generate_activation_streams(const ScLayerConfig& cfg,
                                         const LayerSeeds& seeds,
                                         std::span<const float> input,
                                         fault::FaultModel* fm,
                                         bool use_table,
                                         std::vector<std::uint64_t>& act,
                                         std::span<std::uint8_t> zeroed) {
  const std::size_t wpl = (static_cast<std::size_t>(cfg.stream_len) + 63) / 64;
  act.resize(input.size() * wpl);
  std::int64_t retry_cycles = 0;
  for (std::size_t slot = 0; slot < input.size(); ++slot) {
    const fault::FaultModel::SramRead read = generate_activation_stream(
        &act[slot * wpl], cfg, seeds, slot, input[slot], fm, use_table);
    if (!zeroed.empty()) zeroed[slot] = read.zeroed;
    retry_cycles += read.retry_cycles;
  }
  return retry_cycles;
}

// Streaming APC state (modeled after [24]) for one output: products are
// consumed in pairs, merged with alternating OR / AND at weight 2, so the
// over-count of OR merges and the under-count of AND merges cancel in
// expectation; see sc/parallel_counter.hpp. The positive (0) and negative
// (1) channels pair independently (they feed separate counter inputs in
// hardware). The pending products live in the accumulator's buffer.
struct ScAccumulator::ApcState {
  std::uint64_t* pending[2];  // wpl words each
  std::size_t wpl;
  bool has_pending[2] = {false, false};
  bool use_or[2] = {true, true};
  std::int64_t total = 0;

  void push(const std::uint64_t* prod, int ch) {
    if (!has_pending[ch]) {
      std::copy(prod, prod + wpl, pending[ch]);
      has_pending[ch] = true;
      return;
    }
    const std::uint64_t merged =
        use_or[ch] ? sc::simd::or_popcount(pending[ch], prod, wpl)
                   : sc::simd::and_popcount(pending[ch], prod, wpl);
    total += (ch == 0 ? 2 : -2) * static_cast<std::int64_t>(merged);
    has_pending[ch] = false;
    use_or[ch] = !use_or[ch];
  }

  std::int64_t finish() {
    for (int ch = 0; ch < 2; ++ch)
      if (has_pending[ch])
        total += (ch == 0 ? 1 : -1) *
                 static_cast<std::int64_t>(
                     sc::simd::popcount_words(pending[ch], wpl));
    return total;
  }
};

TapLayout tap_layout(AccumMode accum, const ScShape& shape) {
  TapLayout layout;
  layout.accum = accum;
  layout.taps = shape.taps();
  if (accum == AccumMode::kFxp || accum == AccumMode::kApc) return layout;
  const int kh = shape.kh, kw = shape.kw;
  const bool fc = kh == 1 && kw == 1 && shape.hin == 1 && shape.win == 1;
  layout.group.resize(static_cast<std::size_t>(layout.taps));
  for (int t = 0; t < layout.taps; ++t) {
    const int kx = t % kw;
    const int ky = t / kw % kh;
    int g = 0;
    if (accum == AccumMode::kPbw) g = fc ? t / kFcGroup : kx;
    if (accum == AccumMode::kPbhw) g = fc ? t / kFcGroup : ky * kw + kx;
    layout.group[static_cast<std::size_t>(t)] = g;
    layout.groups = std::max(layout.groups, g + 1);
  }
  return layout;
}

ScAccumulator::ScAccumulator(const TapLayout& layout, std::size_t length,
                             int cout, fault::FaultModel* fm)
    : layout_(layout),
      len_(length),
      wpl_((length + 63) / 64),
      tap_stride_(static_cast<std::size_t>(cout) * wpl_),
      fm_(fm),
      accum_faults_(fm != nullptr && fm->accum_active()),
      stuck_faults_(fm != nullptr && fm->stuck_enabled()) {}

ScAccumulator::~ScAccumulator() = default;

void ScAccumulator::accumulate(std::size_t oidx, std::size_t ostride, int lo,
                               int hi, const std::uint64_t* const* act,
                               const std::uint64_t* wpos,
                               const std::uint64_t* wneg,
                               std::span<Sum> sums) {
  const std::size_t nch = sums.size();
  const std::size_t wpl = wpl_;
  const std::size_t row = nch * wpl;  // one (pos or neg) row per channel
  std::fill(sums.begin(), sums.end(), Sum{});
  groups_.assign(static_cast<std::size_t>(layout_.groups) * 2 * row, 0);
  prod_.resize(2 * row);
  counts_.resize(2 * nch);

  // fn(t, a, wp, wn) for every non-padding tap of [lo, hi); wp/wn are the
  // run's weight rows at tap t.
  auto for_each_tap = [&](auto&& fn) {
    for (int t = lo; t < hi; ++t) {
      const std::uint64_t* a = act[t];
      if (a == nullptr) continue;  // padding tap
      const std::size_t off = static_cast<std::size_t>(t) * tap_stride_;
      fn(t, a, wpos + off, wneg + off);
    }
  };
  // Materializes tap t's products for every channel in prod_ (pos rows,
  // then neg rows) and corrupts their accumulator-input wires.
  auto products = [&](int t, const std::uint64_t* a, const std::uint64_t* wp,
                      const std::uint64_t* wn) {
    std::fill(prod_.begin(), prod_.end(), 0);
    std::uint64_t* pp = prod_.data();
    std::uint64_t* pn = pp + row;
    sc::simd::or_and_rows(pp, a, wp, nch, wpl);
    sc::simd::or_and_rows(pn, a, wn, nch, wpl);
    if (!accum_faults_) return;
    for (std::size_t c = 0; c < nch; ++c) {
      const std::uint64_t site =
          ((oidx + c * ostride) * static_cast<std::uint64_t>(layout_.taps) +
           static_cast<std::uint64_t>(t)) *
          2;
      fm_->corrupt_accum_input(pp + c * wpl, len_, site);
      fm_->corrupt_accum_input(pn + c * wpl, len_, site + 1);
    }
  };
  auto group_rows = [&](int t) {
    return &groups_[static_cast<std::size_t>(layout_.group[t]) * 2 * row];
  };

  if (layout_.groups > 0 && !accum_faults_) {
    // The AND fuses into the OR: products are never materialized.
    for_each_tap([&](int t, const auto* a, const auto* wp, const auto* wn) {
      std::uint64_t* gp = group_rows(t);
      sc::simd::or_and_rows(gp, a, wp, nch, wpl);
      sc::simd::or_and_rows(gp + row, a, wn, nch, wpl);
    });
  } else if (layout_.groups > 0) {
    for_each_tap([&](int t, const auto* a, const auto* wp, const auto* wn) {
      products(t, a, wp, wn);
      std::uint64_t* gp = group_rows(t);
      sc::simd::or_into(gp, prod_.data(), 2 * row);
    });
  } else if (layout_.accum == AccumMode::kApc) {
    pending_.resize(2 * row);
    apc_.assign(nch, ApcState{});
    for (std::size_t c = 0; c < nch; ++c) {
      std::uint64_t* p = &pending_[2 * c * wpl];
      apc_[c].pending[0] = p;
      apc_[c].pending[1] = p + wpl;
      apc_[c].wpl = wpl;
    }
    for_each_tap([&](int t, const auto* a, const auto* wp, const auto* wn) {
      products(t, a, wp, wn);
      sc::simd::popcount_rows(counts_.data(), prod_.data(), 2 * nch, wpl);
      for (std::size_t c = 0; c < nch; ++c) {
        if (counts_[c] != 0) apc_[c].push(&prod_[c * wpl], 0);
        if (counts_[nch + c] != 0) apc_[c].push(&prod_[row + c * wpl], 1);
      }
    });
    for (std::size_t c = 0; c < nch; ++c) sums[c].counter = apc_[c].finish();
  } else if (stuck_faults_) {
    // A stuck column on the direct (kFxp) path corrupts per-cycle counts:
    // scatter the product bits into per-channel pos/neg counts per cycle.
    cycles_.assign(nch * 2 * len_, 0);
    for_each_tap([&](int t, const auto* a, const auto* wp, const auto* wn) {
      products(t, a, wp, wn);
      for (std::size_t r = 0; r < 2 * nch; ++r) {
        std::uint32_t* cyc = &cycles_[r * len_];
        const std::uint64_t* p = &prod_[r * wpl];
        for (std::size_t i = 0; i < wpl; ++i)
          for (std::uint64_t b = p[i]; b != 0; b &= b - 1)
            ++cyc[i * 64 + static_cast<unsigned>(std::countr_zero(b))];
      }
    });
    for (std::size_t c = 0; c < nch; ++c) {
      const std::uint32_t* cp = &cycles_[c * len_];
      const std::uint32_t* cn = &cycles_[(nch + c) * len_];
      for (std::size_t i = 0; i < len_; ++i) {
        sums[c].counter += fm_->apply_stuck(cp[i]);
        sums[c].counter -= fm_->apply_stuck(cn[i]);
      }
    }
  } else {
    for_each_tap([&](int t, const auto* a, const auto* wp, const auto* wn) {
      products(t, a, wp, wn);
      sc::simd::popcount_rows(counts_.data(), prod_.data(), 2 * nch, wpl);
      for (std::size_t c = 0; c < nch; ++c)
        sums[c].counter += static_cast<std::int64_t>(counts_[c]) -
                           static_cast<std::int64_t>(counts_[nch + c]);
    });
  }

  // Group reduction: one popcount per (group, sign, channel) row.
  const double inv_len = 1.0 / static_cast<double>(len_);
  for (int g = 0; g < layout_.groups; ++g) {
    const std::uint64_t* gp = &groups_[static_cast<std::size_t>(g) * 2 * row];
    const std::uint64_t* gn = gp + row;
    sc::simd::popcount_rows(counts_.data(), gp, 2 * nch, wpl);
    for (std::size_t c = 0; c < nch; ++c) {
      const auto pos = static_cast<std::int64_t>(counts_[c]);
      const auto neg = static_cast<std::int64_t>(counts_[nch + c]);
      if (stuck_faults_) {
        // Each group's OR output feeds a 1-bit/cycle counter; the stuck
        // column corrupts it cycle by cycle.
        const std::uint64_t* p = gp + c * wpl;
        const std::uint64_t* n = gn + c * wpl;
        for (std::size_t i = 0; i < len_; ++i) {
          sums[c].counter += fm_->apply_stuck(
              static_cast<std::uint32_t>((p[i >> 6] >> (i & 63)) & 1u));
          sums[c].counter -= fm_->apply_stuck(
              static_cast<std::uint32_t>((n[i >> 6] >> (i & 63)) & 1u));
        }
      } else {
        sums[c].counter += pos - neg;
      }
      sums[c].atten += 1.0 - static_cast<double>(std::max(pos, neg)) * inv_len;
    }
  }
}

namespace {

// The SC forward pass shared by ScConv2d and ScLinear.
//   weights (cout, cin, kh, kw);  x (nb, cin, hin, win);
//   y, atten (nb, cout, hout, wout)
// Each window accumulates every output channel in one ScAccumulator call
// over the layer's tap_layout and tap-major weight bank; outputs with OR
// groups get the mean group attenuation, the others keep 1. Fault sites
// follow the GeoMachine: weight slots (oc*K + t) and activation buffer
// slots (no batch term: the same physical slot misbehaves identically for
// every image).
void sc_forward(const ScLayerConfig& cfg, std::uint64_t pass,
                const ScShape& g, std::span<const float> weights,
                std::span<const float> x, int nb, std::span<float> y,
                std::span<float> atten) {
  const auto len = static_cast<std::size_t>(cfg.stream_len);
  const std::size_t wpl = (len + 63) / 64;
  const int K = g.taps();
  const LayerSeeds seeds(cfg, g, pass);
  fault::FaultModel* const fm = fault::active();
  const bool use_table = sc::stream_table_enabled();

  // Weight streams, fixed for the whole batch.
  std::vector<std::uint64_t> wpos, wneg;
  generate_weight_bank(cfg, g, seeds, weights, fm, use_table, wpos, wneg);

  const std::size_t xy = static_cast<std::size_t>(g.hout()) * g.wout();
  const auto outputs = static_cast<std::size_t>(g.outputs());
  const auto slots = static_cast<std::size_t>(g.activations());
  const TapLayout layout = tap_layout(cfg.accum, g);
  ScAccumulator acc(layout, len, g.cout, fm);
  std::vector<ScAccumulator::Sum> sums(static_cast<std::size_t>(g.cout));
  std::vector<const std::uint64_t*> taps(static_cast<std::size_t>(K));
  std::vector<std::uint64_t> act;
  const double inv_len = 1.0 / static_cast<double>(len);

  for (int b = 0; b < nb; ++b) {
    generate_activation_streams(
        cfg, seeds, x.subspan(static_cast<std::size_t>(b) * slots, slots), fm,
        use_table, act, {});

    // MAC rows: one window's taps feed every output channel at once.
    for (std::size_t pos = 0; pos < xy; ++pos) {
      std::fill(taps.begin(), taps.end(), nullptr);
      for_each_window_tap(g, pos, 0, K, [&](int t, std::size_t slot) {
        taps[static_cast<std::size_t>(t)] = &act[slot * wpl];
      });
      acc.accumulate(pos, xy, 0, K, taps.data(), wpos.data(), wneg.data(),
                     sums);
      for (int oc = 0; oc < g.cout; ++oc) {
        const ScAccumulator::Sum& s = sums[static_cast<std::size_t>(oc)];
        const std::size_t out = static_cast<std::size_t>(b) * outputs +
                                static_cast<std::size_t>(oc) * xy + pos;
        if (layout.groups > 0)
          atten[out] =
              static_cast<float>(std::max(s.atten / layout.groups, 0.05));
        y[out] = static_cast<float>(s.counter * inv_len);
      }
    }
  }
}

// Straight-through gradient scaled per output by the forward pass's
// attenuation (empty before the first forward).
Tensor attenuate(Tensor grad_out, const Tensor& atten) {
  for (std::size_t i = 0; i < atten.size(); ++i) grad_out[i] *= atten[i];
  return grad_out;
}

}  // namespace

// ------------------------------------------------------------- ScConv2d

ScConv2d::ScConv2d(int in_ch, int out_ch, int kernel, int stride, int pad,
                   std::mt19937& rng, const ScLayerConfig& cfg)
    : Conv2d(in_ch, out_ch, kernel, stride, pad, rng), cfg_(cfg) {}

Tensor ScConv2d::forward(const Tensor& x, bool /*train*/) {
  input_ = x;  // float input for the inherited backward
  const int nb = x.dim(0);
  const ScShape g{in_ch_,  x.dim(2), x.dim(3), out_ch_,
                  kernel_, kernel_,  stride_,  pad_};
  Tensor y({nb, out_ch_, g.hout(), g.wout()});
  atten_ = Tensor({nb, out_ch_, g.hout(), g.wout()}, 1.0f);
  sc_forward(cfg_, forward_count_++, g, weight_.value.data(), x.data(), nb,
             y.data(), atten_.data());
  return y;
}

Tensor ScConv2d::backward(const Tensor& grad_out) {
  return Conv2d::backward(attenuate(grad_out, atten_));
}

// ------------------------------------------------------------- ScLinear

ScLinear::ScLinear(int in_features, int out_features, std::mt19937& rng,
                   const ScLayerConfig& cfg)
    : Linear(in_features, out_features, rng), cfg_(cfg) {}

Tensor ScLinear::forward(const Tensor& x, bool /*train*/) {
  input_ = x;
  const int nb = x.dim(0);
  Tensor y({nb, out_});
  atten_ = Tensor({nb, out_}, 1.0f);
  sc_forward(cfg_, forward_count_++, {in_, 1, 1, out_, 1, 1, 1, 0},
             weight_.value.data(), x.data(), nb, y.data(), atten_.data());
  for (int b = 0; b < nb; ++b)
    for (int o = 0; o < out_; ++o)
      y.at(b, o) += bias_.value[static_cast<std::size_t>(o)];
  return y;
}

Tensor ScLinear::backward(const Tensor& grad_out) {
  return Linear::backward(attenuate(grad_out, atten_));
}

// ------------------------------------------------------------- Quantized

Tensor QuantConv2d::forward(const Tensor& x, bool /*train*/) {
  input_ = x;  // straight-through: float input for backward
  const Tensor saved = weight_.value;
  weight_.value = fake_quantize_signed(saved, bits_);
  Tensor y = forward_float(fake_quantize_unsigned(x, bits_));
  weight_.value = saved;
  return y;
}

Tensor QuantLinear::forward(const Tensor& x, bool /*train*/) {
  input_ = x;
  const Tensor saved = weight_.value;
  weight_.value = fake_quantize_signed(saved, bits_);
  Tensor y = forward_float(fake_quantize_unsigned(x, bits_));
  weight_.value = saved;
  return y;
}

// ------------------------------------------------------------- Reference

std::vector<std::int32_t> fxp_reference_counters(
    const ScShape& shape, std::span<const float> weights,
    std::span<const float> input, unsigned value_bits, int stream_len) {
  const auto [cin, hin, win, cout, kh, kw, stride, pad] = shape;
  if (cin <= 0 || hin <= 0 || win <= 0 || cout <= 0 || kh <= 0 || kw <= 0 ||
      stride <= 0 || pad < 0)
    throw std::invalid_argument("fxp_reference_counters: bad shape");
  const int ho = shape.hout();
  const int wo = shape.wout();
  if (ho <= 0 || wo <= 0)
    throw std::invalid_argument("fxp_reference_counters: empty output");
  const std::size_t wsize = static_cast<std::size_t>(cout) * cin * kh * kw;
  const std::size_t isize = static_cast<std::size_t>(cin) * hin * win;
  if (weights.size() != wsize || input.size() != isize)
    throw std::invalid_argument("fxp_reference_counters: span size mismatch");

  // An ideal stream of length L carrying code q (of 2^vb levels) has
  // popcount q/2^vb * L; an AND of two independent ideal streams has the
  // product of the probabilities. The counters the machine accumulates are
  // pos-minus-neg popcounts, so the noise-free expectation per output is
  //   round(L * sum_taps sign(w) * (qw/2^vb) * (qa/2^vb)).
  // Same quantization as the stream generators above: |w| clamped to [0,1],
  // a clamped to [0,1], both to `value_bits` unsigned codes.
  const double scale = static_cast<double>(1u << value_bits);
  std::vector<std::int32_t> counters(
      static_cast<std::size_t>(cout) * ho * wo, 0);
  for (int oc = 0; oc < cout; ++oc) {
    for (int oy = 0; oy < ho; ++oy) {
      for (int ox = 0; ox < wo; ++ox) {
        double acc = 0.0;
        for (int ic = 0; ic < cin; ++ic) {
          for (int ky = 0; ky < kh; ++ky) {
            const int iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= hin) continue;
            for (int kx = 0; kx < kw; ++kx) {
              const int ix = ox * stride - pad + kx;
              if (ix < 0 || ix >= win) continue;
              const float w = std::clamp(
                  weights[((static_cast<std::size_t>(oc) * cin + ic) * kh +
                           ky) *
                              kw +
                          kx],
                  -1.0f, 1.0f);
              const float a = std::clamp(
                  input[(static_cast<std::size_t>(ic) * hin + iy) * win + ix],
                  0.0f, 1.0f);
              const double pw =
                  quantize_unsigned(std::abs(w), value_bits) / scale;
              const double pa = quantize_unsigned(a, value_bits) / scale;
              acc += (w < 0.0f ? -1.0 : 1.0) * pw * pa;
            }
          }
        }
        counters[(static_cast<std::size_t>(oc) * ho + oy) * wo + ox] =
            static_cast<std::int32_t>(std::llround(acc * stream_len));
      }
    }
  }
  return counters;
}

}  // namespace geo::nn
