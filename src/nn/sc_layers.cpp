#include "nn/sc_layers.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "fault/fault_model.hpp"
#include "nn/quantize.hpp"
#include "sc/progressive.hpp"
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

void generate_layer_stream(std::uint64_t* dst, std::size_t wpl,
                           std::size_t length, const ScLayerConfig& cfg,
                           sc::SeedSpec spec, std::uint32_t q,
                           fault::FaultModel* fm,
                           fault::FaultModel::Site domain, std::uint64_t site,
                           bool use_table) {
  std::fill(dst, dst + wpl, 0);
  if (fm != nullptr) spec = fm->corrupt_seed(spec, site);
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
  if (fm != nullptr) fm->corrupt_stream(dst, length, domain, site);
}

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::size_t popcount_words(const std::uint64_t* w, std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i)
    c += static_cast<std::size_t>(std::popcount(w[i]));
  return c;
}

// Flat storage for many equal-length packed streams.
struct StreamBank {
  std::vector<std::uint64_t> words;
  std::size_t wpl = 1;  // words per stream

  void resize(std::size_t count, std::size_t words_per_stream) {
    wpl = words_per_stream;
    words.assign(count * wpl, 0);
  }

  std::uint64_t* at(std::size_t i) { return &words[i * wpl]; }
  const std::uint64_t* at(std::size_t i) const { return &words[i * wpl]; }
};

// For TRNGs, a fresh pass must see fresh randomness while preserving the
// sharing structure (equal base seeds stay equal). Deterministic sources
// ignore the pass counter.
sc::SeedSpec pass_spec(const ScLayerConfig& cfg, sc::SeedSpec spec,
                       std::uint64_t pass) {
  if (cfg.rng == sc::RngKind::kTrng)
    spec.seed = static_cast<std::uint32_t>(
        mix64(spec.seed ^ (pass * 0xD1B54A32D192ED03ull)) | 1u);
  return spec;
}

// Streaming APC state (modeled after [24]): products are consumed in pairs,
// merged with alternating OR / AND at weight 2, so the over-count of OR
// merges and the under-count of AND merges cancel in expectation; see
// sc/parallel_counter.hpp. The positive and negative channels pair
// independently (they feed separate counter inputs in hardware).
struct ApcState {
  explicit ApcState(std::size_t wpl)
      : channels_{Channel(wpl), Channel(wpl)} {}

  void push(const std::uint64_t* prod, std::size_t wpl, std::int64_t sign) {
    Channel& ch = channels_[sign > 0 ? 0 : 1];
    if (!ch.has_pending) {
      std::copy(prod, prod + wpl, ch.pending.begin());
      ch.has_pending = true;
      return;
    }
    std::int64_t merged = 0;
    for (std::size_t i = 0; i < wpl; ++i) {
      const std::uint64_t m = ch.use_or ? (ch.pending[i] | prod[i])
                                        : (ch.pending[i] & prod[i]);
      merged += std::popcount(m);
    }
    total_ += 2 * merged * sign;
    ch.has_pending = false;
    ch.use_or = !ch.use_or;
  }

  void reset() {
    for (Channel& ch : channels_) {
      ch.has_pending = false;
      ch.use_or = true;
    }
    total_ = 0;
  }

  std::int64_t finish(std::size_t wpl) {
    const std::int64_t signs[2] = {+1, -1};
    for (int c = 0; c < 2; ++c) {
      Channel& ch = channels_[c];
      if (ch.has_pending) {
        total_ += signs[c] * static_cast<std::int64_t>(
                                 popcount_words(ch.pending.data(), wpl));
        ch.has_pending = false;
      }
    }
    return total_;
  }

 private:
  struct Channel {
    explicit Channel(std::size_t wpl) : pending(wpl, 0) {}
    std::vector<std::uint64_t> pending;
    bool has_pending = false;
    bool use_or = true;
  };
  Channel channels_[2];
  std::int64_t total_ = 0;
};

// Shape of one SC layer as a convolution. A fully-connected layer is a 1x1
// convolution on a 1x1 input, as arch::ConvShape::fc models it.
struct ScGeometry {
  int cin, h, w, cout, k, stride, pad;
};

// The SC forward pass shared by ScConv2d and ScLinear.
//   weights (cout, cin, k, k);  x (nb, cin, h, w);
//   y, atten (nb, cout, ho, wo)
// Under OR / partial-binary accumulation, tap t = (ic*k + ky)*k + kx ORs its
// product into group tap_group[t] of `groups`, and the group popcounts are
// summed in fixed point. Fxp and APC accumulation take every product
// directly and leave atten at 1. Fault sites follow the GeoMachine: weight
// slots (oc*K + t), activation buffer slots (no batch term: the same
// physical slot misbehaves identically for every image), and accumulator
// inputs (oidx*K + t)*2, +1 for the negative channel.
void sc_forward(const ScLayerConfig& cfg, std::uint64_t pass,
                const ScGeometry& g, std::span<const float> weights,
                std::span<const float> x, int nb,
                std::span<const int> tap_group, int groups,
                std::span<float> y, std::span<float> atten) {
  const int L = cfg.stream_len;
  const std::size_t len = static_cast<std::size_t>(L);
  const std::size_t wpl = (len + 63) / 64;
  const int k = g.k;
  const int K = g.cin * k * k;
  const sc::SeedAllocator alloc(cfg.sharing, cfg.lfsr_bits(),
                                sc::KernelExtents{g.cout, g.cin, k, k},
                                cfg.layer_salt);

  fault::FaultModel* const fm = fault::active();
  const bool accum_faults = fm != nullptr && fm->accum_active();
  const bool stuck_faults = fm != nullptr && fm->stuck_enabled();
  const bool use_table = sc::stream_table_enabled();

  // --- weight streams (fixed for the whole batch) -------------------------
  StreamBank wpos, wneg;
  wpos.resize(weights.size(), wpl);
  wneg.resize(weights.size(), wpl);
  {
    std::size_t idx = 0;
    for (int oc = 0; oc < g.cout; ++oc)
      for (int ic = 0; ic < g.cin; ++ic)
        for (int ky = 0; ky < k; ++ky)
          for (int kx = 0; kx < k; ++kx, ++idx) {
            const float w = std::clamp(weights[idx], -1.0f, 1.0f);
            std::uint32_t q = quantize_unsigned(std::abs(w), cfg.value_bits);
            if (fm != nullptr)
              q = fm->sram_read(q, cfg.value_bits,
                                fault::FaultModel::Site::kWeightSram, idx);
            const sc::SeedSpec spec =
                pass_spec(cfg, alloc.weight({oc, ic, ky, kx}), pass);
            generate_layer_stream((w >= 0.0f ? wpos : wneg).at(idx), wpl,
                                  len, cfg, spec, q, fm,
                                  fault::FaultModel::Site::kWeightStream, idx,
                                  use_table);
          }
  }

  const int ho = (g.h + 2 * g.pad - k) / g.stride + 1;
  const int wo = (g.w + 2 * g.pad - k) / g.stride + 1;
  const std::size_t outputs = static_cast<std::size_t>(g.cout) * ho * wo;
  const std::size_t slots = static_cast<std::size_t>(g.cin) * g.h * g.w;
  const bool direct =
      cfg.accum == AccumMode::kFxp || cfg.accum == AccumMode::kApc;
  const bool apc_mode = cfg.accum == AccumMode::kApc;
  std::vector<std::uint64_t> scratch(
      direct ? 0 : static_cast<std::size_t>(groups) * 2 * wpl);
  // Per-cycle pos/neg counts, needed only when a stuck parallel-counter
  // column is modeled on the direct (kFxp) accumulation path.
  std::vector<std::uint32_t> cyc;
  if (stuck_faults && cfg.accum == AccumMode::kFxp) cyc.resize(2 * len);
  // Products are materialized when the accumulator-input wires are faulty or
  // the accumulator consumes whole product streams (APC pairs, per-cycle
  // stuck counts); otherwise the AND fuses into the OR or the popcount.
  const bool stuck_cycles = !cyc.empty();
  const bool need_prod = accum_faults || apc_mode || stuck_cycles;
  std::vector<std::uint64_t> prod(2 * wpl);
  ApcState apc(wpl);
  StreamBank act;
  act.resize(slots, wpl);
  const double inv_len = 1.0 / static_cast<double>(L);

  for (int b = 0; b < nb; ++b) {
    // --- activation streams for this image --------------------------------
    const float* xb = x.data() + static_cast<std::size_t>(b) * slots;
    for (std::size_t idx = 0; idx < slots; ++idx) {
      const float a = std::clamp(xb[idx], 0.0f, 1.0f);
      std::uint32_t q = quantize_unsigned(a, cfg.value_bits);
      if (fm != nullptr)
        q = fm->sram_read(q, cfg.value_bits,
                          fault::FaultModel::Site::kActSram, idx);
      const sc::SeedSpec spec =
          pass_spec(cfg, alloc.activation(static_cast<int>(idx)), pass);
      generate_layer_stream(act.at(idx), wpl, len, cfg, spec, q, fm,
                            fault::FaultModel::Site::kActStream, idx,
                            use_table);
    }

    // --- MAC rows ----------------------------------------------------------
    std::size_t oidx = 0;
    for (int oc = 0; oc < g.cout; ++oc)
      for (int oy = 0; oy < ho; ++oy)
        for (int ox = 0; ox < wo; ++ox, ++oidx) {
          if (direct) {
            apc.reset();
            std::fill(cyc.begin(), cyc.end(), 0);
          } else {
            std::fill(scratch.begin(), scratch.end(), 0);
          }
          std::int64_t total = 0;
          for (int ic = 0; ic < g.cin; ++ic)
            for (int ky = 0; ky < k; ++ky) {
              const int iy = oy * g.stride - g.pad + ky;
              if (iy < 0 || iy >= g.h) continue;
              for (int kx = 0; kx < k; ++kx) {
                const int ix = ox * g.stride - g.pad + kx;
                if (ix < 0 || ix >= g.w) continue;
                const int t = (ic * k + ky) * k + kx;
                const std::uint64_t* a = act.at(
                    (static_cast<std::size_t>(ic) * g.h + iy) * g.w + ix);
                const std::size_t widx = static_cast<std::size_t>(oc) * K + t;
                const std::uint64_t* wp = wpos.at(widx);
                const std::uint64_t* wn = wneg.at(widx);
                const std::uint64_t* pp = prod.data();
                const std::uint64_t* pn = pp + wpl;
                if (need_prod) {
                  for (std::size_t i = 0; i < wpl; ++i) {
                    prod[i] = a[i] & wp[i];
                    prod[wpl + i] = a[i] & wn[i];
                  }
                  if (accum_faults) {
                    const std::uint64_t asite =
                        (static_cast<std::uint64_t>(oidx) * K + t) * 2;
                    fm->corrupt_accum_input(prod.data(), len, asite);
                    fm->corrupt_accum_input(prod.data() + wpl, len,
                                            asite + 1);
                  }
                }
                if (!direct) {
                  std::uint64_t* gp =
                      &scratch[static_cast<std::size_t>(tap_group[t]) * 2 *
                               wpl];
                  std::uint64_t* gn = gp + wpl;
                  if (need_prod) {
                    for (std::size_t i = 0; i < wpl; ++i) {
                      gp[i] |= pp[i];
                      gn[i] |= pn[i];
                    }
                  } else {
                    for (std::size_t i = 0; i < wpl; ++i) {
                      gp[i] |= a[i] & wp[i];
                      gn[i] |= a[i] & wn[i];
                    }
                  }
                } else if (apc_mode) {
                  bool has_p = false, has_n = false;
                  for (std::size_t i = 0; i < wpl; ++i) {
                    has_p |= pp[i] != 0;
                    has_n |= pn[i] != 0;
                  }
                  if (has_p) apc.push(pp, wpl, +1);
                  if (has_n) apc.push(pn, wpl, -1);
                } else if (stuck_cycles) {
                  for (std::size_t i = 0; i < wpl; ++i) {
                    for (std::uint64_t bp = pp[i]; bp != 0; bp &= bp - 1)
                      ++cyc[i * 64 +
                            static_cast<unsigned>(std::countr_zero(bp))];
                    for (std::uint64_t bn = pn[i]; bn != 0; bn &= bn - 1)
                      ++cyc[len + i * 64 +
                            static_cast<unsigned>(std::countr_zero(bn))];
                  }
                } else if (need_prod) {
                  for (std::size_t i = 0; i < wpl; ++i)
                    total += std::popcount(pp[i]) - std::popcount(pn[i]);
                } else {
                  for (std::size_t i = 0; i < wpl; ++i)
                    total += std::popcount(a[i] & wp[i]) -
                             std::popcount(a[i] & wn[i]);
                }
              }
            }

          const std::size_t out =
              static_cast<std::size_t>(b) * outputs + oidx;
          if (!direct) {
            double att = 0.0;
            for (int gi = 0; gi < groups; ++gi) {
              const std::uint64_t* gp =
                  &scratch[static_cast<std::size_t>(gi) * 2 * wpl];
              const std::uint64_t* gn = gp + wpl;
              const auto pos =
                  static_cast<std::int64_t>(popcount_words(gp, wpl));
              const auto neg =
                  static_cast<std::int64_t>(popcount_words(gn, wpl));
              if (stuck_faults) {
                // Each group's OR output feeds a 1-bit/cycle counter; the
                // stuck column corrupts it cycle by cycle (matches the
                // GeoMachine path exactly).
                for (int c = 0; c < L; ++c) {
                  total += fm->apply_stuck(static_cast<std::uint32_t>(
                      (gp[c >> 6] >> (c & 63)) & 1u));
                  total -= fm->apply_stuck(static_cast<std::uint32_t>(
                      (gn[c >> 6] >> (c & 63)) & 1u));
                }
              } else {
                total += pos - neg;
              }
              att += 1.0 - static_cast<double>(std::max(pos, neg)) * inv_len;
            }
            atten[out] = static_cast<float>(std::max(att / groups, 0.05));
          } else {
            if (apc_mode) total = apc.finish(wpl);
            for (std::size_t c = 0; c < cyc.size() / 2; ++c) {
              total += fm->apply_stuck(cyc[c]);
              total -= fm->apply_stuck(cyc[len + c]);
            }
          }
          y[out] = static_cast<float>(total * inv_len);
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
  const int k = kernel_;
  // Partial-binary group of each tap (ic, ky, kx): PBW sums the kernel's W
  // taps in fixed point, PBHW its H and W taps; OR (and the direct modes,
  // which ignore groups) use one.
  int groups = 1;
  if (cfg_.accum == AccumMode::kPbw) groups = k;
  if (cfg_.accum == AccumMode::kPbhw) groups = k * k;
  std::vector<int> tap_group(static_cast<std::size_t>(in_ch_) * k * k);
  for (std::size_t t = 0; t < tap_group.size(); ++t)
    tap_group[t] = static_cast<int>(t % static_cast<std::size_t>(groups));

  const int nb = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int ho = (h + 2 * pad_ - k) / stride_ + 1;
  const int wo = (w + 2 * pad_ - k) / stride_ + 1;
  Tensor y({nb, out_ch_, ho, wo});
  atten_ = Tensor({nb, out_ch_, ho, wo}, 1.0f);
  sc_forward(cfg_, forward_count_++,
             {in_ch_, h, w, out_ch_, k, stride_, pad_}, weight_.value.data(),
             x.data(), nb, tap_group, groups, y.data(), atten_.data());
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
  // Partial-binary accumulation sums OR groups of kFcGroup inputs in fixed
  // point; all-OR accumulation ORs every input into one group.
  const bool or_all = cfg_.accum == AccumMode::kOr;
  const int groups = or_all ? 1 : (in_ + kFcGroup - 1) / kFcGroup;
  std::vector<int> tap_group(static_cast<std::size_t>(in_));
  for (int i = 0; i < in_; ++i)
    tap_group[static_cast<std::size_t>(i)] = or_all ? 0 : i / kFcGroup;

  const int nb = x.dim(0);
  Tensor y({nb, out_});
  atten_ = Tensor({nb, out_}, 1.0f);
  sc_forward(cfg_, forward_count_++, {in_, 1, 1, out_, 1, 1, 0},
             weight_.value.data(), x.data(), nb, tap_group, groups, y.data(),
             atten_.data());
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
    int cin, int hin, int win, int cout, int kh, int kw, int stride, int pad,
    std::span<const float> weights, std::span<const float> input,
    unsigned value_bits, int stream_len) {
  if (cin <= 0 || hin <= 0 || win <= 0 || cout <= 0 || kh <= 0 || kw <= 0 ||
      stride <= 0 || pad < 0)
    throw std::invalid_argument("fxp_reference_counters: bad shape");
  const int ho = (hin + 2 * pad - kh) / stride + 1;
  const int wo = (win + 2 * pad - kw) / stride + 1;
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
