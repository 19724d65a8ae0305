#include "model.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "harness.hpp"
#include "nn/quantize.hpp"
#include "nn/sc_layers.hpp"
#include "workload.hpp"

namespace perfbench {

using geo::arch::ConvShape;
using geo::arch::GeoMachine;

namespace {

std::vector<float> uniform(std::mt19937_64& rng, std::int64_t n, float lo,
                           float hi) {
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = dist(rng);
  return v;
}

}  // namespace

Model make_model(const geo::arch::NetworkShape& net, std::uint64_t seed) {
  Model m;
  m.name = net.name;
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    Layer l;
    l.shape = net.layers[i];
    l.weights = uniform(rng, l.shape.weights(), -0.6f, 0.6f);
    l.scale.assign(static_cast<std::size_t>(l.shape.cout), 1.0f);
    l.shift.assign(static_cast<std::size_t>(l.shape.cout), 0.0f);
    l.salt = 101 + i;
    m.layers.push_back(std::move(l));
  }
  const std::int64_t in = net.layers.front().activations();
  for (int k = 0; k < kInputPool; ++k)
    m.inputs.push_back(uniform(rng, in, 0.0f, 1.0f));
  return m;
}

std::vector<float> chain(std::span<const std::uint8_t> activations,
                         const ConvShape& shape) {
  std::vector<float> x(activations.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = geo::nn::dequantize_unsigned(activations[i], 8);
  if (!shape.pool) return x;
  const int h = shape.hout(), w = shape.wout();
  const int ph = h / 2, pw = w / 2;
  std::vector<float> pooled(static_cast<std::size_t>(shape.cout) * ph * pw);
  for (int c = 0; c < shape.cout; ++c)
    for (int y = 0; y < ph; ++y)
      for (int xo = 0; xo < pw; ++xo) {
        const auto at = [&](int yy, int xx) {
          return x[(static_cast<std::size_t>(c) * h + yy) * w + xx];
        };
        const float sum = at(2 * y, 2 * xo) + at(2 * y, 2 * xo + 1) +
                          at(2 * y + 1, 2 * xo) + at(2 * y + 1, 2 * xo + 1);
        pooled[(static_cast<std::size_t>(c) * ph + y) * pw + xo] = sum * 0.25f;
      }
  return pooled;
}

Reference run_reference(const Model& model, const geo::arch::HwConfig& hw) {
  Reference ref;
  GeoMachine machine(hw);
  Digest digest;
  ref.cycles.assign(model.layers.size(), 0);
  for (const auto& input : model.inputs) {
    std::vector<std::vector<float>> ins;
    std::vector<std::vector<std::uint8_t>> outs;
    std::vector<float> x = input;
    for (std::size_t l = 0; l < model.layers.size(); ++l) {
      const Layer& layer = model.layers[l];
      auto r = machine.try_run_conv(layer.shape, layer.weights, x, layer.scale,
                                    layer.shift, layer.salt);
      if (!r.ok())
        throw std::runtime_error("reference pass: " + layer.shape.name + ": " +
                                 r.status().to_string());
      ref.cycles[l] = r->stats.total_cycles;
      digest.add(r->activations.data(), r->activations.size());
      std::vector<float> next = chain(r->activations, layer.shape);
      ins.push_back(std::move(x));
      outs.push_back(std::move(r->activations));
      x = std::move(next);
    }
    ref.layer_inputs.push_back(std::move(ins));
    ref.outputs.push_back(std::move(outs));
  }
  ref.digest = digest.hex();
  return ref;
}

std::string check_against_nn(const Model& model, const Reference& ref,
                             const geo::arch::HwConfig& hw,
                             std::string& summary) {
  GeoMachine machine(hw);
  const geo::arch::Compiler compiler(hw);
  summary.clear();
  for (std::size_t l = 0; l < model.layers.size(); ++l) {
    const Layer& layer = model.layers[l];
    const ConvShape& s = layer.shape;
    const std::vector<float>& x = ref.layer_inputs[0][l];
    auto r = machine.try_run_conv(s, layer.weights, x, layer.scale,
                                  layer.shift, layer.salt);
    if (!r.ok()) return s.name + ": " + r.status().to_string();
    if (r->activations != ref.outputs[0][l])
      return s.name + ": machine output differs from the reference pass";
    const int slices =
        compiler.plan_layer(s, compiler.natural_dataflow()).kernel_slices;
    summary += (summary.empty() ? "" : " ") + s.name;
    if (slices > 1) {
      summary += "=skipped(" + std::to_string(slices) + " kernel slices)";
      continue;
    }
    summary += "=ok";

    const geo::nn::ScLayerConfig cfg = machine.layer_config(s, layer.salt);
    std::mt19937 init(1);
    geo::nn::ScConv2d conv(s.cin, s.cout, s.kh, s.stride, s.pad, init, cfg);
    std::copy(layer.weights.begin(), layer.weights.end(),
              conv.weight().value.data().begin());
    geo::nn::Tensor t({1, s.cin, s.hin, s.win});
    std::copy(x.begin(), x.end(), t.data().begin());
    const geo::nn::Tensor y = conv.forward(t, false);
    if (y.size() != r->counters.size())
      return s.name + ": nn output size differs";
    const double len = cfg.stream_len;
    for (std::size_t i = 0; i < y.size(); ++i)
      if (std::abs(r->counters[i] / len - y[i]) > 1e-6)
        return s.name + ": counter " + std::to_string(i) + " is " +
               std::to_string(r->counters[i]) + ", nn::ScConv2d gives " +
               std::to_string(y[i] * len);
  }
  return "";
}

void Workload::build_model(const geo::arch::NetworkShape& net,
                           std::uint64_t seed) {
  model_ = make_model(net, seed);
  ref_ = run_reference(model_, bench_hw());
  if (std::string err = check_against_nn(model_, ref_, bench_hw(), gate_);
      !err.empty())
    throw std::runtime_error("correctness gate: " + err);
}

}  // namespace perfbench
