// The benchmark's networks: seeded weights and inputs for the paper-scale
// LeNet-5 and CNN-4 shapes, the layer-to-layer chain (8-bit dequantize, then
// 2x2 average pooling where the layer pools), and the untimed reference pass
// every timed output is checked against.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "arch/compiler.hpp"
#include "arch/hw_config.hpp"
#include "arch/machine.hpp"

namespace perfbench {

// Inputs cycled by every workload.
inline constexpr int kInputPool = 16;

struct Layer {
  geo::arch::ConvShape shape;
  std::vector<float> weights;        // uniform in [-0.6, 0.6]
  std::vector<float> scale, shift;   // folded BN: 1 and 0 per channel
  std::uint64_t salt = 0;
};

struct Model {
  std::string name;
  std::vector<Layer> layers;
  std::vector<std::vector<float>> inputs;  // kInputPool, uniform in [0, 1]
};

// Weights and inputs drawn from `seed` (same seed, same model).
Model make_model(const geo::arch::NetworkShape& net, std::uint64_t seed);

// The next layer's input from this layer's 8-bit activations: dequantize,
// then 2x2 average pooling per channel when `shape.pool` is set. The output
// is flattened (c, h, w), which is what a following FC layer reads.
std::vector<float> chain(std::span<const std::uint8_t> activations,
                         const geo::arch::ConvShape& shape);

// The reference pass: every input through every layer on a plain
// GeoMachine (try_run_conv), untimed.
struct Reference {
  // layer_inputs[k][l]: input of layer l for pool input k (layer 0's is the
  // pool input itself); outputs[k][l]: layer l's activations.
  std::vector<std::vector<std::vector<float>>> layer_inputs;
  std::vector<std::vector<std::vector<std::uint8_t>>> outputs;
  std::vector<std::int64_t> cycles;  // per layer, machine total_cycles
  std::string digest;                // over every layer output of every input
};

Reference run_reference(const Model& model, const geo::arch::HwConfig& hw);

// Correctness gate: on the first input, each layer's machine output must
// equal the reference pass, and its counters must equal nn::ScConv2d built
// from GeoMachine::layer_config. The nn comparison covers layers whose
// kernel fits one pass; a kernel split into slices is accumulated slice by
// slice on the machine (the OR unions of each slice are added in fixed
// point), which nn::ScConv2d does not model, so those layers are listed as
// skipped in `summary`. Returns "" when the gate passes, otherwise the
// first mismatch.
std::string check_against_nn(const Model& model, const Reference& ref,
                             const geo::arch::HwConfig& hw,
                             std::string& summary);

}  // namespace perfbench
