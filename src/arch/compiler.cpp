#include "arch/compiler.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace geo::arch {

namespace {
constexpr std::int64_t kMaxOperand = 32767;  // largest 16-bit ISA operand

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

int log2_of(int stream_len) {
  const int n = std::bit_width(static_cast<unsigned>(stream_len)) - 1;
  if ((1 << n) != stream_len)
    throw std::invalid_argument("stream length must be a power of two");
  return n;
}
}  // namespace

ConvShape ConvShape::conv(std::string name, int cin, int hw, int cout,
                          int kernel, int pad, bool pool) {
  ConvShape s;
  s.name = std::move(name);
  s.cin = cin;
  s.hin = s.win = hw;
  s.cout = cout;
  s.kh = s.kw = kernel;
  s.pad = pad;
  s.pool = pool;
  return s;
}

ConvShape ConvShape::fc(std::string name, int in, int out, bool output) {
  ConvShape s;
  s.name = std::move(name);
  s.cin = in;
  s.cout = out;
  s.output = output;
  return s;
}

std::int64_t NetworkShape::total_macs() const {
  std::int64_t total = 0;
  for (const auto& l : layers) total += l.macs();
  return total;
}

NetworkShape NetworkShape::cnn4_cifar() {
  NetworkShape n;
  n.name = "cnn4-cifar";
  n.layers = {
      ConvShape::conv("conv1", 3, 32, 32, 5, 2, true),
      ConvShape::conv("conv2", 32, 16, 16, 5, 2, true),
      ConvShape::conv("conv3", 16, 8, 32, 5, 2, true),
      ConvShape::fc("fc", 32 * 4 * 4, 10, true),
  };
  return n;
}

NetworkShape NetworkShape::cnn4_svhn() {
  NetworkShape n = cnn4_cifar();
  n.name = "cnn4-svhn";
  return n;
}

NetworkShape NetworkShape::lenet5() {
  NetworkShape n;
  n.name = "lenet5";
  n.layers = {
      ConvShape::conv("conv1", 1, 28, 6, 5, 0, true),    // 28 -> 24 -> 12
      ConvShape::conv("conv2", 6, 12, 16, 5, 0, true),   // 12 -> 8 -> 4
      ConvShape::fc("fc1", 16 * 4 * 4, 120, false),
      ConvShape::fc("fc2", 120, 84, false),
      ConvShape::fc("fc3", 84, 10, true),
  };
  return n;
}

NetworkShape NetworkShape::vgg16() {
  NetworkShape n;
  n.name = "vgg16";
  // X/Y dimensions downscaled to 32x32 (the paper downscales VGG-16's input
  // dims and shrinks the FC layers to 512).
  struct Block {
    int cin, size, cout;
    bool pool;
  };
  const Block blocks[] = {
      {3, 32, 64, false},   {64, 32, 64, true},     // -> 16
      {64, 16, 128, false}, {128, 16, 128, true},   // -> 8
      {128, 8, 256, false}, {256, 8, 256, false},  {256, 8, 256, true},   // ->4
      {256, 4, 512, false}, {512, 4, 512, false},  {512, 4, 512, true},   // ->2
      {512, 2, 512, false}, {512, 2, 512, false},  {512, 2, 512, true},   // ->1
  };
  int idx = 1;
  for (const auto& b : blocks)
    n.layers.push_back(ConvShape::conv("conv" + std::to_string(idx++), b.cin,
                                       b.size, b.cout, 3, 1, b.pool));
  n.layers.push_back(ConvShape::fc("fc1", 512, 512, false));
  n.layers.push_back(ConvShape::fc("fc2", 512, 10, true));
  return n;
}

const char* to_string(Dataflow df) noexcept {
  switch (df) {
    case Dataflow::kWeightStationary: return "weight-stationary+nearmem";
    case Dataflow::kOutputStationary: return "output-stationary";
    case Dataflow::kInputStationary: return "input-stationary";
  }
  return "?";
}

AccessCounts& AccessCounts::operator+=(const AccessCounts& o) {
  act_reads += o.act_reads;
  act_writes += o.act_writes;
  wgt_reads += o.wgt_reads;
  psum_reads += o.psum_reads;
  psum_writes += o.psum_writes;
  ext_bytes += o.ext_bytes;
  return *this;
}

int Compiler::stream_len_for(const ConvShape& shape) const {
  if (shape.output) return hw_.stream_len_output;
  return shape.pool ? hw_.stream_len_pool : hw_.stream_len;
}

LayerPlan Compiler::plan_layer(const ConvShape& shape, Dataflow df) const {
  telemetry::ScopedTimer timer("compiler.plan_layer", "compiler");
  telemetry::MetricsRegistry::instance()
      .counter("compiler.layers_planned")
      .add(1);
  LayerPlan plan;
  plan.shape = shape;
  plan.dataflow = df;
  plan.stream_len = stream_len_for(shape);
  plan.stream_cycles = 2 * plan.stream_len;  // split-unipolar doubling
  plan.lfsr_bits = std::min(log2_of(plan.stream_len), hw_.lfsr_bits);

  const std::int64_t K = shape.taps();
  const std::int64_t M = hw_.macs_per_row;
  const std::int64_t R = hw_.rows;

  // Kernel slicing: a kernel larger than a row is split into P slices.
  plan.kernel_slices = static_cast<int>(ceil_div(K, M));
  const std::int64_t slice_taps = std::min(K, M);
  // Windows computed concurrently in one row (weights broadcast along it);
  // when the layer has fewer output channels than rows, idle rows take
  // further window positions of the same channels.
  const std::int64_t row_windows = std::max<std::int64_t>(
      1, std::min<std::int64_t>(hw_.windows_per_row, M / slice_taps));
  const std::int64_t rows_per_channel =
      std::max<std::int64_t>(1, R / std::min<std::int64_t>(shape.cout, R));
  plan.windows_per_pass = static_cast<int>(row_windows * rows_per_channel);

  const std::int64_t co_groups = ceil_div(shape.cout, R);
  const std::int64_t window_groups =
      ceil_div(static_cast<std::int64_t>(shape.hout()) * shape.wout(),
               plan.windows_per_pass);
  plan.passes = co_groups * window_groups * plan.kernel_slices;

  const std::int64_t outputs = shape.outputs();
  const std::int64_t written =
      shape.pool ? ceil_div(outputs, 4) : outputs;  // pooling neighbor-add

  AccessCounts& acc = plan.accesses;
  acc.act_writes = written;
  plan.nm_bn_ops = hw_.near_memory ? written : 0;

  switch (df) {
    case Dataflow::kWeightStationary: {
      // Weights enter row buffers once; activations re-stream per
      // channel-group; partial sums live in activation memory (near-memory
      // read-add-write) when the kernel does not fit a row.
      acc.wgt_reads = shape.weights();
      acc.act_reads = shape.activations() * co_groups;
      if (plan.kernel_slices > 1) {
        plan.nm_psum_ops = outputs * (plan.kernel_slices - 1);
        acc.psum_reads = plan.nm_psum_ops;
        acc.psum_writes = plan.nm_psum_ops;
      }
      // Vertical sliding: each pass refreshes one window-row of activations
      // plus its share of the weight loads.
      plan.act_loads_per_pass = static_cast<std::int64_t>(shape.cin) *
                                shape.kw * shape.stride *
                                plan.windows_per_pass;
      plan.wgt_loads_per_pass =
          ceil_div(slice_taps, std::max<std::int64_t>(window_groups, 1));
      break;
    }
    case Dataflow::kOutputStationary: {
      const std::int64_t acts_per_pass =
          static_cast<std::int64_t>(shape.cin) * shape.kh *
          (shape.kw + plan.windows_per_pass - 1);
      if (plan.kernel_slices > 1) {
        // Outputs accumulate in the converters while the kernel slices
        // cycle, so both weights and activations reload on every pass —
        // the Sec. III-C pathology.
        acc.wgt_reads = shape.weights() * window_groups;
        acc.act_reads = plan.passes * acts_per_pass;
      } else {
        // A kernel that fits a row never needs converter accumulation:
        // weights stay resident and the dataflow degenerates to
        // weight-stationary (without the psum traffic it never generates).
        acc.wgt_reads = shape.weights();
        acc.act_reads = shape.activations() * co_groups;
      }
      plan.act_loads_per_pass = acts_per_pass;
      plan.wgt_loads_per_pass = slice_taps;
      break;
    }
    case Dataflow::kInputStationary: {
      // Activations resident in SNG buffers (tile by tile); the full filter
      // bank streams once per activation tile.
      const std::int64_t act_tiles =
          std::max<std::int64_t>(1, ceil_div(shape.activations(), M));
      acc.act_reads = shape.activations();
      acc.wgt_reads = shape.weights() * act_tiles;
      plan.act_loads_per_pass = static_cast<std::int64_t>(shape.cin) *
                                shape.kw * shape.stride *
                                plan.windows_per_pass;
      plan.wgt_loads_per_pass = slice_taps;
      break;
    }
  }

  if (hw_.external_memory) {
    // LP streams weights (8-bit) from external memory once per frame.
    acc.ext_bytes = shape.weights();
  }

  // ---- instruction stream ------------------------------------------------
  Program& p = plan.program;
  // Operands are 16-bit; a larger count becomes repeated instructions.
  auto push_count = [&p](Opcode op, std::int64_t count) {
    do {
      const std::int64_t n = std::min<std::int64_t>(count, kMaxOperand);
      p.push(op, static_cast<std::int32_t>(n));
      count -= n;
    } while (count > 0);
  };
  p.push(Opcode::kConfig, plan.stream_len, plan.lfsr_bits,
         static_cast<std::int32_t>(hw_.accum));
  if (hw_.external_memory) push_count(Opcode::kLoadExt, acc.ext_bytes);
  // One representative pass sequence; the layer repeats it plan.passes times.
  push_count(Opcode::kLoadWgt, plan.wgt_loads_per_pass);
  push_count(Opcode::kLoadAct, plan.act_loads_per_pass);
  p.push(Opcode::kBarrier);
  const std::int64_t outputs_per_pass =
      std::min<std::int64_t>(shape.cout, R) * plan.windows_per_pass;
  // At most rows x windows_per_row outputs, well inside one operand.
  p.push(Opcode::kGenExec, plan.stream_cycles,
         static_cast<std::int32_t>(outputs_per_pass));
  if (plan.nm_psum_ops > 0) push_count(Opcode::kNearMemAcc, outputs_per_pass);
  if (shape.pool) p.push(Opcode::kPool, 4);
  if (hw_.near_memory) p.push(Opcode::kNearMemBn, 1);
  p.push(Opcode::kStoreOut, 1);
  p.push(Opcode::kHalt);

  return plan;
}

std::vector<LayerPlan> Compiler::compile(const NetworkShape& net) const {
  telemetry::ScopedTimer timer(
      "compiler.compile", "compiler",
      {{"layers", static_cast<double>(net.layers.size())}});
  telemetry::MetricsRegistry::instance()
      .counter("compiler.networks_compiled")
      .add(1);
  std::vector<LayerPlan> plans;
  plans.reserve(net.layers.size());
  for (const auto& layer : net.layers)
    plans.push_back(plan_layer(layer, natural_dataflow()));
  return plans;
}

}  // namespace geo::arch
