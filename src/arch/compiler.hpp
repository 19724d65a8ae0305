// Layer compiler: maps network layers onto the GEO fabric under a chosen
// dataflow, producing the instruction stream, pass schedule, and memory
// access counts the performance simulator consumes (Sec. III-C).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/hw_config.hpp"
#include "arch/isa.hpp"

namespace geo::arch {

// One network layer at paper scale (FC layers are 1x1 convs over a 1x1 map):
// the SC layer shape, whose output-size rule the machine and the nn
// reference share, plus what the compiler schedules by.
struct ConvShape : nn::ScShape {
  std::string name;
  bool pool = false;    // followed by 2x2 average pooling (computation skip)
  bool output = false;  // network output layer (always 128-bit streams)

  std::int64_t macs() const { return outputs() * taps(); }

  static ConvShape conv(std::string name, int cin, int hw, int cout,
                        int kernel, int pad, bool pool);
  static ConvShape fc(std::string name, int in, int out, bool output);
};

struct NetworkShape {
  std::string name;
  std::vector<ConvShape> layers;

  std::int64_t total_macs() const;

  // Paper-scale evaluation networks.
  static NetworkShape cnn4_cifar();   // CMSIS-NN CNN-4 on 32x32x3 [22]
  static NetworkShape cnn4_svhn();    // same topology (SVHN is 32x32x3)
  static NetworkShape lenet5();       // LeNet-5 on 28x28x1 [27]
  static NetworkShape vgg16();        // VGG-16, X/Y downscaled, FC-512 [26]
};

enum class Dataflow {
  kWeightStationary,  // + near-memory partial sums (GEO)
  kOutputStationary,  // accumulate in output converters, reload everything
  kInputStationary,   // activations resident, weights stream per tile
};

const char* to_string(Dataflow df) noexcept;

struct AccessCounts {
  std::int64_t act_reads = 0;
  std::int64_t act_writes = 0;   // layer outputs written back
  std::int64_t wgt_reads = 0;
  std::int64_t psum_reads = 0;   // near-memory read-add-write traffic
  std::int64_t psum_writes = 0;
  std::int64_t ext_bytes = 0;    // external-memory traffic (LP)

  std::int64_t total() const {
    return act_reads + act_writes + wgt_reads + psum_reads + psum_writes;
  }
  std::int64_t act_memory_total() const {
    return act_reads + act_writes + psum_reads + psum_writes;
  }

  AccessCounts& operator+=(const AccessCounts& o);
};

struct LayerPlan {
  ConvShape shape;
  Dataflow dataflow = Dataflow::kWeightStationary;
  int stream_len = 64;        // specified length ({sp,s,output} choice)
  int stream_cycles = 128;    // 2x stream_len (split-unipolar)
  int lfsr_bits = 6;

  std::int64_t passes = 0;           // generation/compute passes
  int kernel_slices = 1;             // P: kernel split when taps > row width
  int windows_per_pass = 1;          // Wr_eff
  std::int64_t act_loads_per_pass = 0;  // SNG buffer values (activations)
  std::int64_t wgt_loads_per_pass = 0;  // per row (row memories in parallel)
  std::int64_t nm_psum_ops = 0;      // near-memory read-add-write ops
  std::int64_t nm_bn_ops = 0;        // near-memory BN ops

  AccessCounts accesses;
  Program program;
};

class Compiler {
 public:
  explicit Compiler(const HwConfig& hw) : hw_(hw) {}

  // Plans one layer under an explicit dataflow.
  LayerPlan plan_layer(const ConvShape& shape, Dataflow df) const;

  // Plans the whole network under the config's natural dataflow
  // (weight-stationary with near-memory psums when available, otherwise
  // output-stationary).
  std::vector<LayerPlan> compile(const NetworkShape& net) const;

  Dataflow natural_dataflow() const {
    return hw_.near_memory ? Dataflow::kWeightStationary
                           : Dataflow::kOutputStationary;
  }

  int stream_len_for(const ConvShape& shape) const;

 private:
  HwConfig hw_;
};

}  // namespace geo::arch
