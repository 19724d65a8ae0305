#include "arch/area_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "arch/memory_model.hpp"

namespace geo::arch {

double ge_and2() { return 1.33; }
double ge_or2() { return 1.33; }
double ge_xor2() { return 2.33; }
double ge_full_adder() { return 6.0; }
double ge_flip_flop() { return 4.33; }

double or_tree_ge(int fan_in) {
  return fan_in <= 1 ? 0.0 : (fan_in - 1) * ge_or2();
}

namespace {
int bits_for(int n) {
  return n <= 1 ? 1 : std::bit_width(static_cast<unsigned>(n));
}
}  // namespace

double parallel_counter_ge(int inputs, int acc_bits) {
  if (inputs <= 0) return 0.0;
  // A registered full-adder compressor tree reducing n inputs to a
  // bits_for(n)-bit sum: ~n - bits_for(n) full adders plus an input capture
  // flop per converted stream (the conversion boundary of Sec. III-B), and
  // the accumulation adder/register.
  const int fas = std::max(inputs - bits_for(inputs), 0);
  return inputs * ge_flip_flop() + fas * ge_full_adder() +
         acc_bits * (ge_full_adder() + ge_flip_flop());
}

double apc_ge(int inputs, int acc_bits) {
  if (inputs <= 0) return 0.0;
  const int merged = (inputs + 1) / 2;
  return merged * ge_or2() + parallel_counter_ge(merged, acc_bits);
}

double comparator_ge(int bits) {
  // Ripple magnitude comparator: ~1.5 GE per bit plus output logic.
  return 1.5 * bits + 1.0;
}

double lfsr_ge(int bits) {
  // Flip-flops plus up to 3 feedback XORs.
  return bits * ge_flip_flop() + 3 * ge_xor2();
}

double register_ge(int bits) { return bits * ge_flip_flop(); }

double counter_ge(int bits) {
  return bits * (ge_flip_flop() + 0.5 * ge_full_adder());
}

double sc_mac_unit_ge(int cin, int kh, int kw, nn::AccumMode mode) {
  const int taps = cin * kh * kw;
  // Split-unipolar runs the positive and negative phases through the same
  // gates in consecutive cycles (that is why the effective stream length
  // doubles), so the fabric is single-copy: one AND per product, one
  // accumulation structure, an up/down output counter.
  const double mult = taps * ge_and2();
  const int acc_bits = 8 + bits_for(taps);  // output-converter counter width

  double acc = 0.0;
  switch (mode) {
    case nn::AccumMode::kOr:
      acc = or_tree_ge(taps) + counter_ge(acc_bits);
      break;
    case nn::AccumMode::kPbw: {
      // kw OR groups of (cin*kh) + parallel counter across the kw groups.
      const int group = cin * kh;
      acc = kw * or_tree_ge(group) + parallel_counter_ge(kw, acc_bits);
      break;
    }
    case nn::AccumMode::kPbhw: {
      const int group = cin;
      acc = kh * kw * or_tree_ge(group) +
            parallel_counter_ge(kh * kw, acc_bits);
      break;
    }
    case nn::AccumMode::kFxp:
      acc = parallel_counter_ge(taps, acc_bits);
      break;
    case nn::AccumMode::kApc:
      acc = apc_ge(taps, acc_bits);
      break;
  }
  return mult + acc;
}

double sc_mac_unit_um2(int cin, int kh, int kw, nn::AccumMode mode,
                       const TechParams& tech) {
  return sc_mac_unit_ge(cin, kh, kw, mode) * tech.ge_area_um2;
}

double AreaBreakdown::total() const {
  return logic_total() + act_memory + wgt_memory + ext_mem_phy;
}

double AreaBreakdown::logic_total() const {
  return mac_array + act_sng + act_sng_buffers + wgt_sng + wgt_sng_buffers +
         shadow_buffers + output_converters + near_memory + pipeline +
         control;
}

std::vector<std::pair<std::string, double>> AreaBreakdown::items() const {
  return {
      {"SC MAC arrays", mac_array},
      {"Act. SNG", act_sng},
      {"Act. SNG buffers", act_sng_buffers},
      {"Wgt. SNG", wgt_sng},
      {"Wgt. SNG buffers", wgt_sng_buffers},
      {"Shadow buffers", shadow_buffers},
      {"Output conv.", output_converters},
      {"Near-memory compute", near_memory},
      {"Pipeline registers", pipeline},
      {"Control", control},
      {"Act. memory", act_memory},
      {"Wgt. memory", wgt_memory},
      {"Ext. memory PHY", ext_mem_phy},
  };
}

AreaBreakdown accelerator_area(const HwConfig& hw, const TechParams& tech) {
  AreaBreakdown a;
  const double ge_mm2 = tech.ge_area_um2 * 1e-6 * tech.layout_overhead;

  // --- MAC array: per-tap multipliers plus per-row accumulation fabric
  //     (single copy; the two split-unipolar phases time-multiplex it).
  {
    const int taps = hw.macs_per_row;
    const double mult = taps * ge_and2();
    double acc = 0.0;
    const int acc_bits = 8 + bits_for(taps);
    switch (hw.accum) {
      case nn::AccumMode::kOr:
        acc = or_tree_ge(taps);
        break;
      case nn::AccumMode::kPbw:
      case nn::AccumMode::kPbhw: {
        const int seg = std::max(hw.pb_segments, 1);
        acc = seg * or_tree_ge(taps / seg) +
              parallel_counter_ge(seg, acc_bits);
        break;
      }
      case nn::AccumMode::kFxp:
        acc = parallel_counter_ge(taps, acc_bits);
        break;
      case nn::AccumMode::kApc:
        acc = apc_ge(taps, acc_bits);
        break;
    }
    a.mac_array = hw.rows * (mult + acc) * ge_mm2;
  }

  // --- SNGs: comparator per SNG; activation LFSRs sit one per buffer slot.
  //     Weight LFSRs are broadcast across all rows under GEO's sharing; the
  //     unshared baseline replicates them per row-octet so different row
  //     groups can carry independent seeds.
  const int act_sngs = hw.activation_sngs();
  const int wgt_sngs = hw.rows * hw.weight_sngs_per_row();
  {
    const double comp = comparator_ge(hw.lfsr_bits);
    const double act_lfsrs = act_sngs;
    const double wgt_lfsrs = hw.lfsr_per_sng
                                 ? hw.weight_sngs_per_row() * 8
                                 : hw.weight_sngs_per_row();
    a.act_sng = (act_sngs * comp + act_lfsrs * lfsr_ge(hw.lfsr_bits)) * ge_mm2;
    a.wgt_sng = (wgt_sngs * comp + wgt_lfsrs * lfsr_ge(hw.lfsr_bits)) * ge_mm2;
  }

  // --- SNG value buffers (8 bits per SNG), plus progressive shadow buffers
  //     (2 bits per SNG when enabled; a full shadow copy would be 4x that).
  a.act_sng_buffers = act_sngs * register_ge(hw.sng_value_bits) * ge_mm2;
  a.wgt_sng_buffers = wgt_sngs * register_ge(hw.sng_value_bits) * ge_mm2;
  if (hw.shadow_buffers) {
    const int shadow_bits = hw.progressive ? 2 : hw.sng_value_bits;
    a.shadow_buffers =
        (act_sngs + wgt_sngs) * register_ge(shadow_bits) * ge_mm2;
  }

  // --- Output converters: an up/down accumulation counter (the subtract is
  //     folded into the count direction), plus the configurable pooling
  //     neighbor-add. The per-cycle increment is bounded by the parallel
  //     counter width, so the register only needs pb bits + stream bits.
  {
    const int acc_bits = 8 + bits_for(std::max(hw.pb_segments, 2));
    const double oc = counter_ge(acc_bits)           // up/down counter
                      + acc_bits * ge_full_adder();  // pooling neighbor-add
    a.output_converters = hw.output_converters() * oc * ge_mm2;
  }

  // --- Near-memory compute: vector of 16-bit adders matching the act-memory
  //     port, plus BN fixed-point MACs.
  if (hw.near_memory) {
    const int lanes = hw.mem_port_bits / 16;
    const double adder = 16 * ge_full_adder();
    const double bn_mac = 8 * 8 * 0.8 /*array mult*/ + 16 * ge_full_adder();
    a.near_memory = lanes * (adder + bn_mac) * ge_mm2;
  }

  // --- Pipeline registers between SC MAC and partial-binary stages.
  if (hw.pipeline_stage) {
    const int seg = std::max(hw.pb_segments, 1);
    a.pipeline = hw.rows * seg * 2 * ge_flip_flop() * ge_mm2;
  }

  // --- Control & instruction memory: small fixed fraction of the fabric.
  a.control = 0.05 * (a.mac_array + a.output_converters) +
              2048 * ge_flip_flop() * ge_mm2;

  // --- Memories.
  a.act_memory = SramModel{static_cast<double>(hw.act_mem_kb),
                           hw.mem_port_bits, 2}
                     .area_mm2();
  a.wgt_memory = SramModel{static_cast<double>(hw.wgt_mem_kb),
                           hw.mem_port_bits, 2}
                     .area_mm2();
  if (hw.external_memory) a.ext_mem_phy = ExternalMemoryModel{}.phy_area_mm2;

  return a;
}

}  // namespace geo::arch
