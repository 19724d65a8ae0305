// Gate-equivalent area model for GEO's blocks and the Fig. 5 MAC-unit
// comparison.
#pragma once

#include <string>
#include <vector>

#include "arch/hw_config.hpp"
#include "arch/tech.hpp"
#include "nn/sc_config.hpp"

namespace geo::arch {

// ---- gate-equivalent costs of primitive structures (in GE = NAND2) -------
double ge_and2();
double ge_or2();
double ge_xor2();
double ge_full_adder();
double ge_flip_flop();

// n-input OR (or AND) reduction tree: n-1 two-input gates.
double or_tree_ge(int fan_in);

// Exact parallel counter summing n single-bit inputs: a full-adder
// compressor tree with ~ (n - popcount-width) adders, plus the accumulation
// adder of `acc_bits` bits.
double parallel_counter_ge(int inputs, int acc_bits);

// Approximate parallel counter [24]: one merge layer of n/2 gates feeding an
// exact counter of half the inputs (with one extra weight bit).
double apc_ge(int inputs, int acc_bits);

// n-bit magnitude comparator (SNG core).
double comparator_ge(int bits);

// n-bit maximal-length LFSR: n flip-flops + feedback XORs.
double lfsr_ge(int bits);

// n-bit register / up-down counter.
double register_ge(int bits);
double counter_ge(int bits);

// ---- Fig. 5: one SC MAC unit (one output's dot product) ------------------
// Area in GE of the multiply + accumulate structure for a (cin, kh, kw)
// kernel under the given accumulation mode. Split-unipolar with unipolar
// activations: 2 AND2 per product, two accumulation channels.
double sc_mac_unit_ge(int cin, int kh, int kw, nn::AccumMode mode);

// Same, in um^2 (without layout overhead — Fig. 5 compares structures).
double sc_mac_unit_um2(int cin, int kh, int kw, nn::AccumMode mode,
                       const TechParams& tech);

// ---- accelerator-level breakdown (Fig. 6 / Tables II-III) ----------------
struct AreaBreakdown {
  double mac_array = 0;       // mm^2 each
  double act_sng = 0;
  double act_sng_buffers = 0;
  double wgt_sng = 0;
  double wgt_sng_buffers = 0;
  double shadow_buffers = 0;
  double output_converters = 0;
  double near_memory = 0;
  double pipeline = 0;
  double control = 0;
  double act_memory = 0;
  double wgt_memory = 0;
  double ext_mem_phy = 0;

  double total() const;
  double logic_total() const;  // everything except the two SRAMs + PHY

  std::vector<std::pair<std::string, double>> items() const;
};

AreaBreakdown accelerator_area(const HwConfig& hw, const TechParams& tech);

}  // namespace geo::arch
