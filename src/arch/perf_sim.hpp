// Performance simulator: executes compiled layer plans against the hardware
// config, modeling pass-level reload/compute overlap (progressive generation
// + shadow buffering), near-memory operations, ping-pong banking, DVFS, and
// external-memory streaming. This mirrors the paper's "custom performance
// simulator, which combines the numbers from individual modules with a
// compiled code representing the given network model".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/compiler.hpp"
#include "arch/energy_model.hpp"
#include "arch/hw_config.hpp"
#include "arch/tech.hpp"
#include "arch/timing_model.hpp"

namespace geo::arch {

struct LayerPerf {
  std::string name;
  double compute_cycles = 0;
  double stall_cycles = 0;   // reload not hidden by shadow buffering
  double nearmem_cycles = 0;
  double total_cycles = 0;
  double energy_j = 0;
  double ext_seconds = 0;    // external-memory streaming time (overlapped)
};

// What one generation/compute pass of a layer costs (Sec. II-B / III-D).
// The machine charges it on every pass it runs and PerfSim scales it by the
// plan's pass count, so both ledgers come from this one model.
struct PassCost {
  std::int64_t compute_cycles = 0;  // stream cycles, +1 for the pipeline cut
  std::int64_t stall_cycles = 0;    // reload not hidden by shadow buffering
};

PassCost pass_cost(const LayerPlan& plan, const HwConfig& hw);

struct PerfResult {
  double cycles = 0;
  double seconds = 0;
  double frames_per_second = 0;
  double energy_per_frame_j = 0;
  double frames_per_joule = 0;
  double average_power_w = 0;
  double vdd = 0;
  EnergyBreakdown energy;
  AccessCounts accesses;
  std::vector<LayerPerf> layers;
};

class PerfSim {
 public:
  explicit PerfSim(const HwConfig& hw,
                   const TechParams& tech = TechParams::hvt28());

  // Simulates one inference of the network (compiles it first).
  PerfResult simulate(const NetworkShape& net) const;
  PerfResult simulate(const std::vector<LayerPlan>& plans) const;

  // Peak throughput rating: 2 ops/MAC at the shortest configured stream
  // length; all-OR designs (ACOUSTIC-style) pay the split-unipolar doubling
  // explicitly. See DESIGN.md "Calibration policy" for the convention.
  double peak_gops() const;
  double peak_tops_per_watt() const;

  const HwConfig& hw() const { return hw_; }
  const EnergyModel& energy_model() const { return energy_; }

 private:
  HwConfig hw_;       // vdd already resolved through DVFS
  TechParams tech_;
  EnergyModel energy_;
  Compiler compiler_;
};

}  // namespace geo::arch
