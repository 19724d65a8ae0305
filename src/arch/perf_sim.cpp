#include "arch/perf_sim.hpp"

#include <algorithm>
#include <cmath>

#include "fault/fault_model.hpp"
#include "telemetry/telemetry.hpp"

namespace geo::arch {

namespace {
HwConfig with_dvfs(HwConfig hw, const TechParams& tech) {
  hw.vdd = operating_vdd(hw, tech);
  return hw;
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}
}  // namespace

PassCost pass_cost(const LayerPlan& plan, const HwConfig& hw) {
  PassCost cost;
  cost.compute_cycles = plan.stream_cycles + (hw.pipeline_stage ? 1 : 0);
  // Bits that must enter the SNG buffers for one pass. Progressive
  // generation only fetches the bits the (stream-length-matched) LFSR can
  // resolve; normal generation always fetches the full stored value.
  const std::int64_t bits_per_value =
      hw.progressive ? plan.lfsr_bits : hw.sng_value_bits;
  const std::int64_t fill = hw.buffer_fill_bits;
  const std::int64_t reload =
      std::max(ceil_div(plan.act_loads_per_pass * bits_per_value, fill),
               ceil_div(plan.wgt_loads_per_pass * bits_per_value, fill));
  if (hw.shadow_buffers) {
    // Next-pass bits trickle into the shadow buffers during compute, so
    // only reload that outlasts the compute phase stalls. Without
    // progressive generation the shadow buffers hold full values, at 4x the
    // buffer area (Sec. III-D); the stall is the same.
    cost.stall_cycles =
        std::max<std::int64_t>(0, reload - plan.stream_cycles);
  } else if (hw.progressive) {
    // No overlap with the previous pass, but generation starts after the
    // first 2-bit group of every value has arrived.
    cost.stall_cycles = ceil_div(
        std::max(plan.act_loads_per_pass, plan.wgt_loads_per_pass) * 2, fill);
  } else {
    cost.stall_cycles = reload;  // fully serial reload
  }
  return cost;
}

PerfSim::PerfSim(const HwConfig& hw, const TechParams& tech)
    : hw_(with_dvfs(hw, tech)),
      tech_(tech),
      energy_(hw_, tech_),
      compiler_(hw_) {}

PerfResult PerfSim::simulate(const NetworkShape& net) const {
  return simulate(compiler_.compile(net));
}

PerfResult PerfSim::simulate(const std::vector<LayerPlan>& plans) const {
  telemetry::ScopedTimer sim_timer(
      "perfsim.simulate", "perfsim",
      {{"layers", static_cast<double>(plans.size())}});
  auto& metrics = telemetry::MetricsRegistry::instance();
  telemetry::Histogram& layer_hist = metrics.histogram("perfsim.layer");

  PerfResult result;
  result.vdd = hw_.vdd;
  const double lanes = std::max(1, hw_.mem_port_bits / 16);
  const double clock_hz = hw_.clock_mhz * 1e6;

  EnergyBreakdown& e = result.energy;

  for (std::size_t li = 0; li < plans.size(); ++li) {
    const auto& plan = plans[li];
    telemetry::ScopedTimer layer_timer(
        layer_hist, "perfsim.layer", "perfsim",
        {{"index", static_cast<double>(li)},
         {"passes", static_cast<double>(plan.passes)},
         {"macs", static_cast<double>(plan.shape.macs())}});
    LayerPerf lp;
    lp.name = plan.shape.name;

    const PassCost pass = pass_cost(plan, hw_);
    lp.compute_cycles =
        static_cast<double>(plan.passes * pass.compute_cycles);
    lp.stall_cycles = static_cast<double>(plan.passes * pass.stall_cycles);
    // Analytic counterpart of the machine's ECC retry accounting: SECDED
    // re-reads every detected-faulty SRAM word (2 cycles each), in
    // expectation p_word = 1 - (1 - rate)^bits per value read.
    if (fault::FaultModel* fm = fault::active();
        fm != nullptr && fm->sram_active() &&
        fm->config().ecc == fault::EccMode::kSecded) {
      const double p_word =
          1.0 - std::pow(1.0 - fm->config().sram_error_rate,
                         static_cast<double>(hw_.sng_value_bits));
      lp.stall_cycles +=
          2.0 * p_word *
          static_cast<double>(plan.accesses.act_reads +
                              plan.accesses.wgt_reads);
    }
    lp.nearmem_cycles =
        2.0 * (plan.nm_psum_ops + plan.nm_bn_ops) / lanes;
    lp.total_cycles = lp.compute_cycles + lp.stall_cycles + lp.nearmem_cycles;

    // External weight streaming overlaps compute (ping-pong weight banks);
    // the layer takes whichever is longer.
    if (hw_.external_memory && plan.accesses.ext_bytes > 0)
      lp.ext_seconds = energy_.ext_mem().transfer_seconds(
          static_cast<double>(plan.accesses.ext_bytes));
    const double layer_seconds =
        std::max(lp.total_cycles / clock_hz, lp.ext_seconds);
    lp.total_cycles = layer_seconds * clock_hz;

    // ---- energy ----------------------------------------------------------
    const double cc = lp.compute_cycles;
    e.mac_array += cc * energy_.mac_cycle_energy();
    e.act_sng += cc * energy_.act_sng_cycle_energy();
    e.wgt_sng += cc * energy_.wgt_sng_cycle_energy();
    const double buf = cc * energy_.buffer_cycle_energy();
    e.act_sng_buffers += 0.5 * buf;
    e.wgt_sng_buffers += 0.5 * buf;
    e.output_conv += cc * energy_.output_conv_cycle_energy();

    // Buffer fills (register writes) for every value loaded.
    const double bits_per_value =
        hw_.progressive ? plan.lfsr_bits : hw_.sng_value_bits;
    e.act_sng_buffers += static_cast<double>(plan.accesses.act_reads) *
                         energy_.buffer_load_energy(
                             static_cast<int>(bits_per_value));
    e.wgt_sng_buffers += static_cast<double>(plan.accesses.wgt_reads) *
                         energy_.buffer_load_energy(
                             static_cast<int>(bits_per_value));

    // SRAM word traffic: 8-bit values and 16-bit partial sums packed into
    // port-wide words.
    const double port_bytes = hw_.mem_port_bits / 8.0;
    const double act_words =
        (plan.accesses.act_reads + plan.accesses.act_writes) / port_bytes;
    const double psum_words =
        (plan.accesses.psum_reads + plan.accesses.psum_writes) * 2.0 /
        port_bytes;
    const double wgt_words = plan.accesses.wgt_reads / port_bytes;
    e.act_memory += act_words * energy_.act_read_energy() +
                    psum_words * energy_.act_read_energy();
    e.wgt_memory += wgt_words * energy_.wgt_read_energy();

    // Near-memory arithmetic.
    e.near_memory +=
        plan.nm_psum_ops * energy_.near_mem_add_energy() +
        plan.nm_bn_ops * 2.0 * energy_.near_mem_add_energy();

    // External memory.
    e.external_memory += plan.accesses.ext_bytes * 8.0 *
                         energy_.ext_energy_per_bit();

    lp.energy_j = 0;  // filled below once leakage is known
    result.accesses += plan.accesses;
    result.layers.push_back(lp);
    result.cycles += lp.total_cycles;
  }

  result.seconds = result.cycles / clock_hz;
  e.leakage = energy_.leakage_power() * result.seconds;

  // Distribute per-layer energy (dynamic share by cycles, for reporting).
  const double dyn_total = e.total() - e.leakage;
  for (auto& lp : result.layers)
    lp.energy_j = dyn_total * (result.cycles > 0
                                   ? lp.total_cycles / result.cycles
                                   : 0.0) +
                  energy_.leakage_power() * lp.total_cycles / clock_hz;

  result.frames_per_second = result.seconds > 0 ? 1.0 / result.seconds : 0.0;
  result.energy_per_frame_j = e.total();
  result.frames_per_joule =
      result.energy_per_frame_j > 0 ? 1.0 / result.energy_per_frame_j : 0.0;
  result.average_power_w =
      result.seconds > 0 ? result.energy_per_frame_j / result.seconds : 0.0;

  // Energy / access telemetry for the whole simulated inference.
  metrics.counter("perfsim.layers_simulated")
      .add(static_cast<std::int64_t>(plans.size()));
  metrics.counter("perfsim.act_reads").add(result.accesses.act_reads);
  metrics.counter("perfsim.act_writes").add(result.accesses.act_writes);
  metrics.counter("perfsim.wgt_reads").add(result.accesses.wgt_reads);
  metrics.counter("perfsim.psum_reads").add(result.accesses.psum_reads);
  metrics.counter("perfsim.psum_writes").add(result.accesses.psum_writes);
  metrics.counter("perfsim.ext_bytes").add(result.accesses.ext_bytes);
  metrics.gauge("perfsim.cycles").set(result.cycles);
  metrics.gauge("perfsim.energy_per_frame_j").set(result.energy_per_frame_j);
  metrics.gauge("perfsim.frames_per_second").set(result.frames_per_second);
  metrics.gauge("perfsim.average_power_w").set(result.average_power_w);
  return result;
}

double PerfSim::peak_gops() const {
  const double macs = hw_.total_macs();
  const double f = hw_.clock_mhz * 1e6;
  const int s_min = std::min(hw_.stream_len_pool, hw_.stream_len);
  // All-OR designs run both split-unipolar phases through the same OR tree
  // (2x cycles); partial-binary fabrics process both channels concurrently.
  const double cycles_per_op =
      hw_.accum == nn::AccumMode::kOr ? 2.0 * s_min : s_min;
  return 2.0 * macs * f / cycles_per_op / 1e9;
}

double PerfSim::peak_tops_per_watt() const {
  // Rated at full compute activity plus leakage.
  const double power = energy_.compute_cycle_energy() * hw_.clock_mhz * 1e6 +
                       energy_.leakage_power();
  return peak_gops() / 1e3 / power;
}

}  // namespace geo::arch
