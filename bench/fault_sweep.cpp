// Fault-injection sweep: accuracy and cycle overhead of one GeoMachine
// convolution layer as a function of injected fault rate.
//
//   Table 1  stream-bit flip rate sweep, SC (kPbw) vs fixed-point (kFxp)
//   Table 2  SRAM read-error rate sweep under each ECC mode
//   Table 3  resilience runtime (detect -> retry -> degrade) under
//            uncorrectable SECDED faults
//
// Emits BENCH_fault_sweep.json with machine-checkable scalars:
//   stream_accuracy_monotonic  1 if accuracy degrades monotonically with
//                              the stream flip rate in both accum modes
//   ecc_on_more_accurate       1 if SECDED beats ecc=none at every swept
//                              SRAM error rate
//   resilience_tiles_retried   tiles the resilience runtime re-executed
//   resilience_layers_degraded layers that fell down the degradation ladder
//   resilience_ledger_ok       1 if every accepted cycle ledger reconciled
//   resilience_within_envelope 1 if no accepted output left the provable
//                              |counter| <= taps*L envelope and degraded
//                              layers matched the fixed-point reference
//
// With GEO_CHECKPOINT_DIR set, completed stream-sweep points are memoized in
// a crash-safe sweep checkpoint and skipped on re-run.
//
//   ./bench/fault_sweep
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "arch/report.hpp"
#include "bench_util.hpp"
#include "fault/fault_model.hpp"
#include "nn/sc_layers.hpp"
#include "resilience/resilience.hpp"

namespace {

using geo::arch::ConvShape;
using geo::arch::GeoMachine;
using geo::arch::HwConfig;
using geo::arch::MachineResult;
using geo::fault::EccMode;
using geo::fault::FaultConfig;
using geo::fault::ScopedFaultInjection;

struct Workload {
  ConvShape shape = ConvShape::conv("fsweep", 8, 8, 8, 3, 1, false);
  std::vector<float> weights, input, scale, shift;

  Workload() {
    const auto seed = static_cast<unsigned>(
        geo::core::seed_or(7, "bench.fault_sweep") & 0x7FFFFFFFu);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> wdist(-0.6f, 0.6f);
    std::uniform_real_distribution<float> adist(0.0f, 1.0f);
    weights.resize(static_cast<std::size_t>(shape.weights()));
    for (auto& w : weights) w = wdist(rng);
    input.resize(static_cast<std::size_t>(shape.activations()));
    for (auto& a : input) a = adist(rng);
    scale.assign(static_cast<std::size_t>(shape.cout), 1.0f);
    shift.assign(static_cast<std::size_t>(shape.cout), 0.0f);
  }

  MachineResult run(const HwConfig& hw) const {
    GeoMachine machine(hw);
    return machine.run_conv(shape, weights, input, scale, shift, /*salt=*/3);
  }
};

// Mean |counter delta| per output, normalized by stream length, expressed as
// an accuracy percentage (100 = bit-identical to the clean run).
double accuracy_vs(const MachineResult& clean, const MachineResult& faulty,
                   double stream_len) {
  double err = 0.0;
  for (std::size_t i = 0; i < clean.counters.size(); ++i)
    err += std::abs(static_cast<double>(faulty.counters[i]) -
                    static_cast<double>(clean.counters[i]));
  err /= static_cast<double>(clean.counters.size()) * stream_len;
  return 100.0 * (1.0 - std::min(1.0, err));
}

std::string fmt(double v, const char* spec = "%.3f") {
  char buf[64];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

}  // namespace

int main() {
  using geo::arch::Table;
  geo::bench::BenchReport report("fault_sweep");
  const Workload wl;

  const double rates[] = {0.0, 1e-3, 1e-2, 5e-2, 0.1};
  const struct {
    const char* name;
    geo::nn::AccumMode accum;
  } modes[] = {{"sc-pbw", geo::nn::AccumMode::kPbw},
               {"fxp", geo::nn::AccumMode::kFxp}};

  std::printf("Fault sweep | conv %dx%dx%d k%d, %lld outputs\n\n",
              wl.shape.cin, wl.shape.hin, wl.shape.win, wl.shape.kh,
              static_cast<long long>(wl.shape.outputs()));

  // --- stream-bit flips: SC vs fixed-point accumulation ---------------------
  // Every (mode, rate) point is self-contained — its own fault scope, its
  // own machine — so the grid fans out over the process thread pool
  // (GEO_THREADS); table assembly and the monotonicity check stay serial and
  // in point order, keeping the output byte-identical at every thread count.
  Table stream_table(
      {"accum", "flip rate", "accuracy %", "flipped bits", "cycles",
       "overhead %"});
  geo::bench::SweepCheckpoint memo("fault_sweep");
  if (memo.resumed() > 0)
    std::printf("[bench] sweep memo: %zu completed point(s) skipped\n",
                memo.resumed());
  bool monotonic = true;
  constexpr int kNumModes = 2;
  constexpr int kNumRates = 5;
  MachineResult stream_clean[kNumModes];
  for (int m = 0; m < kNumModes; ++m) {
    HwConfig hw = HwConfig::ulp();
    hw.accum = modes[m].accum;
    const ScopedFaultInjection off(nullptr);  // clean reference
    stream_clean[m] = wl.run(hw);
  }
  struct StreamCell {
    double acc = 100.0;
    long long flipped = 0;
    long long cycles = 0;
  };
  const auto stream_cells = geo::bench::sweep_points<StreamCell>(
      kNumModes * kNumRates, [&](std::int64_t i) {
        const int m = static_cast<int>(i) / kNumRates;
        const double rate = rates[i % kNumRates];
        const MachineResult& clean = stream_clean[m];
        const std::string point =
            std::string(modes[m].name) + "@" + fmt(rate, "%.0e");
        StreamCell cell;
        cell.cycles = clean.stats.total_cycles;
        if (const auto hit = memo.lookup(point)) {
          std::istringstream is(*hit);
          is >> cell.acc >> cell.flipped >> cell.cycles;
          return cell;
        }
        if (rate > 0.0) {
          HwConfig hw = HwConfig::ulp();
          hw.accum = modes[m].accum;
          FaultConfig cfg;
          cfg.stream_flip_rate = rate;
          cfg.rng_seed = 99;
          ScopedFaultInjection inject(cfg);
          const MachineResult faulty = wl.run(hw);
          cell.acc = accuracy_vs(clean, faulty, hw.stream_len);
          const auto st = inject.model().stats();
          cell.flipped = st.stream_bits_flipped;
          cell.cycles = faulty.stats.total_cycles;
        }
        memo.record(point, fmt(cell.acc, "%.17g") + " " +
                               std::to_string(cell.flipped) + " " +
                               std::to_string(cell.cycles));
        return cell;
      });
  for (int m = 0; m < kNumModes; ++m) {
    double prev_acc = 101.0;
    for (int r = 0; r < kNumRates; ++r) {
      const StreamCell& cell =
          stream_cells[static_cast<std::size_t>(m * kNumRates + r)];
      if (cell.acc > prev_acc + 1e-12) monotonic = false;
      prev_acc = cell.acc;
      const double overhead =
          100.0 * (static_cast<double>(cell.cycles) /
                       stream_clean[m].stats.total_cycles -
                   1.0);
      stream_table.add_row({modes[m].name, fmt(rates[r], "%.0e"),
                            fmt(cell.acc), std::to_string(cell.flipped),
                            std::to_string(cell.cycles),
                            fmt(overhead, "%.2f")});
    }
  }
  std::printf("stream-bit flips (SC vs fixed-point accumulation)\n");
  stream_table.print();
  report.add_table("stream_flips", stream_table);
  report.set("stream_accuracy_monotonic", monotonic ? 1.0 : 0.0);

  // --- SRAM read errors under each ECC mode ---------------------------------
  Table sram_table({"ecc", "error rate", "accuracy %", "detected",
                    "corrected", "silent", "retry cyc", "cycles"});
  bool ecc_wins = true;
  {
    HwConfig hw = HwConfig::ulp();
    MachineResult clean;
    {
      const ScopedFaultInjection off(nullptr);
      clean = wl.run(hw);
    }
    const double sram_rates[] = {1e-3, 5e-3, 2e-2};
    const EccMode eccs[] = {EccMode::kNone, EccMode::kParity,
                            EccMode::kSecded};
    constexpr int kNumEccs = 3;
    struct SramCell {
      double acc = 0.0;
      geo::fault::FaultStats st;
      long long cycles = 0;
    };
    // 3 rates x 3 ECC modes, each with an independent fault model: another
    // self-contained grid for the pool.
    const auto sram_cells = geo::bench::sweep_points<SramCell>(
        static_cast<std::int64_t>(std::size(sram_rates)) * kNumEccs,
        [&](std::int64_t i) {
          FaultConfig cfg;
          cfg.sram_error_rate = sram_rates[i / kNumEccs];
          cfg.ecc = eccs[i % kNumEccs];
          cfg.rng_seed = 99;
          ScopedFaultInjection inject(cfg);
          const MachineResult faulty = wl.run(hw);
          SramCell cell;
          cell.acc = accuracy_vs(clean, faulty, hw.stream_len);
          cell.st = inject.model().stats();
          cell.cycles = faulty.stats.total_cycles;
          return cell;
        });
    for (std::size_t r = 0; r < std::size(sram_rates); ++r) {
      double acc_none = 0.0, acc_secded = 0.0;
      for (int e = 0; e < kNumEccs; ++e) {
        const SramCell& cell = sram_cells[r * kNumEccs +
                                          static_cast<std::size_t>(e)];
        sram_table.add_row(
            {geo::fault::to_string(eccs[e]), fmt(sram_rates[r], "%.0e"),
             fmt(cell.acc), std::to_string(cell.st.sram_errors_detected),
             std::to_string(cell.st.sram_errors_corrected),
             std::to_string(cell.st.sram_silent_corruptions),
             std::to_string(cell.st.sram_retry_cycles),
             std::to_string(cell.cycles)});
        if (eccs[e] == EccMode::kNone) acc_none = cell.acc;
        if (eccs[e] == EccMode::kSecded) acc_secded = cell.acc;
      }
      if (acc_secded <= acc_none) ecc_wins = false;
    }
  }
  std::printf("\nSRAM read errors vs ECC mode\n");
  sram_table.print();
  report.add_table("sram_ecc", sram_table);
  report.set("ecc_on_more_accurate", ecc_wins ? 1.0 : 0.0);

  // --- resilience runtime: detect -> retry -> degrade ----------------------
  long long tiles_retried = 0, layers_degraded = 0;
  bool ledger_ok = true, within_envelope = true;
  {
    using geo::resilience::ResilientExecutor;
    using geo::resilience::Rung;
    HwConfig hw = HwConfig::ulp();
    // Uncorrectable (multi-bit burst) SRAM faults: SECDED detects and
    // zeroes them, the runtime retries from snapshot and then walks the
    // degradation ladder. An ambient GEO_FAULTS spec (the CI fault-recovery
    // job pins one) takes precedence; otherwise install the canonical
    // double-bit spec here.
    std::optional<ScopedFaultInjection> inject;
    if (!FaultConfig::from_env().has_value()) {
      FaultConfig cfg;
      cfg.sram_error_rate = 2e-2;
      cfg.sram_burst = 2;
      cfg.ecc = EccMode::kSecded;
      cfg.rng_seed = 99;
      inject.emplace(cfg);
    }
    ResilientExecutor executor(hw);
    const auto result =
        executor.run_conv(wl.shape, wl.weights, wl.input, wl.scale, wl.shift,
                          /*salt=*/3, "fsweep");
    const auto& rep = executor.report();
    tiles_retried = rep.tiles_retried();
    layers_degraded = rep.layers_degraded();
    ledger_ok = rep.ledger_ok();
    within_envelope = result.ok();
    if (result.ok()) {
      const geo::nn::ScLayerConfig cfg =
          GeoMachine(hw).layer_config(wl.shape, /*salt=*/3);
      const long long bound =
          static_cast<long long>(wl.shape.taps()) * cfg.stream_len;
      for (const auto c : result->counters)
        if (std::abs(static_cast<long long>(c)) > bound)
          within_envelope = false;
      if (!rep.layers.empty() &&
          rep.layers.back().rung == Rung::kReference) {
        // A degraded-to-reference layer must be bit-exact against the
        // fault-free fixed-point reference — "no garbage outputs".
        const auto ref = geo::nn::fxp_reference_counters(
            wl.shape, wl.weights, wl.input, cfg.value_bits, cfg.stream_len);
        if (ref != result->counters) within_envelope = false;
      }
    }

    Table res_table({"layer", "rung", "tiles", "retried", "recovered",
                     "retries", "retry cyc", "ledger"});
    for (const auto& l : rep.layers)
      res_table.add_row({l.layer, geo::resilience::to_string(l.rung),
                         std::to_string(l.tiles),
                         std::to_string(l.tiles_retried),
                         std::to_string(l.tiles_recovered),
                         std::to_string(l.retries),
                         std::to_string(l.retry_cycles()),
                         l.ledger_ok ? "ok" : "MISMATCH"});
    std::printf("\nresilience runtime (detect -> retry -> degrade)\n");
    res_table.print();
    report.add_table("resilience", res_table);
    if (rep.any_degraded()) std::printf("\n%s", rep.summary().c_str());
  }
  report.set("resilience_tiles_retried", static_cast<double>(tiles_retried));
  report.set("resilience_layers_degraded",
             static_cast<double>(layers_degraded));
  report.set("resilience_ledger_ok", ledger_ok ? 1.0 : 0.0);
  report.set("resilience_within_envelope", within_envelope ? 1.0 : 0.0);

  std::printf(
      "\nstream_accuracy_monotonic=%d ecc_on_more_accurate=%d "
      "resilience_tiles_retried=%lld resilience_layers_degraded=%lld "
      "resilience_ledger_ok=%d resilience_within_envelope=%d\n",
      monotonic ? 1 : 0, ecc_wins ? 1 : 0, tiles_retried, layers_degraded,
      ledger_ok ? 1 : 0, within_envelope ? 1 : 0);
  return report.write() ? 0 : 1;
}
