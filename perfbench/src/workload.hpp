// The workload interface main() drives: set up (untimed, repeatable), run
// for a fixed wall time, and name the layers a per-layer breakdown of one
// unit of work (inference / request / network) executes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arch/hw_config.hpp"
#include "harness.hpp"
#include "model.hpp"

namespace perfbench {

// The paper's ULP design point; every workload runs on it.
inline geo::arch::HwConfig bench_hw() { return geo::arch::HwConfig::ulp(); }

// What one timed run measured.
struct Timed {
  std::vector<Sample> latency;  // one per unit of work (serve-open: `low`)
  // Completion times of the units throughput counts, and the span they
  // were produced in (serve-open: the `over` phase).
  std::vector<Clock::time_point> completions;
  Clock::time_point busy_begin, busy_end;
  // Share of the stolen time that stops throughput (see correct_for_steal).
  double throughput_steal_weight = 1.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;       // non-OK, degraded or wrong outputs
  std::int64_t units = 0;        // units completed OK (counter normalizer)
  std::int64_t slo_met = 0;      // of slo_attempted
  std::int64_t slo_attempted = 0;
  double cycles_per_unit = 0.0;  // modeled machine cycles
  std::int64_t retries = 0;      // tile re-executions or failovers
  std::int64_t degraded = 0;     // units with a layer below the native rung

  // Workload-specific per-layer numbers, reported by the traced run.
  std::vector<Metric> layer_metrics;
  std::vector<std::string> notes;  // human-readable lines for the log
};

// One layer execution of a unit of work, as the breakdown replays it.
struct UnitLayer {
  const Layer* layer = nullptr;
  std::span<const float> input;
  std::span<const std::uint8_t> expected;
  double weight = 1.0;  // executions of this layer per unit of work
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds weights, inputs and any stores or servers from `seed`, runs the
  // reference pass and the correctness gate, and warms up. Throws
  // std::runtime_error when the gate fails.
  virtual void setup(std::uint64_t seed) = 0;

  // The timed loop, for `seconds` of wall time.
  virtual Timed run(double seconds) = 0;

  // The layers one unit of work executes, on pool input `k`.
  virtual std::vector<UnitLayer> unit(int k) const = 0;

  // Extra probes for the traced run (direct store pins); appends lines
  // for the log.
  virtual void probe(std::vector<std::string>& /*notes*/) {}

  // Digest over the reference outputs every timed output must equal.
  const std::string& digest() const { return ref_.digest; }
  // Which layers the correctness gate compared against nn::ScConv2d.
  const std::string& gate() const { return gate_; }

 protected:
  // The common first step of setup: model, reference pass and gate.
  void build_model(const geo::arch::NetworkShape& net, std::uint64_t seed);

  Model model_;
  Reference ref_;
  std::string gate_;
};

std::unique_ptr<Workload> make_exec_workload(const geo::arch::NetworkShape& net);
// `scratch` is a directory the workload owns (the out-of-core store).
std::unique_ptr<Workload> make_serve_workload(const std::string& scratch);
std::unique_ptr<Workload> make_pipeline_workload();

}  // namespace perfbench
