// lenet5-exec / cnn4-exec: closed loop, one caller. Each inference runs the
// network layer by layer through a fresh ResilientExecutor ("one executor
// per network pass"), chaining layers with the benchmark's dequantize/pool.
#include <stdexcept>

#include "resilience/resilience.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

struct Outcome {
  bool ok = true;  // every layer OK, native rung, reference bytes
  bool degraded = false;
  std::int64_t retries = 0;
  std::int64_t cycles = 0;
};

class ExecWorkload final : public Workload {
 public:
  explicit ExecWorkload(geo::arch::NetworkShape net) : net_(std::move(net)) {}

  void setup(std::uint64_t seed) override {
    build_model(net_, seed);
    for (int k = 0; k < 2; ++k)
      if (!infer(k, -1).ok)
        throw std::runtime_error("warm-up inference differs from the reference");
  }

  Timed run(double seconds) override {
    Timed t;
    std::int64_t cycles = 0;
    t.busy_begin = Clock::now();
    do {
      const auto t0 = Clock::now();
      const Outcome o = infer(static_cast<int>(t.attempted % kInputPool),
                              t.attempted);
      const auto t1 = Clock::now();
      const double ms = ms_between(t0, t1);
      ++t.attempted;
      t.latency.push_back({t1, ms});
      t.completions.push_back(t1);
      t.retries += o.retries;
      cycles += o.cycles;
      if (o.degraded) ++t.degraded;
      if (!o.ok) {
        ++t.failed;  // and misses the latency limit, whatever its latency
      } else if (ms <= slo_ms()) {
        ++t.slo_met;
      }
    } while (ms_since(t.busy_begin) < seconds * 1000.0);
    t.busy_end = Clock::now();
    t.units = t.attempted;
    t.slo_attempted = t.attempted;
    t.cycles_per_unit =
        static_cast<double>(cycles) / static_cast<double>(t.attempted);
    return t;
  }

  std::vector<UnitLayer> unit(int k) const override {
    std::vector<UnitLayer> out;
    for (std::size_t l = 0; l < model_.layers.size(); ++l)
      out.push_back({&model_.layers[l], ref_.layer_inputs[k][l],
                     ref_.outputs[k][l], 1.0});
    return out;
  }

 private:
  // Latency limit for slo_met_frac: about 4-5x the p50 on 2 lanes.
  double slo_ms() const { return net_.name == "lenet5" ? 100.0 : 400.0; }

  Outcome infer(int k, std::int64_t id) {
    Span span("inference", id);
    geo::resilience::ResilientExecutor ex(bench_hw(),
                                          geo::resilience::RetryPolicy{});
    const auto& expected = ref_.outputs[static_cast<std::size_t>(k)];
    std::vector<float> x = model_.inputs[static_cast<std::size_t>(k)];
    Outcome o;
    for (std::size_t l = 0; l < model_.layers.size(); ++l) {
      const Layer& layer = model_.layers[l];
      auto r = [&] {
        Span s("resilience.run_conv", id);
        return ex.run_conv(layer.shape, layer.weights, x, layer.scale,
                           layer.shift, layer.salt, layer.shape.name);
      }();
      const auto* outcome = ex.last_outcome();
      if (!r.ok() || outcome == nullptr) {
        o.ok = false;
        break;
      }
      o.retries += outcome->retries;
      o.degraded = o.degraded || outcome->degraded;
      o.cycles += r->stats.total_cycles;
      if (outcome->degraded || r->activations != expected[l]) {
        o.ok = false;
        break;
      }
      x = chain(r->activations, layer.shape);
    }
    return o;
  }

  geo::arch::NetworkShape net_;
};

}  // namespace

std::unique_ptr<Workload> make_exec_workload(
    const geo::arch::NetworkShape& net) {
  return std::make_unique<ExecWorkload>(net);
}

}  // namespace perfbench
