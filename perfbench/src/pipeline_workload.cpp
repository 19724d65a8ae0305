// pipeline-fc: closed loop keeping a window of four networks outstanding on
// a PipelineRouter with 2 stages x 1 replica. The network is LeNet-5's FC
// tail (fc1 -> fc2 -> fc3): stage 0 runs fc1, stage 1 runs fc2 + fc3, so
// the stages are unbalanced and stage-gate waits show.
#include <deque>
#include <future>
#include <stdexcept>

#include "arch/attribution.hpp"
#include "serve/pipeline.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using geo::serve::NetworkRequest;
using geo::serve::NetworkResponse;

constexpr std::size_t kWindow = 4;
constexpr std::size_t kFirst = 2;  // fc1's index in LeNet-5
constexpr std::size_t kLast = 4;   // fc3
constexpr double kSloMs = 250.0;   // latency limit, ~4x the p50 on 2 lanes

class PipelineWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    router_.reset();
    build_model(geo::arch::NetworkShape::lenet5(), seed);
    geo::serve::ServeOptions o;
    o.replicas = 1;
    router_ = std::make_unique<geo::serve::PipelineRouter>(bench_hw(), 2, o);
    for (int k = 0; k < 2; ++k) {
      NetworkResponse r = router_->run(request(k));
      if (!r.status.ok() || r.result.activations != ref_.outputs[k][kLast])
        throw std::runtime_error("warm-up network differs from the reference");
    }
  }

  Timed run(double seconds) override {
    struct Outstanding {
      std::future<NetworkResponse> future;
      int k = 0;
      std::int64_t id = 0;
      Clock::time_point submitted;
    };
    Timed t;
    std::deque<Outstanding> window;
    const auto stats0 = router_->stats();
    const auto cycles0 =
        geo::arch::AttributionLedger::instance().total().total_cycles;
    t.busy_begin = Clock::now();
    for (;;) {
      if (window.size() < kWindow &&
          ms_since(t.busy_begin) < seconds * 1000.0) {
        const int k = static_cast<int>(t.attempted % kInputPool);
        const std::int64_t id = t.attempted++;
        Span span("pipeline.submit", id);
        const auto submitted = Clock::now();
        auto fut = router_->submit(request(k));
        if (!fut.ok()) {
          ++t.failed;
          continue;
        }
        window.push_back({std::move(*fut), k, id, submitted});
        continue;
      }
      if (window.empty()) break;
      Outstanding o = std::move(window.front());
      window.pop_front();
      NetworkResponse r = [&] {
        Span span("pipeline.ready", o.id);
        return o.future.get();
      }();
      t.retries += r.failovers;
      if (r.degraded) ++t.degraded;
      if (!r.status.ok() || r.degraded ||
          r.result.activations != ref_.outputs[o.k][kLast]) {
        ++t.failed;
        continue;
      }
      ++t.units;
      // The router times submit -> response; the network is done that long
      // after the submit call began.
      const double ms = r.total_us / 1000.0;
      const auto done = o.submitted + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double, std::milli>(ms));
      t.latency.push_back({done, ms});
      t.completions.push_back(done);
      if (ms <= kSloMs) ++t.slo_met;
    }
    t.busy_end = Clock::now();
    const auto stats1 = router_->stats();
    const auto cycles1 =
        geo::arch::AttributionLedger::instance().total().total_cycles;
    t.slo_attempted = t.attempted;
    t.cycles_per_unit = t.units > 0 ? static_cast<double>(cycles1 - cycles0) /
                                          static_cast<double>(t.units)
                                    : 0.0;
    const auto handoffs = static_cast<double>(stats1.handoffs - stats0.handoffs);
    const auto waits =
        static_cast<double>(stats1.stage_waits - stats0.stage_waits);
    t.layer_metrics = {
        {"pipeline.handoffs",
         t.units > 0 ? handoffs / static_cast<double>(t.units) : 0.0, "count"},
        {"pipeline.stage_wait_frac", handoffs > 0 ? waits / handoffs : 0.0,
         "ratio"},
    };
    return t;
  }

  std::vector<UnitLayer> unit(int k) const override {
    std::vector<UnitLayer> out;
    for (std::size_t l = kFirst; l <= kLast; ++l)
      out.push_back({&model_.layers[l], ref_.layer_inputs[k][l],
                     ref_.outputs[k][l], 1.0});
    return out;
  }

 private:
  NetworkRequest request(int k) const {
    NetworkRequest req;
    req.tenant = "pipeline";
    for (std::size_t l = kFirst; l <= kLast; ++l) {
      const Layer& layer = model_.layers[l];
      geo::serve::LayerSpec spec;
      spec.shape = layer.shape;
      spec.weights = layer.weights;
      spec.bn_scale = layer.scale;
      spec.bn_shift = layer.shift;
      spec.layer_salt = layer.salt;
      req.layers.push_back(std::move(spec));
    }
    req.input = ref_.layer_inputs[static_cast<std::size_t>(k)][kFirst];
    return req;
  }

  std::unique_ptr<geo::serve::PipelineRouter> router_;
};

}  // namespace

std::unique_ptr<Workload> make_pipeline_workload() {
  return std::make_unique<PipelineWorkload>();
}

}  // namespace perfbench
