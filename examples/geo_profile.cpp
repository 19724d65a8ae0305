// Telemetry demonstration driver: exercises every instrumented subsystem
// (GeoMachine, PerfSim, Compiler, the training loop) and writes the trace
// and metrics artifacts requested through the environment, on one command
// line:
//
//   GEO_TRACE=trace.json GEO_METRICS=metrics.json GEO_JOURNAL=journal.jsonl
//     ./geo_profile
//
// Open trace.json in Perfetto (https://ui.perfetto.dev) or chrome://tracing
// to see the per-pass machine spans, the machine.tile spans fanned out to
// geo-worker-N tracks (with flow arrows back to the submitting layer span),
// and the per-layer perfsim spans. journal.jsonl collects the structured
// runtime events (stream-table builds, checkpoint commits, resilience
// retries). With the variables unset the run still prints the in-process
// metrics, attribution and journal summaries; see docs/OBSERVABILITY.md.
#include <cstdio>
#include <random>
#include <vector>

#include "arch/attribution.hpp"
#include "arch/machine.hpp"
#include "arch/perf_sim.hpp"
#include "arch/report.hpp"
#include "exec/thread_pool.hpp"
#include "nn/dataset.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"
#include "telemetry/telemetry.hpp"

namespace {

// Runs one conv layer on the cycle-counting machine with random operands.
void profile_machine(const geo::arch::ConvShape& shape, std::uint64_t salt) {
  using namespace geo;
  arch::GeoMachine machine(arch::HwConfig::ulp());
  std::mt19937 rng(static_cast<unsigned>(salt));
  std::uniform_real_distribution<float> wdist(-0.6f, 0.6f);
  std::uniform_real_distribution<float> adist(0.0f, 1.0f);
  std::vector<float> weights(static_cast<std::size_t>(shape.weights()));
  for (auto& w : weights) w = wdist(rng);
  std::vector<float> input(static_cast<std::size_t>(shape.activations()));
  for (auto& a : input) a = adist(rng);
  std::vector<float> scale(static_cast<std::size_t>(shape.cout), 0.5f);
  std::vector<float> shift(static_cast<std::size_t>(shape.cout), 0.1f);
  const arch::MachineResult r =
      machine.run_conv(shape, weights, input, scale, shift, salt);
  std::printf("  machine %-8s %4lld passes  %8lld cycles\n",
              shape.name.c_str(), static_cast<long long>(r.stats.passes),
              static_cast<long long>(r.stats.total_cycles));
}

}  // namespace

int main() {
  using namespace geo;
  auto& tracer = telemetry::Tracer::instance();
  auto& journal = telemetry::Journal::instance();
  std::printf("geo_profile | tracing %s, metrics export %s, journal %s\n\n",
              tracer.enabled() ? "ON (GEO_TRACE)" : "off (set GEO_TRACE)",
              std::getenv("GEO_METRICS") != nullptr
                  ? "ON (GEO_METRICS)"
                  : "off (set GEO_METRICS)",
              journal.enabled() ? "ON (GEO_JOURNAL)"
                                : "off (set GEO_JOURNAL)");

  // 1) Cycle-accurate machine: a couple of CNN-4-sized layers. Tiles fan
  //    out to the process pool, so with tracing on each machine.tile span
  //    lands on a geo-worker-N track with a flow arrow from the submitting
  //    run_conv span. GEO_THREADS overrides the pool width; default to a
  //    4-lane pool so the worker tracks show up even without it.
  const bool pool_overridden = std::getenv("GEO_THREADS") != nullptr;
  std::printf("[1/3] GeoMachine per-pass spans (pool: %s)\n",
              pool_overridden ? "GEO_THREADS" : "4 lanes");
  {
    exec::ScopedThreads pool(pool_overridden ? exec::ThreadPool::instance().size()
                                             : 4);
    profile_machine(arch::ConvShape::conv("conv1", 3, 32, 16, 5, 2, true), 1);
    profile_machine(arch::ConvShape::conv("conv2", 16, 16, 16, 5, 2, false), 2);
  }

  // 2) Analytical performance simulator over the full CNN-4 network
  //    (compiler spans come from the embedded compile step).
  std::printf("\n[2/3] PerfSim per-layer spans\n");
  const arch::PerfSim sim(arch::HwConfig::ulp());
  const arch::PerfResult perf = sim.simulate(arch::NetworkShape::cnn4_cifar());
  std::printf("  cnn4_cifar: %.0f cycles, %.1f frames/s, %.2e J/frame\n",
              perf.cycles, perf.frames_per_second, perf.energy_per_frame_j);

  // 3) A short float-mode training run for the train.* spans and gauges.
  std::printf("\n[3/3] Trainer per-epoch spans\n");
  const nn::Dataset train_set = nn::make_dataset("digits", 64, 1);
  const nn::Dataset test_set = nn::make_dataset("digits", 32, 2);
  nn::Sequential net = nn::make_model("lenet5", train_set.channels(), 10,
                                      nn::ScModelConfig::float_model(), 42);
  nn::TrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 16;
  const nn::TrainResult tr = nn::train(net, train_set, test_set, opts);
  std::printf("  lenet5/digits: train acc %.1f%%, test acc %.1f%%\n",
              tr.final_train_accuracy * 100.0, tr.test_accuracy * 100.0);

  // Metrics summary: every histogram the run populated.
  std::printf("\nmetrics summary (timings in ms):\n");
  arch::Table t({"metric", "count", "p50", "p95", "p99", "total"});
  for (const auto& m : telemetry::MetricsRegistry::instance().snapshot()) {
    if (m.kind != telemetry::MetricKind::kHistogram) continue;
    t.add_row({m.name, std::to_string(m.hist.count),
               arch::Table::num(m.hist.p50 * 1e3, 3),
               arch::Table::num(m.hist.p95 * 1e3, 3),
               arch::Table::num(m.hist.p99 * 1e3, 3),
               arch::Table::num(m.hist.sum * 1e3, 1)});
  }
  t.print();

  // Cycle attribution: where every machine cycle went, per layer (the
  // runtime Fig. 6 breakdown; benches attach the same table to their JSON).
  std::printf("\ncycle attribution (per layer):\n");
  arch::Table attr_table(
      {"layer", "generation", "execution", "stall", "memory", "total"});
  auto attr_row = [&attr_table](const std::string& name,
                                const geo::arch::CycleAttribution& a) {
    attr_table.add_row({name, std::to_string(a.generation_cycles),
                        std::to_string(a.execution_cycles),
                        std::to_string(a.stall_cycles),
                        std::to_string(a.memory_cycles),
                        std::to_string(a.total_cycles)});
  };
  const auto& ledger = arch::AttributionLedger::instance();
  for (const auto& [name, attr] : ledger.layers()) attr_row(name, attr);
  attr_row("TOTAL", ledger.total());
  attr_table.print();

  if (tracer.enabled())
    std::printf("\ntrace: %lld events buffered\n",
                static_cast<long long>(tracer.event_count()));
  if (journal.enabled())
    std::printf("journal: %lld entries buffered (%lld dropped by ring wrap)\n",
                static_cast<long long>(journal.event_count()),
                static_cast<long long>(journal.dropped()));

  // Flush the trace and export metrics now rather than relying on the
  // static-destruction path.
  telemetry::shutdown();
  return 0;
}
