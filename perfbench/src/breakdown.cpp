#include "breakdown.hpp"

#include <stdexcept>

#include "arch/machine.hpp"
#include "exec/parallel_conv.hpp"
#include "exec/thread_pool.hpp"
#include "resilience/resilience.hpp"

namespace perfbench {

using geo::arch::ConvExecution;
using geo::arch::GeoMachine;

namespace {

struct Samples {
  std::string name;
  double weight = 1.0;
  std::int64_t tiles = 0;
  std::vector<double> prepare, walk, mac, finish, run_conv, prepare1, walk1;
};

ConvExecution prepare(GeoMachine& machine, const UnitLayer& u) {
  const Layer& l = *u.layer;
  auto exec = machine.prepare_conv(l.shape, l.weights, u.input, l.scale,
                                   l.shift, l.salt);
  if (!exec.ok())
    throw std::runtime_error("breakdown: " + l.shape.name + ": " +
                             exec.status().to_string());
  return std::move(exec).value();
}

void replay(const UnitLayer& u, std::int64_t id, Samples& s) {
  const Layer& l = *u.layer;
  const geo::arch::HwConfig hw = bench_hw();
  GeoMachine machine(hw);
  geo::exec::ParallelConvRunner runner;

  auto t = Clock::now();
  ConvExecution exec = [&] {
    Span span("arch.prepare_conv", id);
    return prepare(machine, u);
  }();
  s.prepare.push_back(ms_since(t));
  s.tiles = exec.tile_count();

  t = Clock::now();
  {
    Span span("arch.walk", id);
    runner.run_all(exec);
  }
  s.walk.push_back(ms_since(t));

  // The activation streams are cached now, so this walk is MAC only.
  t = Clock::now();
  {
    Span span("arch.rewalk", id);
    runner.run_all(exec);
  }
  s.mac.push_back(ms_since(t));

  t = Clock::now();
  geo::arch::MachineResult done = [&] {
    Span span("arch.finish", id);
    return exec.finish();
  }();
  s.finish.push_back(ms_since(t));
  if (!std::equal(done.activations.begin(), done.activations.end(),
                  u.expected.begin(), u.expected.end()))
    throw std::runtime_error("breakdown: " + l.shape.name +
                             " output differs from the reference pass");

  t = Clock::now();
  {
    Span span("resilience.run_conv", id);
    geo::resilience::ResilientExecutor ex(hw, geo::resilience::RetryPolicy{});
    auto r = ex.run_conv(l.shape, l.weights, u.input, l.scale, l.shift,
                         l.salt, l.shape.name);
    if (!r.ok() || r->activations.size() != u.expected.size())
      throw std::runtime_error("breakdown: run_conv failed on " +
                               l.shape.name);
  }
  s.run_conv.push_back(ms_since(t));

  // Same layer on a 1-lane pool. The execution is abandoned unfinished.
  // The resize replaces the process pool, so the runner is made after it
  // (a runner binds the pool it was constructed with).
  geo::exec::ScopedThreads one_lane(1);
  t = Clock::now();
  ConvExecution solo = prepare(machine, u);
  s.prepare1.push_back(ms_since(t));
  t = Clock::now();
  geo::exec::ParallelConvRunner().run_all(solo);
  s.walk1.push_back(ms_since(t));
}

}  // namespace

std::vector<LayerTimes> breakdown(
    const std::function<std::vector<UnitLayer>(int)>& unit, double seconds) {
  std::vector<Samples> samples;
  const auto start = Clock::now();
  for (int rep = 0; rep < 3 || ms_since(start) < seconds * 1000.0; ++rep) {
    const std::vector<UnitLayer> layers = unit(rep % kInputPool);
    if (samples.empty())
      for (const UnitLayer& u : layers)
        samples.push_back({u.layer->shape.name, u.weight, 0, {}, {}, {}, {},
                           {}, {}, {}});
    for (std::size_t i = 0; i < layers.size(); ++i)
      replay(layers[i], rep, samples[i]);
  }
  std::vector<LayerTimes> out;
  for (const Samples& s : samples) {
    LayerTimes t;
    t.name = s.name;
    t.weight = s.weight;
    t.tiles = s.tiles;
    t.prepare_ms = median(s.prepare);
    t.walk_ms = median(s.walk);
    t.mac_ms = median(s.mac);
    t.finish_ms = median(s.finish);
    t.run_conv_ms = median(s.run_conv);
    t.prepare_1lane_ms = median(s.prepare1);
    t.walk_1lane_ms = median(s.walk1);
    t.reps = static_cast<int>(s.prepare.size());
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace perfbench
