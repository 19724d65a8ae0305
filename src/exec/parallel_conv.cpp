#include "exec/parallel_conv.hpp"

#include "exec/thread_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace geo::exec {

namespace {

// Wraps one tile in a `machine.tile` span on whichever worker runs it and
// ties it back to the submitting layer span with a Chrome-trace flow
// (ph:"s" under the parent, ph:"f" bp:"e" inside each tile span), so
// Perfetto draws an arrow from the layer to every tile even across
// steals. Returns 0 when tracing is off (one relaxed load; no flow id is
// burned).
std::uint64_t open_tile_flow(telemetry::Tracer& tracer) {
  if (!tracer.enabled()) return 0;
  const std::uint64_t flow = tracer.next_flow_id();
  tracer.flow_out("machine.tiles", "machine", flow);
  return flow;
}

}  // namespace

ParallelConvRunner::ParallelConvRunner(ThreadPool* pool)
    : pool_(pool != nullptr ? pool : &ThreadPool::instance()) {}

bool ParallelConvRunner::run_all(arch::ConvExecution& exec,
                                 CancelToken* cancel,
                                 std::vector<arch::MachineStats>* tile_costs) {
  const std::int64_t tiles = exec.tile_count();
  auto& tracer = telemetry::Tracer::instance();
  auto& tile_hist =
      telemetry::MetricsRegistry::instance().histogram("machine.tile");
  const std::uint64_t flow = open_tile_flow(tracer);
  if (tile_costs != nullptr)
    tile_costs->assign(static_cast<std::size_t>(tiles), arch::MachineStats{});
  // Tile grain 1: tiles are coarse units (a full channel-group x
  // window-group pass schedule each), so per-tile claiming balances best.
  pool_->parallel_for(
      tiles, 1,
      [&exec, &tracer, &tile_hist, flow, cancel, tile_costs](std::int64_t t) {
        if (cancel != nullptr && cancel->cancelled()) return;
        telemetry::ScopedTimer span(tile_hist, "machine.tile", "machine",
                                    {{"tile", static_cast<double>(t)}});
        if (flow != 0) tracer.flow_in("machine.tiles", "machine", flow);
        const arch::MachineStats cost = exec.run_tile(t);
        if (tile_costs != nullptr)
          (*tile_costs)[static_cast<std::size_t>(t)] = cost;
      });
  return cancel == nullptr || !cancel->cancel_requested();
}

}  // namespace geo::exec
