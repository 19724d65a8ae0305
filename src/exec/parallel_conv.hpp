// Tile-parallel dispatch for a prepared ConvExecution.
//
// Tiles of one conv layer are independent — disjoint output slices,
// activation streams generated at prepare and only read, commutative
// integer stat merges — so the runner fans `run_tile` calls across the
// GEO_THREADS pool and the finished layer is byte-identical to the serial
// tile loop at any thread count (docs/PARALLELISM.md spells out the
// contract). With a fault model
// installed the determinism holds too: defect-mode injections are a pure
// function of the site, and transient-mode draws are keyed per site access
// sequence, which a single all-tiles pass leaves order-independent. The
// resilience layer's tile walk starts with this pass at every thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/machine.hpp"
#include "exec/cancel.hpp"

namespace geo::exec {

class ThreadPool;

class ParallelConvRunner {
 public:
  // `pool` = nullptr uses the process-wide pool (GEO_THREADS).
  explicit ParallelConvRunner(ThreadPool* pool = nullptr);

  // Runs every tile of `exec` exactly once. Serial (and bit-identical to
  // the plain loop) when the pool has one lane or the layer has one tile.
  // Exceptions from tiles are rethrown here, on the calling thread.
  //
  // `cancel` (may be nullptr) is polled at every tile boundary: once it
  // fires, the remaining tiles are skipped — no further tile charges a
  // cycle — and the call returns false. A cancelled execution is partial
  // and must be abandoned by the caller, never finished.
  //
  // `tile_costs` (may be nullptr) receives each tile's run cost, indexed by
  // tile. The resilience walk charges a rung that fails mid-walk the costs
  // of the tiles it visited in tile order, not every tile's.
  bool run_all(arch::ConvExecution& exec, CancelToken* cancel = nullptr,
               std::vector<arch::MachineStats>* tile_costs = nullptr);

 private:
  ThreadPool* pool_;
};

}  // namespace geo::exec
