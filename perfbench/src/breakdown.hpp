// Per-layer phase breakdown of one unit of work, timed from outside through
// the public machine API: prepare_conv (weight-stream generation), the
// first ParallelConvRunner::run_all (activation generation + MAC), a re-walk
// of the same tiles (MAC only: the activation streams are cached), finish
// (BN / write-back), and the same layer through ResilientExecutor::run_conv.
// The prepare and walk are repeated on a 1-lane pool for the speedups.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct LayerTimes {
  std::string name;
  double weight = 1.0;  // executions per unit of work
  std::int64_t tiles = 0;
  // Medians over the repetitions, ms.
  double prepare_ms = 0, walk_ms = 0, mac_ms = 0, finish_ms = 0;
  double run_conv_ms = 0;  // ResilientExecutor::run_conv, same layer
  double prepare_1lane_ms = 0, walk_1lane_ms = 0;
  int reps = 0;
};

// Replays units `unit(0)`, `unit(1)`, ... for about `seconds` (at least
// three units). Throws std::runtime_error if an output differs from the
// layer's expected bytes.
std::vector<LayerTimes> breakdown(
    const std::function<std::vector<UnitLayer>(int)>& unit, double seconds);

}  // namespace perfbench
