// Pipeline-sharded serving of multi-layer networks (docs/SERVING.md).
//
// PipelineRouter splits a network's layers into contiguous stage ranges and
// gives each stage its own InferenceServer (replica pool + circuit breaker +
// failover — the full per-request serving policy applies per stage). Stages
// are chained over exec::AsyncLane handoffs and double-buffered: each stage
// admits at most two in-flight networks (one executing, one arriving), so
// stage N executes network b while stage N+1 receives b-1 — the paper's
// shadow-buffer overlap lifted from SNG buffers to the replica pool. An
// admitted network always gets a terminal NetworkResponse; per-stage
// failover keeps the zero-failed-requests contract even with a whole stage's
// replicas faulted (the stage degrades, the network completes).
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/async_lane.hpp"
#include "serve/serve.hpp"

namespace geo::serve {

// One layer of a multi-layer network request. Spans are caller-owned and
// must outlive the response future's completion.
struct LayerSpec {
  arch::ConvShape shape;
  std::span<const float> weights;
  std::span<const float> bn_scale;
  std::span<const float> bn_shift;
  std::uint64_t layer_salt = 0;
  // Out-of-core weights, resolved against the attached store at the owning
  // stage (see Request::store_layer). Mutually exclusive with `weights`.
  std::string store_layer;
};

struct NetworkRequest {
  std::string tenant = "default";
  // Layers in execution order; layer i+1's activations() must equal layer
  // i's outputs() (the router chains them through dequantization).
  std::vector<LayerSpec> layers;
  std::span<const float> input;  // layer 0's input, caller-owned
  std::int64_t deadline_us = 0;  // whole-network budget, 0 = none
  std::string label;
};

struct NetworkResponse {
  geo::Status status;          // terminal outcome (default OK)
  arch::MachineResult result;  // last layer's result, valid when status.ok()
  bool degraded = false;       // any layer served below the native rung
  int failovers = 0;           // cross-replica re-dispatches, all layers
  double total_us = 0.0;       // submit -> response
};

// Monotone counters since construction.
struct PipelineStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;         // terminal responses (any status)
  std::int64_t degraded = 0;          // completed with a degraded layer
  std::int64_t deadline_expired = 0;  // terminal kDeadlineExceeded
  std::int64_t failed = 0;            // other terminal errors (contract: 0)
  std::int64_t handoffs = 0;          // inter-stage activation handoffs
  std::int64_t stage_waits = 0;       // handoffs that blocked on a busy stage
};

class PipelineRouter {
 public:
  // `stages` stage servers, each running `options` (so the total replica
  // count is stages * options.replicas). Batching knobs apply per stage.
  PipelineRouter(const arch::HwConfig& hw, int stages, ServeOptions options);
  ~PipelineRouter();

  PipelineRouter(const PipelineRouter&) = delete;
  PipelineRouter& operator=(const PipelineRouter&) = delete;

  // Admission: validates the layer chain, then enqueues the network into
  // stage 0. Blocks only on stage 0's double-buffer gate (backpressure when
  // two networks are already in flight there); the returned future always
  // resolves to a terminal NetworkResponse.
  geo::StatusOr<std::future<NetworkResponse>> submit(NetworkRequest req);

  // submit + wait; admission refusals fold into NetworkResponse::status.
  NetworkResponse run(NetworkRequest req);

  // Attaches the store LayerSpec::store_layer names resolve against, on
  // every stage.
  void attach_store(std::shared_ptr<store::WeightStore> store);

  int stages() const noexcept { return stages_; }
  // The stage's server, for per-stage fault injection and breaker state.
  InferenceServer& stage(int s) { return *servers_[static_cast<std::size_t>(s)]; }

  PipelineStats stats() const;

 private:
  struct InFlight;
  struct StageGate;

  // First layer index of stage `s` for an `layers`-layer network
  // (contiguous balanced split).
  int stage_first(int s, int layers) const noexcept;
  void advance(std::shared_ptr<InFlight> net, int s);
  void fulfill(const std::shared_ptr<InFlight>& net, NetworkResponse resp);
  void acquire_gate(int s);
  void release_gate(int s);

  arch::HwConfig hw_;
  int stages_;
  std::vector<std::unique_ptr<InferenceServer>> servers_;
  std::vector<std::unique_ptr<StageGate>> gates_;
  // Declared after servers_/gates_ and reset front-to-back in the
  // destructor: draining lane s may hand off to lane s+1 and touch servers
  // and gates, so those must still be alive.
  std::vector<std::unique_ptr<exec::AsyncLane>> lanes_;

  std::atomic<std::int64_t> submitted_{0}, completed_{0}, degraded_{0},
      deadline_expired_{0}, failed_{0}, handoffs_{0}, stage_waits_{0};
};

}  // namespace geo::serve
