// Fault-tolerant inference serving runtime (docs/SERVING.md).
//
// InferenceServer is the multi-tenant frontend over a pool of replicated
// GeoMachine backends. Each replica is one worker thread driving a
// ResilientExecutor; around the pool sit the serving policies:
//
//   admission    bounded request queue + per-tenant quotas; overload is
//                refused at the door with kResourceExhausted (load shedding)
//                instead of growing an unbounded backlog
//   deadlines    per-request budgets propagated into execution as a
//                cooperative exec::CancelToken polled at tile boundaries; an
//                expired request releases its replica mid-layer and charges
//                no further cycles
//   retries      a degraded outcome (persistent-fault signature: the
//                tile-retry budget drained on every rung) fails over to a
//                different replica under a bounded budget with exponential
//                backoff; transient faults are absorbed in place by the
//                resilience layer's same-replica tile retries
//   health       a per-replica circuit breaker (serve/health.hpp)
//                quarantines persistently-faulted replicas and re-admits
//                them through half-open probes
//   degradation  past the queue's high-water mark, admitted requests are
//                steered to the reference rung (resilience::RunOptions::start)
//                instead of shed — reduced fidelity before reduced
//                availability
//   prewarm      each admitted request's weight-store pin and stream-table
//                rows are warmed on exec::AsyncLane::io off the critical
//                section, so the first dispatch of a burst hits warm caches
//
// The serving contract: every admitted request gets a terminal Response
// (ok, degraded-ok, or deadline-exceeded) — never a silent drop, and under
// any fault model expressible in GEO_FAULTS, zero failed requests.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "arch/compiler.hpp"
#include "arch/hw_config.hpp"
#include "arch/machine.hpp"
#include "core/status.hpp"
#include "exec/cancel.hpp"
#include "fault/fault_model.hpp"
#include "resilience/resilience.hpp"
#include "serve/health.hpp"

namespace geo::store {
class WeightStore;
}

namespace geo::serve {

// Serving knobs, set by the caller (docs/SERVING.md).
struct ServeOptions {
  int replicas = 2;        // GeoMachine pool size
  int queue_capacity = 32; // bounded request queue
  int tenant_quota = 16;   // in-flight requests per tenant
  // Queue depth at which admitted requests steer to the reference rung.
  // 0 = auto (3/4 of queue_capacity); >= queue_capacity disables steering.
  int high_water = 0;
  int retries = 1;  // cross-replica failovers per request
  // Wait before failover attempt k is eligible to be re-dispatched (doubles
  // per attempt, up to 2^20 times). At most 10^9 µs, so the largest wait
  // stays inside steady_clock's range.
  std::int64_t retry_backoff_us = 200;
  int breaker_strikes = 3;  // dirty outcomes to quarantine
  int probe_after = 8;      // completions elsewhere before a quarantined
                            // replica may probe

  geo::Status validate() const;
  std::string to_string() const;

  int effective_high_water() const noexcept;
};

struct Request {
  std::string tenant = "default";
  arch::ConvShape shape;
  // Caller-owned; must outlive the Response future's completion.
  std::span<const float> weights;
  std::span<const float> input;
  std::span<const float> bn_scale;
  std::span<const float> bn_shift;
  std::uint64_t layer_salt = 0;
  // Out-of-core weights: when non-empty, `weights` is left empty and the
  // named layer is pinned from the attached store::WeightStore at dispatch
  // time (docs/STORAGE.md). Replicas share the store read-only; the store's
  // repair-or-fallback contract means the pin never fails, so the serving
  // "zero failed requests" invariant survives disk corruption too. The
  // load's modeled io stall is charged into the execution's memory bucket.
  std::string store_layer;
  // Per-request deadline: 0 = none, > 0 = microseconds from submit;
  // negative is refused at admission.
  std::int64_t deadline_us = 0;
  std::string label;  // journal/metrics label; defaults to tenant
  // Test hook: > 0 arms the request's CancelToken to trip after N
  // cancellation polls (exec::CancelToken::trip_after), making mid-execution
  // deadline expiry deterministic regardless of wall-clock timing.
  std::int64_t trip_after_polls = 0;
};

struct Response {
  geo::Status status;              // terminal outcome (default OK)
  arch::MachineResult result;                     // valid when status.ok()
  bool degraded = false;  // served below the native rung (fault or steering)
  bool steered = false;   // degraded by overload steering, not by faults
  int replica = -1;       // replica that produced the terminal outcome
  int attempts = 0;       // executions across replicas (1 = no failover)
  double queue_us = 0.0;  // submit -> first dispatch
  double exec_us = 0.0;   // execution wall time of the final attempt
  double total_us = 0.0;  // submit -> response
};

// Monotone counters since construction (stats() snapshot).
struct ServeStats {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected_invalid = 0;  // failed pre-flight validation
  std::int64_t shed_queue = 0;        // refused: queue full
  std::int64_t shed_quota = 0;        // refused: tenant over quota
  std::int64_t completed = 0;         // terminal responses delivered
  std::int64_t ok = 0;                // completed at the native rung
  std::int64_t degraded = 0;          // completed below the native rung
  std::int64_t steered = 0;           // admitted past the high-water mark
  std::int64_t deadline_expired = 0;  // terminal kDeadlineExceeded
  std::int64_t failed = 0;            // any other terminal error (contract: 0)
  std::int64_t failovers = 0;         // cross-replica re-dispatches
  std::int64_t quarantines = 0;       // breaker open transitions
  std::int64_t probes = 0;            // half-open probes dispatched
  std::int64_t readmits = 0;          // probes that closed the breaker
  std::int64_t prewarms = 0;          // admission-time prewarm tasks scheduled
  std::int64_t prewarm_pins = 0;      // weight-store layers pinned warm
  std::int64_t prewarm_tables = 0;    // stream-table rows acquired warm
  std::int64_t queue_depth = 0;       // instantaneous
  std::vector<std::int64_t> served_by;  // executions per replica
};

// The serving frontend. Construction spawns one worker thread per replica;
// destruction drains every admitted request, then joins them. Thread-safe:
// any thread may submit.
class InferenceServer {
 public:
  InferenceServer(const arch::HwConfig& hw, ServeOptions options);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  // Admission: validates the request, applies quota and queue-capacity
  // checks, and either enqueues it (returning a future that always resolves
  // to a terminal Response) or refuses it with kInvalidArgument /
  // kResourceExhausted / kUnavailable. Never blocks on the queue.
  geo::StatusOr<std::future<Response>> submit(Request req);

  // submit + wait; admission refusals are folded into Response::status.
  Response run(Request req);

  // Attaches the shared out-of-core weight store that Request::store_layer
  // names resolve against. All replicas pin from this one store (it is
  // thread-safe and read-only from the serving side).
  void attach_store(std::shared_ptr<store::WeightStore> store);

  ServeStats stats() const;
  const ServeOptions& options() const noexcept { return options_; }
  BreakerState replica_state(int replica) const {
    return health_.state(replica);
  }

  // Test hooks. pause() holds dispatch (admission stays live) so tests can
  // fill the queue deterministically; set_replica_fault installs a
  // per-replica fault domain (the worker wraps each execution in a
  // ScopedFaultInjection, overriding GEO_FAULTS on that replica only).
  void pause();
  void resume();
  void set_replica_fault(int replica, std::optional<fault::FaultConfig> cfg);

 private:
  struct Pending;

  void worker_main(int replica);
  // Runs one claimed request: queue-time latch, expired-in-queue response,
  // fault scope, store pin, one executor call.
  void dispatch(int replica, std::unique_ptr<Pending> p);
  // Post-execution tail of dispatch: attempt bookkeeping, deadline/error
  // handling, failover re-queue, breaker signal, terminal respond.
  void finish_attempt(int replica, std::unique_ptr<Pending> p,
                      geo::StatusOr<arch::MachineResult> result,
                      bool degraded, double exec_us);
  void schedule_prewarm(const Request& req);
  void respond(std::unique_ptr<Pending> p, Response resp);
  void apply_transition(ReplicaHealth::Transition t, int replica);

  arch::HwConfig hw_;
  ServeOptions options_;
  int high_water_;
  resilience::RetryPolicy retry_policy_;
  arch::GeoMachine validator_;
  ReplicaHealth health_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Pending>> queue_;
  std::map<std::string, std::int64_t> tenant_load_;
  std::vector<std::optional<fault::FaultConfig>> replica_fault_;
  std::shared_ptr<store::WeightStore> store_;  // guarded by mu_
  std::vector<std::int64_t> served_by_;
  bool stopping_ = false;
  bool paused_ = false;

  std::atomic<std::int64_t> submitted_{0}, admitted_{0}, rejected_invalid_{0},
      shed_queue_{0}, shed_quota_{0}, completed_{0}, ok_{0}, degraded_{0},
      steered_{0}, deadline_expired_{0}, failed_{0}, failovers_{0},
      quarantines_{0}, probes_{0}, readmits_{0}, prewarms_{0},
      prewarm_pins_{0}, prewarm_tables_{0};

  std::vector<std::thread> workers_;
};

}  // namespace geo::serve
