#include "serve/serve.hpp"

#include <algorithm>
#include <utility>

#include "exec/async_lane.hpp"
#include "sc/seed_sharing.hpp"
#include "sc/stream_table.hpp"
#include "store/weight_store.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"

namespace geo::serve {

namespace {

using Clock = std::chrono::steady_clock;

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

void journal_event(std::string_view kind, std::string_view label,
                   std::initializer_list<telemetry::JournalArg> args = {},
                   std::string_view note = {}) {
  auto& journal = telemetry::Journal::instance();
  if (journal.enabled()) journal.record(kind, label, args, note);
}

}  // namespace

// One admitted request's lifetime across dispatches. Owned by the queue
// between dispatches and by the serving worker while executing; the caller
// holds only the future.
struct InferenceServer::Pending {
  Request req;
  std::promise<Response> promise;
  exec::CancelToken cancel;
  Clock::time_point submitted;
  Clock::time_point not_before;  // failover backoff gate
  double queue_us = 0.0;         // submit -> first dispatch
  int attempts = 0;              // executions so far
  int exclude = -1;              // replica the last attempt failed on
  bool dispatched = false;       // queue_us already latched
  bool steered = false;          // admitted past the high-water mark

  const std::string& label() const {
    return req.label.empty() ? req.tenant : req.label;
  }
};

InferenceServer::InferenceServer(const arch::HwConfig& hw,
                                 ServeOptions options)
    : hw_(hw),
      options_(std::move(options)),
      high_water_(options_.effective_high_water()),
      retry_policy_(resilience::RetryPolicy::from_env()),
      validator_(hw),
      health_(options_.replicas, options_.breaker_strikes,
              options_.probe_after) {
  if (const geo::Status s = options_.validate(); !s.ok())
    throw std::invalid_argument("InferenceServer: " + s.message());
  replica_fault_.resize(static_cast<std::size_t>(options_.replicas));
  served_by_.assign(static_cast<std::size_t>(options_.replicas), 0);
  // Pre-register every serve.* metric so snapshots have a deterministic
  // shape whether or not an event occurred.
  auto& m = telemetry::MetricsRegistry::instance();
  for (const char* name :
       {"serve.submitted", "serve.admitted", "serve.rejected_invalid",
        "serve.shed_queue", "serve.shed_quota", "serve.completed", "serve.ok",
        "serve.degraded", "serve.steered", "serve.deadline_expired",
        "serve.failed", "serve.failover", "serve.quarantine", "serve.probe",
        "serve.probe_failed", "serve.readmit", "serve.prewarm",
        "serve.prewarm_pins", "serve.prewarm_tables"})
    m.counter(name);
  m.gauge("serve.queue_depth");
  m.histogram("serve.queue_us");
  m.histogram("serve.exec_us");
  m.histogram("serve.latency_us");
  journal_event("serve.start", "server", {}, options_.to_string());
  workers_.reserve(static_cast<std::size_t>(options_.replicas));
  for (int r = 0; r < options_.replicas; ++r)
    workers_.emplace_back([this, r] { worker_main(r); });
}

InferenceServer::~InferenceServer() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
    paused_ = false;  // a paused server still drains on shutdown
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // The io lane is FIFO: once this no-op has run, every prewarm task this
  // server scheduled has finished, so none outlives it (or the statics it
  // touches, at process exit).
  exec::AsyncLane::io().submit([] {}).wait();
  journal_event("serve.stop", "server",
                {{"completed", static_cast<double>(
                                   completed_.load(std::memory_order_relaxed))}});
}

geo::StatusOr<std::future<Response>> InferenceServer::submit(Request req) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  telemetry::MetricsRegistry::instance().counter("serve.submitted").add();
  // Validate at the door: a malformed request must never consume a replica.
  // A store-backed request carries no weights span yet; it is admitted only
  // if the named layer exists in the attached store with exactly the float
  // count the shape demands, so the dispatch-time pin cannot size-fail.
  auto reject = [&](geo::Status s) -> geo::Status {
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    telemetry::MetricsRegistry::instance()
        .counter("serve.rejected_invalid")
        .add();
    journal_event("serve.reject", req.tenant, {}, s.message());
    return s;
  };
  if (req.deadline_us < 0)
    return reject(geo::Status::invalid_argument("serve: deadline_us < 0"));
  std::vector<float> weight_stub;
  std::span<const float> validate_weights = req.weights;
  if (!req.store_layer.empty()) {
    std::shared_ptr<store::WeightStore> store;
    {
      std::lock_guard lock(mu_);
      store = store_;
    }
    if (store == nullptr)
      return reject(geo::Status::failed_precondition(
          "serve: request names store layer '" + req.store_layer +
          "' but no weight store is attached"));
    if (!req.weights.empty())
      return reject(geo::Status::invalid_argument(
          "serve: request has both a weights span and store layer '" +
          req.store_layer + "'"));
    const std::uint64_t floats = store->layer_floats(req.store_layer);
    if (floats == 0 ||
        floats != static_cast<std::uint64_t>(req.shape.weights()))
      return reject(geo::Status::invalid_argument(
          "serve: store layer '" + req.store_layer + "' has " +
          std::to_string(floats) + " floats, shape wants " +
          std::to_string(req.shape.weights())));
    // Size-only stand-in for the span checks below; the real bytes are
    // pinned by the worker at dispatch.
    weight_stub.resize(static_cast<std::size_t>(floats));
    validate_weights = weight_stub;
  }
  if (geo::Status s = validator_.validate_conv(req.shape, validate_weights,
                                               req.input, req.bn_scale,
                                               req.bn_shift);
      !s.ok())
    return reject(std::move(s));

  auto p = std::make_unique<Pending>();
  p->req = std::move(req);
  p->submitted = Clock::now();
  p->not_before = p->submitted;
  if (p->req.deadline_us > 0)
    p->cancel.set_deadline(p->submitted +
                           std::chrono::microseconds(p->req.deadline_us));
  if (p->req.trip_after_polls > 0)
    p->cancel.trip_after(p->req.trip_after_polls);
  std::future<Response> future = p->promise.get_future();

  {
    std::lock_guard lock(mu_);
    if (stopping_)
      return geo::Status::unavailable("serve: server is shutting down");
    if (static_cast<int>(queue_.size()) >= options_.queue_capacity) {
      shed_queue_.fetch_add(1, std::memory_order_relaxed);
      telemetry::MetricsRegistry::instance().counter("serve.shed_queue").add();
      journal_event("serve.shed", p->req.tenant,
                    {{"depth", static_cast<double>(queue_.size())}}, "queue");
      return geo::Status::resource_exhausted(
          "serve: request queue full (" +
          std::to_string(options_.queue_capacity) + ")");
    }
    std::int64_t& load = tenant_load_[p->req.tenant];
    if (load >= options_.tenant_quota) {
      shed_quota_.fetch_add(1, std::memory_order_relaxed);
      telemetry::MetricsRegistry::instance().counter("serve.shed_quota").add();
      journal_event("serve.shed", p->req.tenant,
                    {{"load", static_cast<double>(load)}}, "quota");
      return geo::Status::resource_exhausted("serve: tenant '" +
                                             p->req.tenant + "' over quota (" +
                                             std::to_string(load) + ")");
    }
    ++load;
    // Graceful degradation: past the high-water mark, admit but steer to the
    // reference rung instead of queueing full-fidelity work we cannot drain.
    p->steered = static_cast<int>(queue_.size()) >= high_water_;
    if (p->steered) {
      steered_.fetch_add(1, std::memory_order_relaxed);
      telemetry::MetricsRegistry::instance().counter("serve.steered").add();
      journal_event("serve.steer", p->req.tenant,
                    {{"depth", static_cast<double>(queue_.size())}},
                    resilience::to_string(resilience::Rung::kReference));
    }
    admitted_.fetch_add(1, std::memory_order_relaxed);
    telemetry::MetricsRegistry::instance().counter("serve.admitted").add();
    // Warm the model's caches off the replica's critical section: by the
    // time a worker claims this request, the weight-store pin and
    // stream-table rows are (best-effort) already resident.
    schedule_prewarm(p->req);
    queue_.push_back(std::move(p));
    telemetry::MetricsRegistry::instance()
        .gauge("serve.queue_depth")
        .set(static_cast<double>(queue_.size()));
  }
  cv_.notify_all();
  return future;
}

Response InferenceServer::run(Request req) {
  auto future = submit(std::move(req));
  if (!future.ok()) {
    Response r;
    r.status = future.status();
    return r;
  }
  return future->get();
}

void InferenceServer::worker_main(int replica) {
  for (;;) {
    std::unique_ptr<Pending> claimed;
    {
      std::unique_lock lock(mu_);
      for (;;) {
        auto wait_until = Clock::time_point::max();
        if (!paused_) {
          const auto now = Clock::now();
          auto pick = queue_.end();
          for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if ((*it)->not_before > now) {
              wait_until = std::min(wait_until, (*it)->not_before);
              continue;
            }
            // A failed-over request avoids the replica it failed on —
            // waived when every other replica is quarantined (serving
            // degraded beats waiting for a probe that may never come).
            if ((*it)->exclude == replica && health_.other_candidate(replica))
              continue;
            pick = it;
            break;
          }
          if (pick != queue_.end()) {
            bool probe = false;
            if (health_.admit(replica, &probe)) {
              if (probe) {
                probes_.fetch_add(1, std::memory_order_relaxed);
                telemetry::MetricsRegistry::instance()
                    .counter("serve.probe")
                    .add();
                journal_event("serve.probe", (*pick)->label(),
                              {{"replica", static_cast<double>(replica)}});
              }
              claimed = std::move(*pick);
              queue_.erase(pick);
              telemetry::MetricsRegistry::instance()
                  .gauge("serve.queue_depth")
                  .set(static_cast<double>(queue_.size()));
              break;
            }
            // Quarantined and not probe-eligible: wait for completions
            // elsewhere (respond() notifies) to drain the countdown.
          }
        }
        if (stopping_ && queue_.empty()) return;
        if (wait_until == Clock::time_point::max())
          cv_.wait(lock);
        else
          cv_.wait_until(lock, wait_until);
      }
    }
    dispatch(replica, std::move(claimed));
  }
}

void InferenceServer::dispatch(int replica, std::unique_ptr<Pending> p) {
  if (!p->dispatched) {
    p->dispatched = true;
    p->queue_us = micros_between(p->submitted, Clock::now());
  }
  auto& m = telemetry::MetricsRegistry::instance();
  // Deadline already expired while queued: release the replica without
  // charging a single cycle.
  if (p->cancel.cancelled()) {
    health_.on_no_signal(replica);
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    m.counter("serve.deadline_expired").add();
    journal_event("serve.deadline", p->label(),
                  {{"replica", static_cast<double>(replica)},
                   {"attempt", static_cast<double>(p->attempts)}},
                  "expired-in-queue");
    Response resp;
    resp.status =
        geo::Status::deadline_exceeded("serve: deadline expired in queue");
    resp.replica = replica;
    resp.attempts = p->attempts;
    respond(std::move(p), std::move(resp));
    return;
  }

  // Per-replica fault domain: the scoped override beats GEO_FAULTS on this
  // thread, and the thread pool propagates it to any helper workers.
  std::optional<fault::FaultConfig> fault_cfg;
  {
    std::lock_guard lock(mu_);
    fault_cfg = replica_fault_[static_cast<std::size_t>(replica)];
  }
  std::optional<fault::ScopedFaultInjection> fault_scope;
  if (fault_cfg.has_value()) fault_scope.emplace(*fault_cfg);

  // Store-backed weights: pinned here on the worker and inside the fault
  // scope — the repair ladder (reread/rebuild/fallback) runs under whatever
  // disk faults this replica is subject to and still returns
  // source-identical bytes. Admission verified the layer, so a pin failure
  // is a contract break surfaced loudly below, never a silent drop. The
  // pin's modeled io stall (zero on cache hits) is charged into the
  // request's ledger, where attribution folds it into the memory bucket.
  std::span<const float> weights = p->req.weights;
  store::Pinned pinned;
  std::int64_t io_stall_cycles = 0;
  if (!p->req.store_layer.empty()) {
    std::shared_ptr<store::WeightStore> store;
    {
      std::lock_guard lock(mu_);
      store = store_;
    }
    geo::StatusOr<store::Pinned> pin =
        store != nullptr ? store->pin(p->req.store_layer)
                         : geo::Status::failed_precondition(
                               "serve: weight store detached after admission");
    if (!pin.ok()) {
      apply_transition(health_.on_outcome(replica, false), replica);
      failed_.fetch_add(1, std::memory_order_relaxed);
      m.counter("serve.failed").add();
      journal_event("serve.fail", p->label(),
                    {{"replica", static_cast<double>(replica)}},
                    pin.status().message());
      Response resp;
      resp.status = pin.status();
      resp.replica = replica;
      resp.attempts = p->attempts;
      respond(std::move(p), std::move(resp));
      return;
    }
    pinned = std::move(*pin);
    weights = pinned.span();
    io_stall_cycles = pinned.stats().io_stall_cycles;
  }

  resilience::ResilientExecutor executor(hw_, retry_policy_);
  const resilience::RunOptions run_options{
      p->steered ? resilience::Rung::kReference : resilience::Rung::kNative,
      &p->cancel, io_stall_cycles};
  const auto exec_start = Clock::now();
  geo::StatusOr<arch::MachineResult> result = executor.run_conv(
      p->req.shape, weights, p->req.input, p->req.bn_scale, p->req.bn_shift,
      p->req.layer_salt, p->label(), run_options);
  const double exec_us = micros_between(exec_start, Clock::now());
  const bool degraded = result.ok() && executor.last_outcome()->degraded;
  finish_attempt(replica, std::move(p), std::move(result), degraded, exec_us);
}

void InferenceServer::finish_attempt(int replica, std::unique_ptr<Pending> p,
                                     geo::StatusOr<arch::MachineResult> result,
                                     bool degraded, double exec_us) {
  ++p->attempts;
  {
    std::lock_guard lock(mu_);
    ++served_by_[static_cast<std::size_t>(replica)];
  }

  if (!result.ok()) {
    Response resp;
    resp.status = result.status();
    resp.replica = replica;
    resp.attempts = p->attempts;
    resp.exec_us = exec_us;
    if (result.status().code() == geo::StatusCode::kDeadlineExceeded) {
      // Cancelled mid-execution: the execution was abandoned at a tile
      // boundary and carries no health signal about the replica.
      health_.on_no_signal(replica);
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      telemetry::MetricsRegistry::instance()
          .counter("serve.deadline_expired")
          .add();
      journal_event("serve.deadline", p->label(),
                    {{"replica", static_cast<double>(replica)},
                     {"attempt", static_cast<double>(p->attempts)}},
                    "expired-mid-execution");
    } else {
      // Unreachable by design: admission validated the request and the
      // resilience ladder bottoms out in a rung that always succeeds. Fail
      // the request loudly rather than hide a contract break.
      apply_transition(health_.on_outcome(replica, false), replica);
      failed_.fetch_add(1, std::memory_order_relaxed);
      telemetry::MetricsRegistry::instance().counter("serve.failed").add();
      journal_event("serve.fail", p->label(),
                    {{"replica", static_cast<double>(replica)}},
                    result.status().message());
    }
    respond(std::move(p), std::move(resp));
    return;
  }

  // Steering chose the rung; only an unsteered degradation implicates the
  // replica (its tile-retry budget drained on hardware rungs).
  const bool clean = !degraded || p->steered;

  if (degraded && !p->steered && p->attempts <= options_.retries &&
      health_.other_candidate(replica) && !p->cancel.cancel_requested()) {
    // Persistent-fault signature with failover budget left: strike this
    // replica, back off, and re-dispatch elsewhere. The request keeps its
    // queue slot semantics (already admitted — re-enqueue bypasses
    // capacity so an admitted request can never be shed).
    apply_transition(health_.on_outcome(replica, false), replica);
    failovers_.fetch_add(1, std::memory_order_relaxed);
    telemetry::MetricsRegistry::instance().counter("serve.failover").add();
    journal_event("serve.failover", p->label(),
                  {{"replica", static_cast<double>(replica)},
                   {"attempt", static_cast<double>(p->attempts)}});
    p->exclude = replica;
    p->not_before =
        Clock::now() + std::chrono::microseconds(
                           options_.retry_backoff_us
                           << std::min(p->attempts - 1, 20));
    {
      std::lock_guard lock(mu_);
      queue_.push_front(std::move(p));
      telemetry::MetricsRegistry::instance()
          .gauge("serve.queue_depth")
          .set(static_cast<double>(queue_.size()));
    }
    cv_.notify_all();
    return;
  }

  apply_transition(health_.on_outcome(replica, clean), replica);
  Response resp;
  resp.result = std::move(*result);
  resp.degraded = degraded;
  resp.steered = p->steered;
  resp.replica = replica;
  resp.attempts = p->attempts;
  resp.exec_us = exec_us;
  respond(std::move(p), std::move(resp));
}

void InferenceServer::schedule_prewarm(const Request& req) {
  // Called under mu_ from submit(). The task may use `this`: the
  // destructor drains the io lane before the server goes away.
  prewarms_.fetch_add(1, std::memory_order_relaxed);
  telemetry::MetricsRegistry::instance().counter("serve.prewarm").add();
  std::shared_ptr<store::WeightStore> store =
      req.store_layer.empty() ? nullptr : store_;
  const arch::HwConfig hw = hw_;
  const arch::ConvShape shape = req.shape;
  const std::uint64_t salt = req.layer_salt;
  const std::string store_layer = req.store_layer;
  exec::AsyncLane::io().submit([this, store, hw, shape, salt, store_layer] {
    auto& metrics = telemetry::MetricsRegistry::instance();
    if (store != nullptr) {
      // Pinning loads + verifies the layer's blocks into the store cache;
      // dropping the pin keeps the cached blocks warm for dispatch.
      if (auto pin = store->pin(store_layer); pin.ok()) {
        prewarm_pins_.fetch_add(1, std::memory_order_relaxed);
        metrics.counter("serve.prewarm_pins").add();
      }
    }
    if (!sc::stream_table_enabled()) return;
    // Build the comparator tables dispatch will acquire: the layer's seed
    // layout is a pure function of (shape, salt, hw), so acquiring the
    // same specs here makes the dispatch-time acquires cache hits. Bounded
    // slice — at moderate sharing the spec space collapses to a handful of
    // distinct rows, so the first few coordinates cover the layer.
    const nn::ScLayerConfig cfg =
        arch::GeoMachine(hw).layer_config(shape, salt);
    const nn::LayerSeeds seeds(cfg, shape);
    auto& registry = sc::StreamTableRegistry::instance();
    std::vector<sc::SeedSpec> seen;
    std::int64_t acquired = 0;
    const auto acquire_once = [&](const sc::SeedSpec& spec) {
      if (std::find(seen.begin(), seen.end(), spec) != seen.end()) return;
      seen.push_back(spec);
      if (registry.acquire(cfg.rng, spec,
                           static_cast<std::size_t>(cfg.stream_len)) !=
          nullptr)
        ++acquired;
    };
    const int acts =
        static_cast<int>(std::min<std::int64_t>(shape.activations(), 64));
    for (int i = 0; i < acts; ++i)
      acquire_once(seeds.activation(static_cast<std::size_t>(i)));
    for (int oc = 0; oc < std::min(shape.cout, 4); ++oc)
      for (int ic = 0; ic < std::min(shape.cin, 4); ++ic)
        for (int ky = 0; ky < shape.kh; ++ky)
          for (int kx = 0; kx < shape.kw; ++kx)
            acquire_once(seeds.weight(sc::WeightPos{oc, ic, ky, kx}));
    if (acquired > 0) {
      prewarm_tables_.fetch_add(acquired, std::memory_order_relaxed);
      metrics.counter("serve.prewarm_tables").add(acquired);
    }
  });
}

void InferenceServer::respond(std::unique_ptr<Pending> p, Response resp) {
  resp.queue_us = p->queue_us;
  resp.total_us = micros_between(p->submitted, Clock::now());
  {
    std::lock_guard lock(mu_);
    auto it = tenant_load_.find(p->req.tenant);
    if (it != tenant_load_.end() && --it->second <= 0) tenant_load_.erase(it);
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  auto& m = telemetry::MetricsRegistry::instance();
  m.counter("serve.completed").add();
  if (resp.status.ok()) {
    if (resp.degraded) {
      degraded_.fetch_add(1, std::memory_order_relaxed);
      m.counter("serve.degraded").add();
    } else {
      ok_.fetch_add(1, std::memory_order_relaxed);
      m.counter("serve.ok").add();
    }
  }
  m.histogram("serve.queue_us").observe(resp.queue_us);
  m.histogram("serve.exec_us").observe(resp.exec_us);
  m.histogram("serve.latency_us").observe(resp.total_us);
  p->promise.set_value(std::move(resp));
  // Completions drain quarantined replicas' probe countdowns and free a
  // queue slot — wake every worker.
  cv_.notify_all();
}

void InferenceServer::apply_transition(ReplicaHealth::Transition t,
                                       int replica) {
  auto& m = telemetry::MetricsRegistry::instance();
  switch (t) {
    case ReplicaHealth::Transition::kNone:
      return;
    case ReplicaHealth::Transition::kOpened:
      quarantines_.fetch_add(1, std::memory_order_relaxed);
      m.counter("serve.quarantine").add();
      journal_event("serve.quarantine", "replica",
                    {{"replica", static_cast<double>(replica)}});
      return;
    case ReplicaHealth::Transition::kReopened:
      quarantines_.fetch_add(1, std::memory_order_relaxed);
      m.counter("serve.probe_failed").add();
      journal_event("serve.quarantine", "replica",
                    {{"replica", static_cast<double>(replica)}},
                    "probe-failed");
      return;
    case ReplicaHealth::Transition::kClosed:
      readmits_.fetch_add(1, std::memory_order_relaxed);
      m.counter("serve.readmit").add();
      journal_event("serve.readmit", "replica",
                    {{"replica", static_cast<double>(replica)}});
      return;
  }
}

ServeStats InferenceServer::stats() const {
  ServeStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejected_invalid = rejected_invalid_.load(std::memory_order_relaxed);
  s.shed_queue = shed_queue_.load(std::memory_order_relaxed);
  s.shed_quota = shed_quota_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.ok = ok_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.steered = steered_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.quarantines = quarantines_.load(std::memory_order_relaxed);
  s.probes = probes_.load(std::memory_order_relaxed);
  s.readmits = readmits_.load(std::memory_order_relaxed);
  s.prewarms = prewarms_.load(std::memory_order_relaxed);
  s.prewarm_pins = prewarm_pins_.load(std::memory_order_relaxed);
  s.prewarm_tables = prewarm_tables_.load(std::memory_order_relaxed);
  std::lock_guard lock(mu_);
  s.queue_depth = static_cast<std::int64_t>(queue_.size());
  s.served_by = served_by_;
  return s;
}

void InferenceServer::pause() {
  std::lock_guard lock(mu_);
  paused_ = true;
}

void InferenceServer::resume() {
  {
    std::lock_guard lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void InferenceServer::attach_store(std::shared_ptr<store::WeightStore> store) {
  std::lock_guard lock(mu_);
  store_ = std::move(store);
}

void InferenceServer::set_replica_fault(int replica,
                                        std::optional<fault::FaultConfig> cfg) {
  std::lock_guard lock(mu_);
  replica_fault_[static_cast<std::size_t>(replica)] = std::move(cfg);
}

}  // namespace geo::serve
