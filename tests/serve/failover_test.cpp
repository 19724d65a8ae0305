// Replica failure handling: cooperative cancellation at tile boundaries,
// cross-replica failover of persistent faults, circuit-breaker quarantine
// and half-open re-admission, and the fully-quarantined-fleet forced probe.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "arch/machine.hpp"
#include "exec/cancel.hpp"
#include "fault/fault_model.hpp"
#include "resilience/resilience.hpp"
#include "serve/health.hpp"
#include "serve/serve.hpp"

namespace geo::serve {
namespace {

using arch::ConvShape;
using arch::GeoMachine;
using arch::HwConfig;
using fault::FaultConfig;
using fault::ScopedFaultInjection;

// A defect-model spec that reliably degrades executions: deterministic
// double-bit SRAM bursts that SECDED detects but cannot correct, and that
// re-execution reproduces (per-site RNG), draining the tile-retry budget.
FaultConfig persistent_fault() {
  auto cfg = FaultConfig::parse("sram=2e-2,burst=2,ecc=secded,rng=99");
  EXPECT_TRUE(cfg.ok());
  return *cfg;
}

struct Fixture {
  ConvShape shape;
  std::vector<float> weights, input, ones, zeros;

  explicit Fixture(unsigned seed = 77) {
    shape = ConvShape::conv("t", 4, 6, 5, 3, 1, false);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> wdist(-0.8f, 0.8f);
    std::uniform_real_distribution<float> adist(0.0f, 1.0f);
    weights.resize(static_cast<std::size_t>(shape.weights()));
    for (auto& w : weights) w = wdist(rng);
    input.resize(static_cast<std::size_t>(shape.activations()));
    for (auto& a : input) a = adist(rng);
    ones.assign(static_cast<std::size_t>(shape.cout), 1.0f);
    zeros.assign(static_cast<std::size_t>(shape.cout), 0.0f);
  }

  Request request() const {
    Request r;
    r.shape = shape;
    r.weights = weights;
    r.input = input;
    r.bn_scale = ones;
    r.bn_shift = zeros;
    r.layer_salt = 9;
    return r;
  }
};

HwConfig small_hw() {
  HwConfig hw = HwConfig::ulp();
  hw.accum = nn::AccumMode::kPbw;
  hw.stream_len = 64;
  hw.stream_len_pool = 64;
  hw.stream_len_output = 64;
  return hw;
}

TEST(CancelToken, TripsManuallyOnDeadlineAndOnNthPoll) {
  exec::CancelToken manual;
  EXPECT_FALSE(manual.cancelled());
  manual.cancel();
  EXPECT_TRUE(manual.cancelled());
  EXPECT_TRUE(manual.cancel_requested());

  exec::CancelToken expired;
  expired.set_deadline(std::chrono::steady_clock::now() -
                       std::chrono::microseconds(1));
  EXPECT_TRUE(expired.cancelled());

  exec::CancelToken future_deadline;
  future_deadline.set_deadline(std::chrono::steady_clock::now() +
                               std::chrono::hours(1));
  EXPECT_FALSE(future_deadline.cancelled());

  exec::CancelToken tripwire;
  tripwire.trip_after(3);
  EXPECT_FALSE(tripwire.cancelled());  // poll 1
  EXPECT_FALSE(tripwire.cancelled());  // poll 2
  EXPECT_TRUE(tripwire.cancelled());   // poll 3 trips
  EXPECT_TRUE(tripwire.cancelled());   // sticky
  EXPECT_EQ(tripwire.polls(), 4);
}

// Satellite: a deadline firing mid-execution abandons the layer at a tile
// boundary (no further cycles are charged, no outcome is recorded) and the
// machinery stays reusable — the next run is byte-identical to a fresh one.
TEST(ResilientExecutor, MidExecutionCancelReleasesAndStaysByteIdentical) {
  const Fixture f;
  const HwConfig hw = small_hw();
  ScopedFaultInjection off(nullptr);

  resilience::ResilientExecutor fresh(hw, resilience::RetryPolicy{});
  auto expected =
      fresh.run_conv(f.shape, f.weights, f.input, f.ones, f.zeros, 9, "ref");
  ASSERT_TRUE(expected.ok());

  resilience::ResilientExecutor exec(hw, resilience::RetryPolicy{});
  exec::CancelToken token;
  token.trip_after(2);  // fires at an early tile/rung boundary
  resilience::RunOptions options;
  options.cancel = &token;
  auto cancelled = exec.run_conv(f.shape, f.weights, f.input, f.ones, f.zeros,
                                 9, "cancelled", options);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), geo::StatusCode::kDeadlineExceeded);
  // The abandoned attempt records no outcome: it neither degraded nor
  // completed, and its partial cycle ledger died with the execution.
  EXPECT_TRUE(exec.report().layers.empty());

  auto after = exec.run_conv(f.shape, f.weights, f.input, f.ones, f.zeros, 9,
                             "after-cancel");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->counters, expected->counters);
  EXPECT_EQ(after->activations, expected->activations);
  EXPECT_EQ(after->stats.total_cycles, expected->stats.total_cycles);
  ASSERT_EQ(exec.report().layers.size(), 1u);
  EXPECT_FALSE(exec.report().layers[0].degraded);
}

TEST(ReplicaHealth, OpensAfterStrikesProbesAndReadmits) {
  ReplicaHealth health(/*replicas=*/2, /*strikes_to_open=*/2,
                       /*probe_after=*/3);
  EXPECT_TRUE(health.admit(0));
  EXPECT_EQ(health.on_outcome(0, false), ReplicaHealth::Transition::kNone);
  // A clean outcome resets the strike count.
  EXPECT_EQ(health.on_outcome(0, true), ReplicaHealth::Transition::kNone);
  EXPECT_EQ(health.on_outcome(0, false), ReplicaHealth::Transition::kNone);
  EXPECT_EQ(health.on_outcome(0, false), ReplicaHealth::Transition::kOpened);
  EXPECT_EQ(health.state(0), BreakerState::kOpen);
  EXPECT_FALSE(health.admit(0));  // quarantined, countdown not drained
  EXPECT_TRUE(health.other_candidate(0));   // replica 1 can take failovers
  EXPECT_FALSE(health.other_candidate(1));  // replica 0 cannot

  // Completions on replica 1 drain replica 0's probe countdown.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(health.admit(0));
    EXPECT_EQ(health.on_outcome(1, true), ReplicaHealth::Transition::kNone);
  }
  bool probe = false;
  EXPECT_TRUE(health.admit(0, &probe));
  EXPECT_TRUE(probe);
  EXPECT_EQ(health.state(0), BreakerState::kHalfOpen);
  EXPECT_FALSE(health.admit(0));  // one probe at a time

  // Failed probe re-opens and restarts the countdown.
  EXPECT_EQ(health.on_outcome(0, false), ReplicaHealth::Transition::kReopened);
  EXPECT_EQ(health.state(0), BreakerState::kOpen);
  for (int i = 0; i < 3; ++i)
    (void)health.on_outcome(1, true);
  probe = false;
  EXPECT_TRUE(health.admit(0, &probe));
  EXPECT_TRUE(probe);
  EXPECT_EQ(health.on_outcome(0, true), ReplicaHealth::Transition::kClosed);
  EXPECT_EQ(health.state(0), BreakerState::kClosed);
  EXPECT_TRUE(health.admit(0));
}

TEST(ReplicaHealth, FullyOpenFleetForcesAProbe) {
  ReplicaHealth health(2, 1, 100);
  EXPECT_EQ(health.on_outcome(0, false), ReplicaHealth::Transition::kOpened);
  EXPECT_EQ(health.on_outcome(1, false), ReplicaHealth::Transition::kOpened);
  // Countdown is nowhere near drained, but refusing both replicas would
  // deadlock the fleet — admission is forced.
  bool probe = false;
  EXPECT_TRUE(health.admit(0, &probe));
  EXPECT_TRUE(probe);
}

TEST(ReplicaHealth, NoSignalReturnsProbeSlotWithoutBurningIt) {
  ReplicaHealth health(2, 1, 2);
  (void)health.on_outcome(0, false);  // open
  (void)health.on_outcome(1, true);
  (void)health.on_outcome(1, true);   // countdown drained
  bool probe = false;
  EXPECT_TRUE(health.admit(0, &probe));
  EXPECT_TRUE(probe);
  health.on_no_signal(0);  // the probe request expired before executing
  EXPECT_EQ(health.state(0), BreakerState::kOpen);
  probe = false;
  EXPECT_TRUE(health.admit(0, &probe));  // immediately probe-eligible again
  EXPECT_TRUE(probe);
}

// Satellite: end-to-end quarantine. A persistently-faulted replica is
// struck on every degraded outcome, quarantined by its breaker, traffic
// fails over to the healthy replica (responses stay full-fidelity), and
// after the fault clears a half-open probe re-admits it.
TEST(InferenceServer, QuarantinesFaultyReplicaFailsOverThenReadmits) {
  const Fixture f;
  ServeOptions o;
  o.replicas = 2;
  o.queue_capacity = 64;
  o.high_water = 64;  // no steering: isolate the failover path
  o.tenant_quota = 64;
  o.retries = 2;
  o.retry_backoff_us = 0;
  o.breaker_strikes = 2;
  o.probe_after = 3;
  InferenceServer server(small_hw(), o);
  server.set_replica_fault(0, persistent_fault());
  server.set_replica_fault(1, FaultConfig{});  // clean (shields GEO_FAULTS)

  // Drive batches until replica 0's breaker opens. Every response must be
  // full fidelity: replica 0's degraded attempts fail over to replica 1.
  bool opened = false;
  for (int round = 0; round < 40 && !opened; ++round) {
    server.pause();
    std::vector<std::future<Response>> batch;
    for (int i = 0; i < 4; ++i) {
      auto fut = server.submit(f.request());
      ASSERT_TRUE(fut.ok());
      batch.push_back(std::move(*fut));
    }
    server.resume();
    for (auto& fut : batch) {
      Response r = fut.get();
      ASSERT_TRUE(r.status.ok()) << r.status.to_string();
      EXPECT_FALSE(r.degraded);  // failover preserved fidelity
      if (r.attempts > 1) {
        EXPECT_EQ(r.replica, 1);
      }
    }
    opened = server.stats().quarantines > 0;
  }
  ASSERT_TRUE(opened) << "replica 0 never quarantined";
  ServeStats mid = server.stats();
  EXPECT_GT(mid.failovers, 0);
  EXPECT_EQ(mid.failed, 0);

  // Heal replica 0 and keep serving: completions on replica 1 drain the
  // probe countdown, the half-open probe succeeds, the breaker closes.
  server.set_replica_fault(0, FaultConfig{});
  bool readmitted = false;
  for (int i = 0; i < 60 && !readmitted; ++i) {
    Response r = server.run(f.request());
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    EXPECT_FALSE(r.degraded);
    readmitted = server.stats().readmits > 0 &&
                 server.replica_state(0) == BreakerState::kClosed;
  }
  ASSERT_TRUE(readmitted) << "replica 0 never re-admitted";
  const ServeStats s = server.stats();
  EXPECT_GT(s.probes, 0);
  EXPECT_GT(s.readmits, 0);
  EXPECT_EQ(s.failed, 0);
}

// With every replica faulted the fleet degrades instead of deadlocking or
// failing: breakers open, the forced probe keeps admission alive, and all
// responses are terminal (degraded is acceptable; failed is not).
TEST(InferenceServer, FullyFaultedFleetServesDegradedNeverFails) {
  const Fixture f;
  ServeOptions o;
  o.replicas = 2;
  o.queue_capacity = 64;
  o.high_water = 64;
  o.tenant_quota = 64;
  o.retries = 1;
  o.retry_backoff_us = 0;
  o.breaker_strikes = 1;
  o.probe_after = 4;
  InferenceServer server(small_hw(), o);
  server.set_replica_fault(0, persistent_fault());
  server.set_replica_fault(1, persistent_fault());

  int degraded = 0;
  for (int i = 0; i < 10; ++i) {
    Response r = server.run(f.request());
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    if (r.degraded) ++degraded;
  }
  EXPECT_EQ(degraded, 10);  // persistent faults everywhere: all degraded
  const ServeStats s = server.stats();
  EXPECT_EQ(s.completed, 10);
  EXPECT_EQ(s.failed, 0);
  EXPECT_GT(s.quarantines, 0);
}

}  // namespace
}  // namespace geo::serve
