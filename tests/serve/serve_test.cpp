// InferenceServer admission control, load shedding, overload steering and
// deadline propagation. Tests that assert bit-identity shield their
// replicas from ambient GEO_FAULTS with a zero-rate per-replica fault
// domain, so the suite is runnable under the chaos CI job unchanged.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "arch/machine.hpp"
#include "fault/fault_model.hpp"
#include "resilience/resilience.hpp"
#include "serve/serve.hpp"

namespace geo::serve {
namespace {

using arch::ConvShape;
using arch::GeoMachine;
using arch::HwConfig;
using fault::FaultConfig;
using fault::ScopedFaultInjection;

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

  Request request(std::string tenant = "default") const {
    Request r;
    r.tenant = std::move(tenant);
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

// A zero-rate fault domain: overrides any ambient GEO_FAULTS on the
// replica's thread without injecting anything.
FaultConfig no_faults() { return FaultConfig{}; }

void shield_all_replicas(InferenceServer& server) {
  for (int r = 0; r < server.options().replicas; ++r)
    server.set_replica_fault(r, no_faults());
}

ServeOptions base_options() {
  ServeOptions o;
  o.retry_backoff_us = 0;
  return o;
}

TEST(ServeOptions, ValidateAndHighWaterResolution) {
  ServeOptions o;
  EXPECT_TRUE(o.validate().ok());
  o.queue_capacity = 32;
  o.high_water = 0;
  EXPECT_EQ(o.effective_high_water(), 24);  // auto: 3/4 of capacity
  o.high_water = 5;
  EXPECT_EQ(o.effective_high_water(), 5);
  o.queue_capacity = 2;
  o.high_water = 0;
  EXPECT_EQ(o.effective_high_water(), 1);  // auto never resolves to 0

  ServeOptions bad;
  bad.replicas = 0;
  EXPECT_FALSE(bad.validate().ok());

  // The failover wait shifts the backoff left by up to 20; larger values
  // overflow the clock.
  ServeOptions backoff;
  backoff.retry_backoff_us = 1'000'000'000;
  EXPECT_TRUE(backoff.validate().ok());
  backoff.retry_backoff_us = std::int64_t{1} << 43;
  EXPECT_FALSE(backoff.validate().ok());
}

TEST(InferenceServer, CleanRequestIsBitIdenticalToMachine) {
  const Fixture f;
  const HwConfig hw = small_hw();

  ScopedFaultInjection off(nullptr);
  GeoMachine machine(hw);
  auto expected =
      machine.try_run_conv(f.shape, f.weights, f.input, f.ones, f.zeros, 9);
  ASSERT_TRUE(expected.ok());

  ServeOptions o = base_options();
  o.replicas = 2;
  InferenceServer server(hw, o);
  shield_all_replicas(server);

  Response resp = server.run(f.request());
  ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
  EXPECT_FALSE(resp.degraded);
  EXPECT_FALSE(resp.steered);
  EXPECT_EQ(resp.attempts, 1);
  EXPECT_GE(resp.replica, 0);
  EXPECT_EQ(resp.result.counters, expected->counters);
  EXPECT_EQ(resp.result.activations, expected->activations);
  EXPECT_EQ(resp.result.stats.total_cycles, expected->stats.total_cycles);

  const ServeStats s = server.stats();
  EXPECT_EQ(s.submitted, 1);
  EXPECT_EQ(s.admitted, 1);
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.ok, 1);
  EXPECT_EQ(s.failed, 0);
}

TEST(InferenceServer, ShedsWhenQueueIsFull) {
  const Fixture f;
  ServeOptions o = base_options();
  o.replicas = 1;
  o.queue_capacity = 2;
  o.high_water = 2;  // >= capacity: no steering in this test
  o.tenant_quota = 100;
  InferenceServer server(small_hw(), o);
  shield_all_replicas(server);
  server.pause();

  auto a = server.submit(f.request());
  auto b = server.submit(f.request());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  auto c = server.submit(f.request());
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), geo::StatusCode::kResourceExhausted);

  server.resume();
  EXPECT_TRUE(a->get().status.ok());
  EXPECT_TRUE(b->get().status.ok());

  const ServeStats s = server.stats();
  EXPECT_EQ(s.shed_queue, 1);
  EXPECT_EQ(s.admitted, 2);
  EXPECT_EQ(s.completed, 2);
  EXPECT_EQ(s.failed, 0);
}

TEST(InferenceServer, ShedsTenantOverQuotaIndependently) {
  const Fixture f;
  ServeOptions o = base_options();
  o.replicas = 1;
  o.queue_capacity = 100;
  o.high_water = 100;
  o.tenant_quota = 1;
  InferenceServer server(small_hw(), o);
  shield_all_replicas(server);
  server.pause();

  auto a1 = server.submit(f.request("a"));
  ASSERT_TRUE(a1.ok());
  auto a2 = server.submit(f.request("a"));
  ASSERT_FALSE(a2.ok());
  EXPECT_EQ(a2.status().code(), geo::StatusCode::kResourceExhausted);
  // One noisy tenant must not starve another.
  auto b1 = server.submit(f.request("b"));
  ASSERT_TRUE(b1.ok());

  server.resume();
  EXPECT_TRUE(a1->get().status.ok());
  EXPECT_TRUE(b1->get().status.ok());

  const ServeStats s = server.stats();
  EXPECT_EQ(s.shed_quota, 1);
  EXPECT_EQ(s.completed, 2);

  // The quota slot freed on completion: tenant "a" admits again.
  EXPECT_TRUE(server.run(f.request("a")).status.ok());
}

TEST(InferenceServer, SteersPastHighWaterInsteadOfShedding) {
  const Fixture f;
  ServeOptions o = base_options();
  o.replicas = 1;
  o.queue_capacity = 8;
  o.high_water = 1;
  InferenceServer server(small_hw(), o);
  shield_all_replicas(server);
  server.pause();

  // Depth 0 at admit: full fidelity. Depth 1 and 2: steered.
  auto a = server.submit(f.request());
  auto b = server.submit(f.request());
  auto c = server.submit(f.request());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  server.resume();

  Response ra = a->get(), rb = b->get(), rc = c->get();
  ASSERT_TRUE(ra.status.ok());
  ASSERT_TRUE(rb.status.ok());
  ASSERT_TRUE(rc.status.ok());
  EXPECT_FALSE(ra.steered);
  EXPECT_TRUE(rb.steered);
  EXPECT_TRUE(rc.steered);
  // Steered requests complete on the degraded rung instead of being shed.
  EXPECT_TRUE(rb.degraded);
  EXPECT_TRUE(rc.degraded);

  const ServeStats s = server.stats();
  EXPECT_EQ(s.shed_queue, 0);
  EXPECT_EQ(s.steered, 2);
  EXPECT_EQ(s.degraded, 2);
  EXPECT_EQ(s.ok, 1);
  EXPECT_EQ(s.failed, 0);
}

TEST(InferenceServer, SteeredResultMatchesReferenceRung) {
  const Fixture f;
  const HwConfig hw = small_hw();

  // The expected reference-rung result, via the resilience layer directly.
  ScopedFaultInjection off(nullptr);
  resilience::ResilientExecutor ref(hw, resilience::RetryPolicy{});
  resilience::RunOptions steer;
  steer.start = resilience::Rung::kReference;
  auto expected = ref.run_conv(f.shape, f.weights, f.input, f.ones, f.zeros,
                               9, "ref", steer);
  ASSERT_TRUE(expected.ok());

  ServeOptions o = base_options();
  o.replicas = 1;
  o.high_water = 1;
  InferenceServer server(hw, o);
  shield_all_replicas(server);
  server.pause();
  auto a = server.submit(f.request());  // depth 0: native
  auto b = server.submit(f.request());  // depth 1: steered
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  server.resume();
  (void)a->get();
  Response rb = b->get();
  ASSERT_TRUE(rb.status.ok());
  ASSERT_TRUE(rb.steered);
  EXPECT_EQ(rb.result.counters, expected->counters);
  EXPECT_EQ(rb.result.activations, expected->activations);
}

TEST(InferenceServer, RejectsMalformedRequestAtTheDoor) {
  const Fixture f;
  InferenceServer server(small_hw(), base_options());
  Request bad = f.request();
  bad.weights = bad.weights.subspan(0, 3);  // wrong operand size
  Request late = f.request();
  late.deadline_us = -5;  // 0 = none, > 0 = budget; negative is malformed

  for (Request* req : {&bad, &late}) {
    auto r = server.submit(std::move(*req));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), geo::StatusCode::kInvalidArgument);
  }
  const ServeStats s = server.stats();
  EXPECT_EQ(s.rejected_invalid, 2);
  EXPECT_EQ(s.admitted, 0);
}

TEST(InferenceServer, RunFoldsAdmissionRefusalIntoResponse) {
  const Fixture f;
  ServeOptions o = base_options();
  o.replicas = 1;
  o.queue_capacity = 1;
  o.high_water = 1;
  InferenceServer server(small_hw(), o);
  shield_all_replicas(server);
  server.pause();
  auto a = server.submit(f.request());
  ASSERT_TRUE(a.ok());

  Response shed = server.run(f.request());
  EXPECT_EQ(shed.status.code(), geo::StatusCode::kResourceExhausted);

  server.resume();
  EXPECT_TRUE(a->get().status.ok());
}

TEST(InferenceServer, DeadlineExpiredInQueueIsTerminalAndChargesNothing) {
  const Fixture f;
  ServeOptions o = base_options();
  o.replicas = 1;
  o.queue_capacity = 8;
  o.high_water = 8;
  InferenceServer server(small_hw(), o);
  shield_all_replicas(server);
  server.pause();

  Request req = f.request();
  req.deadline_us = 1;
  auto fut = server.submit(std::move(req));
  ASSERT_TRUE(fut.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.resume();

  Response r = fut->get();
  EXPECT_EQ(r.status.code(), geo::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.attempts, 0);  // never reached a machine
  const ServeStats s = server.stats();
  EXPECT_EQ(s.deadline_expired, 1);
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.failed, 0);

  // The replica it briefly occupied serves the next request normally.
  EXPECT_TRUE(server.run(f.request()).status.ok());
}

TEST(InferenceServer, TightDeadlineIsTerminalAndServerStaysUsable) {
  const Fixture f;
  ServeOptions o = base_options();
  o.replicas = 1;
  InferenceServer server(small_hw(), o);
  shield_all_replicas(server);

  Request tight = f.request();
  tight.deadline_us = 1;  // expires in queue or mid-execution
  Response r = server.run(std::move(tight));
  EXPECT_EQ(r.status.code(), geo::StatusCode::kDeadlineExceeded);

  Response clean = server.run(f.request());  // no deadline
  EXPECT_TRUE(clean.status.ok()) << clean.status.to_string();
  EXPECT_EQ(server.stats().failed, 0);
}

// A deadline firing mid-execution cancels only the expired request: the
// requests queued around it complete byte-identical to solo execution, and
// the replica takes no health strike and serves the next request.
TEST(InferenceServer, MidExecutionDeadlineCancelsOnlyExpiredRequest) {
  const std::vector<Fixture> f = {Fixture(11), Fixture(12), Fixture(13),
                                  Fixture(14)};
  ServeOptions o = base_options();
  o.replicas = 1;
  o.queue_capacity = 64;
  o.high_water = 64;
  o.tenant_quota = 64;

  std::vector<arch::MachineResult> expected;
  {
    InferenceServer server(small_hw(), o);
    shield_all_replicas(server);
    for (const Fixture& fi : f) {
      Response r = server.run(fi.request());
      ASSERT_TRUE(r.status.ok()) << r.status.to_string();
      expected.push_back(std::move(r.result));
    }
  }

  InferenceServer server(small_hw(), o);
  shield_all_replicas(server);
  server.pause();
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < f.size(); ++i) {
    Request r = f[i].request();
    // Poll 1: dispatch's expired-in-queue check. Poll 2: the ladder's
    // rung-entry check. Poll 3: the first in-execution cancellation
    // poll — a deterministic mid-execution trip for request 2 only.
    if (i == 2) r.trip_after_polls = 3;
    auto fut = server.submit(std::move(r));
    ASSERT_TRUE(fut.ok());
    futures.push_back(std::move(*fut));
  }
  server.resume();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Response r = futures[i].get();
    if (i == 2) {
      EXPECT_EQ(r.status.code(), geo::StatusCode::kDeadlineExceeded);
      EXPECT_EQ(r.attempts, 1);  // reached the machine, then cancelled
      continue;
    }
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.result.counters, expected[i].counters) << "request " << i;
    EXPECT_EQ(r.result.activations, expected[i].activations)
        << "request " << i;
  }
  const ServeStats s = server.stats();
  EXPECT_EQ(s.completed, 4);
  EXPECT_EQ(s.deadline_expired, 1);
  EXPECT_EQ(s.failed, 0);

  EXPECT_EQ(server.replica_state(0), BreakerState::kClosed);
  Response after = server.run(f[2].request());
  ASSERT_TRUE(after.status.ok()) << after.status.to_string();
  EXPECT_EQ(after.result.activations, expected[2].activations);
}

TEST(InferenceServer, DestructorDrainsAdmittedRequests) {
  const Fixture f;
  std::vector<std::future<Response>> futures;
  {
    ServeOptions o = base_options();
    o.replicas = 2;
    o.queue_capacity = 16;
    o.high_water = 16;
    InferenceServer server(small_hw(), o);
    shield_all_replicas(server);
    server.pause();
    for (int i = 0; i < 6; ++i) {
      auto fut = server.submit(f.request());
      ASSERT_TRUE(fut.ok());
      futures.push_back(std::move(*fut));
    }
    server.resume();
    // Destruction races the queue drain on purpose.
  }
  for (auto& fut : futures) {
    Response r = fut.get();
    EXPECT_TRUE(r.status.ok()) << r.status.to_string();
  }
}

TEST(InferenceServer, SubmitAfterShutdownWouldBeRefused) {
  // The stopping_ check is reachable only from another thread mid-
  // destruction; validate() covers the contract here instead: a server is
  // constructible only from valid options.
  ServeOptions o = base_options();
  o.retries = -1;
  EXPECT_THROW(InferenceServer(small_hw(), o), std::invalid_argument);
}

}  // namespace
}  // namespace geo::serve
