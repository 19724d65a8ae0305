// Batched serving: option validation, byte-identity of batched dispatch against
// solo per-request execution (across thread counts and fault modes, at both
// the resilience and the serving layer), mid-batch deadline isolation, and
// batch bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "exec/cancel.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_model.hpp"
#include "resilience/resilience.hpp"
#include "serve/serve.hpp"
#include "telemetry/metrics.hpp"

namespace geo::serve {
namespace {

using arch::ConvShape;
using arch::HwConfig;
using fault::FaultConfig;
using fault::ScopedFaultInjection;

FaultConfig persistent_fault() {
  auto cfg = FaultConfig::parse("sram=2e-2,burst=2,ecc=secded,rng=99");
  EXPECT_TRUE(cfg.ok());
  return *cfg;
}

HwConfig small_hw(nn::AccumMode accum = nn::AccumMode::kPbw) {
  HwConfig hw = HwConfig::ulp();
  hw.accum = accum;
  hw.stream_len = 64;
  hw.stream_len_pool = 64;
  hw.stream_len_output = 64;
  return hw;
}

// One model, K distinct inputs — the same-model burst batching coalesces.
struct BatchFixture {
  ConvShape shape;
  std::vector<float> weights, ones, zeros;
  std::vector<std::vector<float>> inputs;

  explicit BatchFixture(int k = 4, unsigned seed = 77) {
    shape = ConvShape::conv("t", 4, 6, 5, 3, 1, false);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> wdist(-0.8f, 0.8f);
    std::uniform_real_distribution<float> adist(0.0f, 1.0f);
    weights.resize(static_cast<std::size_t>(shape.weights()));
    for (auto& w : weights) w = wdist(rng);
    inputs.resize(static_cast<std::size_t>(k));
    for (auto& input : inputs) {
      input.resize(static_cast<std::size_t>(shape.activations()));
      for (auto& a : input) a = adist(rng);
    }
    ones.assign(static_cast<std::size_t>(shape.cout), 1.0f);
    zeros.assign(static_cast<std::size_t>(shape.cout), 0.0f);
  }

  Request request(int i) const {
    Request r;
    r.shape = shape;
    r.weights = weights;
    r.input = inputs[static_cast<std::size_t>(i)];
    r.bn_scale = ones;
    r.bn_shift = zeros;
    r.layer_salt = 9;
    r.label = "req" + std::to_string(i);
    return r;
  }
};

TEST(ServeOptionsBatch, KnobsParseAndFailClosed) {
  ServeOptions o;
  o.batch = 8;
  EXPECT_TRUE(o.validate().ok());
  EXPECT_NE(o.to_string().find("batch=8"), std::string::npos);
  ServeOptions bad;
  bad.batch = 0;
  EXPECT_FALSE(bad.validate().ok());
}

// Preparations run so far: each prepare_conv either generates its weight
// bank (one machine.weight_streams sample) or takes it from the weight-bank
// cache (one machine.weight_bank_hits).
std::int64_t prepares() {
  auto& metrics = telemetry::MetricsRegistry::instance();
  return metrics.histogram("machine.weight_streams").count() +
         metrics.counter("machine.weight_bank_hits").value();
}

// Machine rungs (native, pbw, fxp — those that prepare a conv) of `hw`'s
// ladder down to and including `lowest`.
std::int64_t machine_rungs_through(const HwConfig& hw,
                                   resilience::Rung lowest) {
  std::int64_t n = 1;  // native
  if (lowest >= resilience::Rung::kPbw && hw.accum != nn::AccumMode::kPbw &&
      hw.accum != nn::AccumMode::kFxp)
    ++n;
  if (lowest >= resilience::Rung::kFxp && hw.accum != nn::AccumMode::kFxp)
    ++n;
  return n;
}

void expect_same_stats(const arch::MachineStats& a,
                       const arch::MachineStats& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.compute_cycles, b.compute_cycles);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(a.retry_stall_cycles, b.retry_stall_cycles);
  EXPECT_EQ(a.io_stall_cycles, b.io_stall_cycles);
  EXPECT_EQ(a.nearmem_cycles, b.nearmem_cycles);
}

void expect_same_outcome(const resilience::LayerOutcome& a,
                         const resilience::LayerOutcome& b) {
  EXPECT_EQ(a.layer, b.layer);
  EXPECT_EQ(a.rung, b.rung);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.tiles, b.tiles);
  EXPECT_EQ(a.tiles_retried, b.tiles_retried);
  EXPECT_EQ(a.tiles_recovered, b.tiles_recovered);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(a.backoff_cycles, b.backoff_cycles);
  EXPECT_EQ(a.abandoned_cycles, b.abandoned_cycles);
  EXPECT_EQ(a.ledger_ok, b.ledger_ok);
}

// Tentpole contract at the resilience layer: run_conv_batch's per-item
// results — outputs, cycle ledgers and resilience outcomes — equal solo
// run_conv on the same inputs, across accumulation modes, thread counts
// and fault modes. The members walk the ladder together: a batch prepares
// once per rung tried (once without faults; every machine rung when the
// persistent fault degrades them all to the reference), and a rebound
// member keeps the weight reads' ECC retry cycles (the secded defect mode).
TEST(ResilientExecutor, BatchMatchesSoloAcrossThreadsAndFaults) {
  const BatchFixture f(4);
  const auto secded = FaultConfig::parse("sram=2e-3,ecc=secded,rng=3");
  ASSERT_TRUE(secded.ok());
  enum class Mode { kClean, kPersistent, kSecded };

  for (const nn::AccumMode accum :
       {nn::AccumMode::kPbw, nn::AccumMode::kApc, nn::AccumMode::kOr}) {
    const HwConfig hw = small_hw(accum);
    for (const Mode mode : {Mode::kClean, Mode::kPersistent, Mode::kSecded}) {
      std::optional<ScopedFaultInjection> scope;
      if (mode == Mode::kPersistent)
        scope.emplace(persistent_fault());
      else if (mode == Mode::kSecded)
        scope.emplace(*secded);
      else
        scope.emplace(nullptr);
      const std::string where =
          "accum=" + std::to_string(static_cast<int>(accum)) +
          " mode=" + std::to_string(static_cast<int>(mode));

      // Solo references, one fresh executor per request.
      std::vector<arch::MachineResult> expected;
      std::vector<resilience::LayerOutcome> expected_outcomes;
      for (std::size_t i = 0; i < f.inputs.size(); ++i) {
        resilience::ResilientExecutor solo(hw, resilience::RetryPolicy{});
        auto r = solo.run_conv(f.shape, f.weights, f.inputs[i], f.ones,
                               f.zeros, 9, "item" + std::to_string(i));
        ASSERT_TRUE(r.ok());
        expected.push_back(*std::move(r));
        expected_outcomes.push_back(solo.report().layers.back());
      }

      for (const int threads : {1, 8}) {
        exec::ScopedThreads scoped(threads);
        resilience::ResilientExecutor executor(hw, resilience::RetryPolicy{});
        std::vector<resilience::BatchItem> items;
        for (std::size_t i = 0; i < f.inputs.size(); ++i) {
          resilience::BatchItem item;
          item.input = f.inputs[i];
          item.label = "item" + std::to_string(i);
          items.push_back(std::move(item));
        }
        const std::int64_t prepares_before = prepares();
        auto results = executor.run_conv_batch(f.shape, f.weights, f.ones,
                                               f.zeros, 9, items);
        const std::int64_t batch_prepares = prepares() - prepares_before;
        ASSERT_EQ(results.size(), f.inputs.size());
        ASSERT_EQ(executor.report().layers.size(), f.inputs.size());
        resilience::Rung lowest = resilience::Rung::kNative;
        for (std::size_t i = 0; i < results.size(); ++i) {
          SCOPED_TRACE(where + " threads=" + std::to_string(threads) +
                       " item " + std::to_string(i));
          ASSERT_TRUE(results[i].result.ok());
          EXPECT_EQ(results[i].result->counters, expected[i].counters);
          EXPECT_EQ(results[i].result->activations, expected[i].activations);
          expect_same_stats(results[i].result->stats, expected[i].stats);
          EXPECT_EQ(results[i].degraded, expected_outcomes[i].degraded);
          expect_same_outcome(executor.report().layers[i],
                              expected_outcomes[i]);
          lowest = std::max(lowest, expected_outcomes[i].rung);
        }
        // One preparation per machine rung the group tried.
        EXPECT_EQ(batch_prepares, machine_rungs_through(hw, lowest)) << where;
        if (mode == Mode::kClean) {
          EXPECT_EQ(batch_prepares, 1) << where;
        }
        if (mode == Mode::kPersistent) {
          EXPECT_EQ(lowest, resilience::Rung::kReference) << where;
        }
      }
    }
  }
}

// A transient fault model makes reuse of generated weight streams unsound
// (regeneration draws fresh per-site sequences) — each member must walk the
// ladder alone, preparing its own conv, rather than share a preparation.
TEST(ResilientExecutor, BatchFallsBackPerItemUnderTransientFaults) {
  const BatchFixture f(2);
  auto cfg = FaultConfig::parse("sram=1e-3,ecc=secded,transient=1,rng=5");
  ASSERT_TRUE(cfg.ok());
  ScopedFaultInjection scope(*cfg);

  resilience::ResilientExecutor executor(small_hw(),
                                         resilience::RetryPolicy{});
  std::vector<resilience::BatchItem> items;
  for (const auto& input : f.inputs) {
    resilience::BatchItem item;
    item.input = input;
    items.push_back(std::move(item));
  }
  const std::int64_t prepares_before = prepares();
  auto results = executor.run_conv_batch(f.shape, f.weights, f.ones, f.zeros,
                                         9, items);
  ASSERT_EQ(results.size(), 2u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].result.ok());
    EXPECT_EQ(executor.report().layers[i].rung, resilience::Rung::kNative);
  }
  EXPECT_EQ(prepares() - prepares_before, 2);  // one per member
}

// Server-level byte-identity: a batch=4 server produces, per request, the
// exact bytes a batch=1 server produces — across thread counts and with a
// persistent per-replica fault. Single replica so no failover reordering.
TEST(InferenceServer, BatchedOutputsByteIdenticalToUnbatched) {
  const BatchFixture f(4);
  const auto options = [](int batch) {
    ServeOptions o;
    o.replicas = 1;
    o.queue_capacity = 64;
    o.high_water = 64;  // no steering
    o.tenant_quota = 64;
    o.retries = 1;
    o.retry_backoff_us = 0;
    o.batch = batch;
    return o;
  };

  for (const bool faulted : {false, true}) {
    // Unbatched reference bytes.
    std::vector<arch::MachineResult> expected;
    std::vector<bool> expected_degraded;
    {
      InferenceServer server(small_hw(), options(1));
      server.set_replica_fault(0,
                               faulted ? persistent_fault() : FaultConfig{});
      for (int i = 0; i < 4; ++i) {
        Response r = server.run(f.request(i));
        ASSERT_TRUE(r.status.ok()) << r.status.to_string();
        EXPECT_FALSE(r.batched);
        expected.push_back(std::move(r.result));
        expected_degraded.push_back(r.degraded);
      }
    }

    for (const int threads : {1, 8}) {
      exec::ScopedThreads scoped(threads);
      InferenceServer server(small_hw(), options(4));
      server.set_replica_fault(0,
                               faulted ? persistent_fault() : FaultConfig{});
      server.pause();
      std::vector<std::future<Response>> futures;
      for (int i = 0; i < 4; ++i) {
        auto fut = server.submit(f.request(i));
        ASSERT_TRUE(fut.ok());
        futures.push_back(std::move(*fut));
      }
      server.resume();
      for (int i = 0; i < 4; ++i) {
        Response r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_TRUE(r.status.ok()) << r.status.to_string();
        EXPECT_TRUE(r.batched);
        EXPECT_EQ(r.result.counters, expected[static_cast<std::size_t>(i)].counters)
            << "faulted=" << faulted << " threads=" << threads << " req " << i;
        EXPECT_EQ(r.result.activations,
                  expected[static_cast<std::size_t>(i)].activations);
        EXPECT_EQ(r.degraded, expected_degraded[static_cast<std::size_t>(i)]);
      }
      const ServeStats s = server.stats();
      EXPECT_EQ(s.completed, 4);
      EXPECT_EQ(s.failed, 0);
      EXPECT_EQ(s.batches, 1);
      EXPECT_EQ(s.batched_requests, 4);
      EXPECT_EQ(s.prewarms, 4);  // one per admitted request
    }
  }
}

// Satellite: a deadline firing mid-batch cancels only the expired request;
// the batch's other members complete byte-identical to unbatched execution
// and the replica stays healthy and reusable.
TEST(InferenceServer, MidBatchDeadlineCancelsOnlyExpiredRequest) {
  const BatchFixture f(4);
  ServeOptions o;
  o.replicas = 1;
  o.queue_capacity = 64;
  o.high_water = 64;
  o.tenant_quota = 64;
  o.retries = 1;
  o.retry_backoff_us = 0;
  o.batch = 4;

  // Unbatched reference for the surviving members.
  std::vector<arch::MachineResult> expected;
  {
    InferenceServer server(small_hw(), o);
    server.set_replica_fault(0, FaultConfig{});
    for (int i = 0; i < 4; ++i) {
      Response r = server.run(f.request(i));
      ASSERT_TRUE(r.status.ok()) << r.status.to_string();
      expected.push_back(std::move(r.result));
    }
  }

  InferenceServer server(small_hw(), o);
  server.set_replica_fault(0, FaultConfig{});
  server.pause();
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    Request r = f.request(i);
    // Poll 1: dispatch's expired-in-queue check. Poll 2: the ladder's
    // rung-entry check. Poll 3: the first in-execution cancellation
    // poll — a deterministic mid-execution trip for request 2 only.
    if (i == 2) r.trip_after_polls = 3;
    auto fut = server.submit(std::move(r));
    ASSERT_TRUE(fut.ok());
    futures.push_back(std::move(*fut));
  }
  server.resume();
  for (int i = 0; i < 4; ++i) {
    Response r = futures[static_cast<std::size_t>(i)].get();
    if (i == 2) {
      EXPECT_EQ(r.status.code(), geo::StatusCode::kDeadlineExceeded);
      continue;
    }
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    EXPECT_TRUE(r.batched);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.result.counters, expected[static_cast<std::size_t>(i)].counters);
    EXPECT_EQ(r.result.activations,
              expected[static_cast<std::size_t>(i)].activations);
  }
  ServeStats s = server.stats();
  EXPECT_EQ(s.completed, 4);
  EXPECT_EQ(s.deadline_expired, 1);
  EXPECT_EQ(s.failed, 0);

  // The replica took no health strike and serves the next request normally.
  EXPECT_EQ(server.replica_state(0), BreakerState::kClosed);
  Response after = server.run(f.request(2));
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.result.activations, expected[2].activations);
}

// Incompatible requests (different weights) never share a batch dispatch,
// and batching composes with the zero-failed-requests contract under a
// fully-faulted fleet.
TEST(InferenceServer, BatchingRespectsCompatibilityAndFaultContract) {
  const BatchFixture f(4);
  BatchFixture other(4, /*seed=*/1234);  // different weights, same shape

  ServeOptions o;
  o.replicas = 2;
  o.queue_capacity = 64;
  o.high_water = 64;
  o.tenant_quota = 64;
  o.retries = 1;
  o.retry_backoff_us = 0;
  o.breaker_strikes = 1;
  o.probe_after = 4;
  o.batch = 8;
  InferenceServer server(small_hw(), o);
  server.set_replica_fault(0, persistent_fault());
  server.set_replica_fault(1, persistent_fault());

  server.pause();
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    auto fut = server.submit(f.request(i));
    ASSERT_TRUE(fut.ok());
    futures.push_back(std::move(*fut));
    auto fut2 = server.submit(other.request(i));
    ASSERT_TRUE(fut2.ok());
    futures.push_back(std::move(*fut2));
  }
  server.resume();
  int degraded = 0;
  for (auto& fut : futures) {
    Response r = fut.get();
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    if (r.degraded) ++degraded;
  }
  const ServeStats s = server.stats();
  EXPECT_EQ(s.completed, 8);
  EXPECT_EQ(s.failed, 0);
  EXPECT_EQ(degraded, 8);  // persistent faults everywhere
}

}  // namespace
}  // namespace geo::serve
