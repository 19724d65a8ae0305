// Serving from the out-of-core weight store (docs/STORAGE.md): store-backed
// requests resolve weights at dispatch, admission rejects malformed store
// references at the door, and — the headline contract — with persistent CRC
// corruption injected into every shard, zero admitted requests fail and
// every response is byte-identical to resident-weight serving.
#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "exec/async_lane.hpp"
#include "fault/fault_model.hpp"
#include "serve/serve.hpp"
#include "store/weight_store.hpp"

namespace geo::serve {
namespace {

using arch::ConvShape;
using arch::HwConfig;
using fault::FaultConfig;

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

  Request resident_request() const {
    Request r;
    r.shape = shape;
    r.weights = weights;
    r.input = input;
    r.bn_scale = ones;
    r.bn_shift = zeros;
    r.layer_salt = 9;
    return r;
  }

  Request store_request() const {
    Request r = resident_request();
    r.weights = {};
    r.store_layer = "t";
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

std::shared_ptr<store::WeightStore> make_store(const Fixture& fx,
                                               const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/serve_store_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  store::StoreOptions o;
  o.dir = dir;
  o.block_bytes = 256;
  o.shard_bytes = 1024;
  auto ws = std::make_shared<store::WeightStore>(o);
  EXPECT_TRUE(ws->add_layer("t", fx.weights).ok());
  return ws;
}

ServeOptions base_options() {
  ServeOptions o;
  o.retry_backoff_us = 0;
  return o;
}

TEST(ServeStore, StoreBackedRequestMatchesResidentServing) {
  const Fixture fx;
  ServeOptions o = base_options();
  o.replicas = 2;
  InferenceServer server(small_hw(), o);
  for (int r = 0; r < o.replicas; ++r)
    server.set_replica_fault(r, FaultConfig{});  // shield ambient GEO_FAULTS
  server.attach_store(make_store(fx, "match"));

  const Response resident = server.run(fx.resident_request());
  ASSERT_TRUE(resident.status.ok()) << resident.status.to_string();
  const Response backed = server.run(fx.store_request());
  ASSERT_TRUE(backed.status.ok()) << backed.status.to_string();
  EXPECT_EQ(backed.result.activations, resident.result.activations);
  EXPECT_EQ(backed.result.counters, resident.result.counters);
}

TEST(ServeStore, ColdPinChargesItsIoStallToTheRequest) {
  // Admission never touches the store: the first request of a cold layer
  // is the one that loads it, at dispatch, and its ledger carries the
  // load's modeled io stall; the next request hits the cache and pays none.
  const Fixture fx;
  std::int64_t cold_stall = 0;
  {
    fault::ScopedFaultInjection off(nullptr);
    auto pin = make_store(fx, "cold_ref")->pin("t");
    ASSERT_TRUE(pin.ok()) << pin.status().to_string();
    cold_stall = pin->stats().io_stall_cycles;
  }
  ASSERT_GT(cold_stall, 0);

  ServeOptions o = base_options();
  o.replicas = 1;
  InferenceServer server(small_hw(), o);
  server.set_replica_fault(0, FaultConfig{});  // shield ambient GEO_FAULTS
  server.attach_store(make_store(fx, "cold"));
  server.pause();
  auto first = server.submit(fx.store_request());
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  // Let every background I/O task queued so far finish before dispatch.
  exec::AsyncLane::io().submit([] {}).wait();
  server.resume();
  const Response cold = first->get();
  ASSERT_TRUE(cold.status.ok()) << cold.status.to_string();
  EXPECT_EQ(cold.result.stats.io_stall_cycles, cold_stall);

  const Response warm = server.run(fx.store_request());
  ASSERT_TRUE(warm.status.ok()) << warm.status.to_string();
  EXPECT_EQ(warm.result.stats.io_stall_cycles, 0);
}

TEST(ServeStore, AdmissionRejectsMalformedStoreReferencesAtTheDoor) {
  const Fixture fx;
  ServeOptions o = base_options();
  o.replicas = 1;
  InferenceServer server(small_hw(), o);

  // No store attached yet.
  auto r1 = server.submit(fx.store_request());
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kFailedPrecondition);

  server.attach_store(make_store(fx, "reject"));

  // Unknown layer.
  Request unknown = fx.store_request();
  unknown.store_layer = "nope";
  auto r2 = server.submit(std::move(unknown));
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  // Both a resident span and a store reference.
  Request both = fx.resident_request();
  both.store_layer = "t";
  auto r3 = server.submit(std::move(both));
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.rejected_invalid, 3);
  EXPECT_EQ(stats.admitted, 0);
}

TEST(ServeStore, ZeroFailuresWithPersistentCorruptionInEveryShard) {
  const Fixture fx;
  ServeOptions o = base_options();
  o.replicas = 2;
  InferenceServer server(small_hw(), o);
  auto ws = make_store(fx, "corrupt");
  server.attach_store(ws);

  // Defect-model rot at rate 1.0 hits every block of every shard on every
  // replica; the store's ladder must drain to resident fallback, so serving
  // sees correct bytes and the "zero failed requests" contract holds.
  FaultConfig rot;
  rot.io_rot_rate = 1.0;
  rot.rng_seed = 31;
  for (int r = 0; r < o.replicas; ++r) server.set_replica_fault(r, rot);

  const Response resident = [&] {
    InferenceServer clean(small_hw(), base_options());
    for (int r = 0; r < clean.options().replicas; ++r)
      clean.set_replica_fault(r, FaultConfig{});
    return clean.run(fx.resident_request());
  }();
  ASSERT_TRUE(resident.status.ok());

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 12; ++i) {
    auto fut = server.submit(fx.store_request());
    ASSERT_TRUE(fut.ok()) << fut.status().to_string();
    futures.push_back(std::move(*fut));
  }
  for (auto& fut : futures) {
    Response resp = fut.get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
    EXPECT_EQ(resp.result.activations, resident.result.activations);
    EXPECT_EQ(resp.result.counters, resident.result.counters);
  }
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.completed, 12);
}

}  // namespace
}  // namespace geo::serve
