// The prepared weight-bank cache (arch::WeightBankCache): a clean layer's
// weight streams are generated once per process and shared by every later
// prepare_conv of the same layer. A hit must be indistinguishable from a
// cold prepare; anything generate_weight_bank reads must separate entries;
// an active fault model must bypass the cache; the byte budget must hold;
// and concurrent prepares of one layer must be race-free (this suite runs
// under ThreadSanitizer in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "arch/machine.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_model.hpp"
#include "nn/sc_layers.hpp"
#include "sc/stream_table.hpp"
#include "telemetry/metrics.hpp"

namespace geo {
namespace {

using arch::ConvShape;
using arch::GeoMachine;
using arch::HwConfig;
using arch::MachineResult;
using arch::MachineStats;
using arch::WeightBank;
using arch::WeightBankCache;
using fault::FaultConfig;
using fault::ScopedFaultInjection;
using nn::AccumMode;

auto stats_tuple(const MachineStats& s) {
  return std::make_tuple(s.passes, s.compute_cycles, s.stall_cycles,
                         s.retry_stall_cycles, s.io_stall_cycles,
                         s.nearmem_cycles, s.total_cycles, s.act_buffer_fills,
                         s.wgt_buffer_fills, s.psum_ops, s.bn_ops,
                         s.ledger_ok);
}

std::vector<float> random_values(std::mt19937_64& rng, std::int64_t n,
                                 float lo, float hi) {
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = dist(rng);
  return v;
}

ConvShape random_shape(std::mt19937_64& rng) {
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  if (pick(0, 2) == 0) return ConvShape::fc("fc", pick(4, 48), pick(1, 7),
                                            false);
  const int k = 2 * pick(0, 1) + 1;  // 1 or 3
  ConvShape s =
      ConvShape::conv("conv", pick(1, 4), pick(3, 6), pick(1, 7), k,
                      pick(0, 1), false);
  s.stride = pick(1, 2);
  return s;
}

// A 4-row, 32-MAC fabric, so Cout and Cin*k*k fall on both sides of the
// row count and width.
HwConfig small_hw(AccumMode accum, sc::Sharing sharing, bool progressive,
                  bool trng) {
  HwConfig hw = HwConfig::ulp();
  hw.rows = 4;
  hw.macs_per_row = 32;
  hw.accum = accum;
  hw.sharing = sharing;
  hw.progressive = progressive;
  hw.lfsr_per_sng = trng;
  hw.stream_len = hw.stream_len_pool = hw.stream_len_output = 64;
  return hw;
}

std::int64_t weight_generations() {
  return telemetry::MetricsRegistry::instance()
      .histogram("machine.weight_streams")
      .count();
}

std::int64_t hit_counter() {
  return telemetry::MetricsRegistry::instance()
      .counter("machine.weight_bank_hits")
      .value();
}

TEST(WeightBankCache, HitIsByteIdenticalToColdPrepare) {
  ScopedFaultInjection off(nullptr);  // shield from ambient GEO_FAULTS
  WeightBankCache& cache = WeightBankCache::instance();
  std::mt19937_64 rng(2022);
  int cases = 0;
  for (const int threads : {1, 4}) {
    exec::ScopedThreads scope(threads);
    for (const AccumMode accum :
         {AccumMode::kOr, AccumMode::kPbw, AccumMode::kPbhw, AccumMode::kFxp,
          AccumMode::kApc})
      for (const sc::Sharing sharing :
           {sc::Sharing::kNone, sc::Sharing::kModerate,
            sc::Sharing::kExtreme})
        for (const bool progressive : {false, true})
          for (const bool trng : {false, true}) {
            const ConvShape shape = random_shape(rng);
            // Fresh weights: the first prepare of this layer is cold.
            const auto weights = random_values(rng, shape.weights(), -0.9f,
                                               0.9f);
            const auto input = random_values(rng, shape.activations(), 0.0f,
                                             1.0f);
            const std::vector<float> scale(
                static_cast<std::size_t>(shape.cout), 1.0f);
            const std::vector<float> shift(
                static_cast<std::size_t>(shape.cout), 0.0f);
            const std::uint64_t salt = rng() % 1000;
            const std::string where =
                std::string(nn::to_string(accum)) + " " +
                sc::to_string(sharing) + (progressive ? " prog" : "") +
                (trng ? " trng" : " lfsr") + " threads=" +
                std::to_string(threads) + " " + shape.name +
                " cin=" + std::to_string(shape.cin) +
                " cout=" + std::to_string(shape.cout);
            GeoMachine machine(small_hw(accum, sharing, progressive, trng));

            const std::int64_t misses0 = cache.misses();
            const std::int64_t hits0 = cache.hits();
            const MachineResult cold =
                machine.run_conv(shape, weights, input, scale, shift, salt);
            EXPECT_EQ(cache.misses(), misses0 + 1) << where;
            const MachineResult hit =
                machine.run_conv(shape, weights, input, scale, shift, salt);
            EXPECT_EQ(cache.hits(), hits0 + 1) << where;

            EXPECT_EQ(hit.counters, cold.counters) << where;
            EXPECT_EQ(hit.activations, cold.activations) << where;
            EXPECT_EQ(stats_tuple(hit.stats), stats_tuple(cold.stats))
                << where;

            // The resident bank is the one generate_weight_bank writes.
            const nn::ScLayerConfig cfg = machine.layer_config(shape, salt);
            std::vector<std::uint64_t> pos, neg;
            nn::generate_weight_bank(cfg, shape, nn::LayerSeeds(cfg, shape),
                                     weights, nullptr,
                                     sc::stream_table_enabled(), pos, neg);
            const auto bank = cache.acquire(cfg, shape, weights,
                                            sc::stream_table_enabled());
            EXPECT_EQ(bank->pos, pos) << where;
            EXPECT_EQ(bank->neg, neg) << where;
            ++cases;
          }
  }
  EXPECT_EQ(cases, 2 * 5 * 3 * 2 * 2);
}

struct Layer {
  nn::ScLayerConfig cfg;
  ConvShape shape;
  bool use_table = true;
  std::vector<float> weights;

  Layer() {
    cfg.stream_len = 64;
    cfg.layer_salt = 5;
    shape = ConvShape::conv("l", 2, 6, 3, 3, 1, false);
    weights.resize(static_cast<std::size_t>(shape.weights()));
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<float> dist(-0.9f, 0.9f);
    for (float& w : weights) w = dist(rng);
  }

  std::shared_ptr<const WeightBank> acquire(WeightBankCache& cache) const {
    return cache.acquire(cfg, shape, weights, use_table);
  }
};

TEST(WeightBankCache, ChangingOneWeightInPlaceMisses) {
  WeightBankCache cache(std::uint64_t{1} << 20);
  Layer l;
  l.weights[4] = 0.5f;
  const auto first = l.acquire(cache);
  EXPECT_EQ(l.acquire(cache), first);  // same span, same bytes: a hit
  EXPECT_EQ(cache.hits(), 1);

  l.weights[4] = -0.5f;  // same span, one float changed in place
  const auto second = l.acquire(cache);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_NE(second, first);
  EXPECT_NE(second->pos, first->pos);

  // One ULP is a different weight too.
  l.weights[4] = std::nextafter(-0.5f, 0.0f);
  l.acquire(cache);
  EXPECT_EQ(cache.misses(), 3);
}

TEST(WeightBankCache, EveryKeyFieldSeparatesEntries) {
  WeightBankCache cache(std::uint64_t{16} << 20);
  const Layer base;
  // Each variant changes one field that generate_weight_bank reads. Shape
  // fields that change the weight count extend or cut the same weights.
  const std::vector<std::pair<std::string, std::function<void(Layer&)>>>
      variants = {
          {"rng", [](Layer& l) { l.cfg.rng = sc::RngKind::kTrng; }},
          {"sharing", [](Layer& l) { l.cfg.sharing = sc::Sharing::kNone; }},
          {"accum", [](Layer& l) { l.cfg.accum = AccumMode::kFxp; }},
          {"stream_len", [](Layer& l) { l.cfg.stream_len = 128; }},
          {"value_bits", [](Layer& l) { l.cfg.value_bits = 6; }},
          {"progressive", [](Layer& l) { l.cfg.progressive = true; }},
          {"layer_salt", [](Layer& l) { l.cfg.layer_salt = 6; }},
          {"cin", [](Layer& l) { l.shape.cin = 3; }},
          {"hin", [](Layer& l) { l.shape.hin = 7; }},
          {"win", [](Layer& l) { l.shape.win = 7; }},
          {"cout", [](Layer& l) { l.shape.cout = 4; }},
          {"kh", [](Layer& l) { l.shape.kh = 1; }},
          {"kw", [](Layer& l) { l.shape.kw = 1; }},
          {"stride", [](Layer& l) { l.shape.stride = 2; }},
          {"pad", [](Layer& l) { l.shape.pad = 0; }},
          {"use_table", [](Layer& l) { l.use_table = false; }},
      };
  std::vector<Layer> layers{base};
  for (const auto& [field, change] : variants) {
    Layer l = base;
    change(l);
    l.weights.resize(static_cast<std::size_t>(l.shape.weights()), 0.25f);
    layers.push_back(std::move(l));
  }
  for (std::size_t i = 0; i < layers.size(); ++i) {
    SCOPED_TRACE(i == 0 ? std::string("base") : variants[i - 1].first);
    layers[i].acquire(cache);
    EXPECT_EQ(cache.misses(), static_cast<std::int64_t>(i + 1));
    EXPECT_EQ(cache.hits(), 0);
  }
  // All of them are resident side by side, and each one hits itself.
  EXPECT_EQ(cache.size(), layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    SCOPED_TRACE(i == 0 ? std::string("base") : variants[i - 1].first);
    layers[i].acquire(cache);
    EXPECT_EQ(cache.hits(), static_cast<std::int64_t>(i + 1));
  }
  EXPECT_EQ(cache.misses(), static_cast<std::int64_t>(layers.size()));
}

TEST(WeightBankCache, ActiveFaultModelBypassesTheCache) {
  const ConvShape shape = ConvShape::conv("f", 2, 5, 3, 3, 1, false);
  std::mt19937_64 rng(11);
  const auto input = random_values(rng, shape.activations(), 0.0f, 1.0f);
  const std::vector<float> scale(3, 1.0f), shift(3, 0.0f);
  GeoMachine machine(small_hw(AccumMode::kPbw, sc::Sharing::kModerate,
                              false, false));
  WeightBankCache& cache = WeightBankCache::instance();

  const auto zero_rate = FaultConfig{};
  const auto defects = FaultConfig::parse("sram=1e-2,stream=0.01,rng=5");
  ASSERT_TRUE(defects.ok());
  for (const FaultConfig* cfg : {&zero_rate, &*defects}) {
    ScopedFaultInjection inject(*cfg);
    ASSERT_NE(fault::active(), nullptr);
    const auto weights = random_values(rng, shape.weights(), -0.9f, 0.9f);
    const std::int64_t hits0 = cache.hits(), misses0 = cache.misses();
    const std::int64_t counter0 = hit_counter();
    const std::size_t size0 = cache.size();
    const std::int64_t generated0 = weight_generations();
    for (int run = 0; run < 2; ++run)
      machine.run_conv(shape, weights, input, scale, shift, 3);
    EXPECT_EQ(weight_generations(), generated0 + 2);  // every prepare
    EXPECT_EQ(cache.hits(), hits0);
    EXPECT_EQ(cache.misses(), misses0);
    EXPECT_EQ(hit_counter(), counter0);
    EXPECT_EQ(cache.size(), size0);
  }
}

TEST(WeightBankCache, ResidentBytesStayWithinTheBudget) {
  Layer l;
  const std::uint64_t bank_bytes =
      2 * l.weights.size() * sizeof(std::uint64_t);  // wpl = 1
  const std::uint64_t entry_bytes =
      bank_bytes + l.weights.size() * sizeof(float);
  const std::uint64_t budget = 3 * entry_bytes + entry_bytes / 2;
  WeightBankCache cache(budget);

  std::vector<std::shared_ptr<const WeightBank>> held;
  for (int i = 0; i < 10; ++i) {
    l.cfg.layer_salt = static_cast<std::uint64_t>(100 + i);
    held.push_back(l.acquire(cache));
    EXPECT_LE(cache.resident_bytes(), budget) << "after insert " << i;
    EXPECT_LE(cache.size(), 3u);
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.resident_bytes(), 3 * entry_bytes);
  // The most recent entries stay; the oldest were evicted, but a bank a
  // caller still holds is intact.
  EXPECT_EQ(l.acquire(cache), held.back());
  l.cfg.layer_salt = 100;
  const auto regenerated = l.acquire(cache);
  EXPECT_NE(regenerated, held.front());
  EXPECT_EQ(regenerated->pos, held.front()->pos);
  EXPECT_EQ(regenerated->neg, held.front()->neg);
  EXPECT_LE(cache.resident_bytes(), budget);

  // A bank larger than the whole budget is served but never resident.
  WeightBankCache tiny(entry_bytes - 1);
  const auto bank = l.acquire(tiny);
  EXPECT_EQ(bank->pos.size(), l.weights.size());
  EXPECT_EQ(tiny.size(), 0u);
  EXPECT_EQ(tiny.resident_bytes(), 0u);
}

// Two threads prepare and run the same layer at once, on fresh weights each
// round, so both race through the miss, the insert and the hit paths.
TEST(WeightBankCache, ConcurrentPreparesOfOneLayerAgree) {
  const HwConfig hw =
      small_hw(AccumMode::kPbw, sc::Sharing::kModerate, false, false);
  const ConvShape shape = ConvShape::conv("c", 3, 6, 5, 3, 1, false);
  std::mt19937_64 rng(5);
  const auto input = random_values(rng, shape.activations(), 0.0f, 1.0f);
  const std::vector<float> scale(5, 1.0f), shift(5, 0.0f);
  for (int round = 0; round < 8; ++round) {
    const auto weights = random_values(rng, shape.weights(), -0.9f, 0.9f);
    std::atomic<int> ready{0};
    MachineResult results[2];
    auto worker = [&](int id) {
      ScopedFaultInjection off(nullptr);
      GeoMachine machine(hw);
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      results[id] = machine.run_conv(shape, weights, input, scale, shift, 8);
    };
    std::thread a(worker, 0), b(worker, 1);
    a.join();
    b.join();
    EXPECT_EQ(results[0].counters, results[1].counters) << "round " << round;
    EXPECT_EQ(results[0].activations, results[1].activations);
    EXPECT_EQ(stats_tuple(results[0].stats), stats_tuple(results[1].stats));
  }
}

}  // namespace
}  // namespace geo
