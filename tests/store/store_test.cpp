// Out-of-core weight store (docs/STORAGE.md): GEOSTOR block-file round
// trips and the fail-closed open matrix, the detect/reread/quarantine/
// rebuild/fallback repair ladder under real and injected damage, LRU cache
// bounds, prefetch hit/miss accounting, the AsyncLane FIFO contract, and
// end-to-end out-of-core conv execution that stays byte-identical to
// resident weights under every fault model.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "exec/async_lane.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_model.hpp"
#include "resilience/resilience.hpp"
#include "store/block_file.hpp"
#include "store/prefetch.hpp"
#include "store/weight_store.hpp"

namespace geo::store {
namespace {

using fault::FaultConfig;
using fault::ScopedFaultInjection;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/store_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<float> ramp(std::size_t n, float scale = 0.01f) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = scale * static_cast<float>(i % 251) - 1.0f;
  return v;
}

StoreOptions small_options(const std::string& dir) {
  StoreOptions o;
  o.dir = dir;
  o.block_bytes = 256;   // many blocks per shard
  o.shard_bytes = 1024;  // several shards per layer
  o.rereads = 3;
  o.reread_backoff = 16;
  return o;
}

// Flips one byte somewhere in the payload region of a shard file on disk.
void damage_file(const std::string& path, std::uint64_t payload_offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(f.tellg());
  ASSERT_GT(size, payload_offset);
  f.seekg(static_cast<std::streamoff>(payload_offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(payload_offset));
  f.write(&byte, 1);
}

// ---------------------------------------------------------------- BlockFile

TEST(BlockFile, RoundTripsWithShortLastBlock) {
  ScopedFaultInjection shield{nullptr};  // clean-disk test under any ambient GEO_FAULTS
  const std::string dir = fresh_dir("bf_roundtrip");
  const std::string path = dir + "/layer.geostor";
  const std::vector<float> data = ramp(100);  // 400 B: 3x128 + 16 tail
  ASSERT_TRUE(write_block_file(path, data, 128, 7).ok());

  auto f = BlockFile::open(path);
  ASSERT_TRUE(f.ok()) << f.status().to_string();
  EXPECT_EQ(f->block_count(), 4u);
  EXPECT_EQ(f->block_bytes(), 128u);
  EXPECT_EQ(f->payload_bytes(), 400u);
  EXPECT_EQ(f->block_size(3), 16u);

  std::vector<float> back(data.size());
  std::vector<unsigned char> buf;
  for (std::uint32_t i = 0; i < f->block_count(); ++i) {
    ASSERT_TRUE(f->read_block(i, buf, 7).ok());
    std::memcpy(reinterpret_cast<char*>(back.data()) + i * 128, buf.data(),
                buf.size());
  }
  EXPECT_EQ(back, data);
}

TEST(BlockFile, EmptyPayloadRoundTrips) {
  ScopedFaultInjection shield{nullptr};  // clean-disk test under any ambient GEO_FAULTS
  const std::string dir = fresh_dir("bf_empty");
  const std::string path = dir + "/empty.geostor";
  ASSERT_TRUE(write_block_file(path, {}, 64, 1).ok());
  auto f = BlockFile::open(path);
  ASSERT_TRUE(f.ok()) << f.status().to_string();
  EXPECT_EQ(f->block_count(), 0u);
  EXPECT_EQ(f->payload_bytes(), 0u);
}

TEST(BlockFile, OpenFailsClosedOnForeignAndDamagedFiles) {
  ScopedFaultInjection shield{nullptr};  // clean-disk test under any ambient GEO_FAULTS
  const std::string dir = fresh_dir("bf_failclosed");

  {  // foreign magic
    const std::string path = dir + "/foreign.geostor";
    std::ofstream(path, std::ios::binary)
        << "NOTGEOSTOR-PADDED-PAST-THE-FIXED-HEADER-SO-MAGIC-DECIDES";
    auto f = BlockFile::open(path);
    ASSERT_FALSE(f.ok());
    EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
  }
  {  // missing
    auto f = BlockFile::open(dir + "/missing.geostor");
    ASSERT_FALSE(f.ok());
    EXPECT_EQ(f.status().code(), StatusCode::kFailedPrecondition);
  }
  {  // truncated payload (a torn write without the fault hooks)
    const std::string path = dir + "/torn.geostor";
    ASSERT_TRUE(write_block_file(path, ramp(64), 64, 2).ok());
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full - 10);
    auto f = BlockFile::open(path);
    ASSERT_FALSE(f.ok());
    EXPECT_EQ(f.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(f.status().message().find("truncated"), std::string::npos);
  }
  {  // version skew
    const std::string path = dir + "/version.geostor";
    ASSERT_TRUE(write_block_file(path, ramp(16), 64, 3).ok());
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    const char future[4] = {99, 0, 0, 0};
    f.write(future, 4);
    f.close();
    auto reopened = BlockFile::open(path);
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(reopened.status().message().find("version"), std::string::npos);
  }
}

TEST(BlockFile, OnDiskBitFlipIsCaughtByThatBlocksCrc) {
  ScopedFaultInjection shield{nullptr};  // clean-disk test under any ambient GEO_FAULTS
  const std::string dir = fresh_dir("bf_bitflip");
  const std::string path = dir + "/flip.geostor";
  const std::vector<float> data = ramp(128);  // 512 B = 4 blocks of 128
  ASSERT_TRUE(write_block_file(path, data, 128, 4).ok());
  // Damage one byte inside block 2's payload: header(32) + crcs(16) + 2*128.
  damage_file(path, 32 + 16 + 2 * 128 + 5);

  auto f = BlockFile::open(path);
  ASSERT_TRUE(f.ok()) << f.status().to_string();
  std::vector<unsigned char> buf;
  EXPECT_TRUE(f->read_block(0, buf, 4).ok());
  EXPECT_TRUE(f->read_block(1, buf, 4).ok());
  const geo::Status bad = f->read_block(2, buf, 4);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kDataLoss);
  EXPECT_NE(bad.message().find("CRC"), std::string::npos);
  EXPECT_TRUE(f->read_block(3, buf, 4).ok());
}

// -------------------------------------------------------------- WeightStore

TEST(WeightStore, PinRoundTripsAndCachesWithModeledStall) {
  ScopedFaultInjection shield{nullptr};  // clean-disk test under any ambient GEO_FAULTS
  WeightStore store(small_options(fresh_dir("ws_roundtrip")));
  const std::vector<float> data = ramp(700);  // 2800 B: 3 shards
  ASSERT_TRUE(store.add_layer("conv1", data).ok());
  EXPECT_EQ(store.layer_floats("conv1"), 700u);

  auto p = store.pin("conv1");
  ASSERT_TRUE(p.ok()) << p.status().to_string();
  ASSERT_EQ(p->span().size(), data.size());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), p->span().begin()));
  EXPECT_FALSE(p->stats().cache_hit);
  EXPECT_EQ(p->stats().bytes, 2800);
  // One cycle per 64-byte beat, deterministic.
  EXPECT_EQ(p->stats().io_stall_cycles, (2800 + 63) / 64);
  EXPECT_EQ(p->stats().fallback_blocks, 0);

  auto again = store.pin("conv1");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->stats().cache_hit);
  EXPECT_EQ(again->stats().io_stall_cycles, 0);
  // Shared payload: the cache and both pins alias one buffer.
  EXPECT_EQ(again->span().data(), p->span().data());
}

TEST(WeightStore, FailsClosedOnInvalidOptionsAndUnknownLayers) {
  StoreOptions bad;
  bad.dir = "";  // required
  WeightStore store(bad);
  EXPECT_EQ(store.add_layer("x", ramp(4)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.pin("x").status().code(), StatusCode::kInvalidArgument);

  StoreOptions odd = small_options(fresh_dir("ws_badblock"));
  odd.block_bytes = 6;  // not a multiple of 4
  EXPECT_FALSE(odd.validate().ok());

  WeightStore good(small_options(fresh_dir("ws_unknown")));
  EXPECT_EQ(good.pin("nope").status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(good.add_layer("a", ramp(8)).ok());
  EXPECT_EQ(good.add_layer("a", ramp(8)).code(),
            StatusCode::kInvalidArgument);  // duplicate
}

TEST(WeightStore, RealOnDiskDamageIsRepairedByRebuild) {
  ScopedFaultInjection shield{nullptr};  // clean-disk test under any ambient GEO_FAULTS
  const std::string dir = fresh_dir("ws_repair");
  WeightStore store(small_options(dir));
  const std::vector<float> data = ramp(700);
  ASSERT_TRUE(store.add_layer("w", data).ok());

  // Scratch the middle shard's payload on disk.
  damage_file(dir + "/w.s1.geostor", 200);

  auto p = store.pin("w");
  ASSERT_TRUE(p.ok()) << p.status().to_string();
  EXPECT_TRUE(std::equal(data.begin(), data.end(), p->span().begin()));
  EXPECT_GT(p->stats().crc_failures, 0);
  EXPECT_GE(p->stats().rebuilds, 1);
  EXPECT_EQ(p->stats().fallback_blocks, 0) << "real damage must repair";

  // The rebuild rewrote the shard: a fresh verify pass over the file is
  // clean and a fresh (uncached) store reads it without incident.
  WeightStore fresh(small_options(dir));
  // (separate instance cannot pin unregistered layers; verify via BlockFile)
  auto f = BlockFile::open(dir + "/w.s1.geostor");
  ASSERT_TRUE(f.ok());
  std::vector<unsigned char> buf;
  for (std::uint32_t b = 0; b < f->block_count(); ++b)
    EXPECT_TRUE(f->read_block(b, buf, 0).ok());
}

TEST(WeightStore, TransientIoErrorsRecoverViaRereadsWithBackoffCharged) {
  WeightStore store(small_options(fresh_dir("ws_transient")));
  const std::vector<float> data = ramp(700);
  ASSERT_TRUE(store.add_layer("w", data).ok());

  FaultConfig cfg;
  cfg.io_error_rate = 0.3;
  cfg.io_short_read_rate = 0.1;
  cfg.rng_seed = 99;
  ScopedFaultInjection scope(cfg);

  auto p = store.pin("w");
  ASSERT_TRUE(p.ok()) << p.status().to_string();
  EXPECT_TRUE(std::equal(data.begin(), data.end(), p->span().begin()));
  EXPECT_GT(p->stats().rereads, 0) << "rates this high must trigger rereads";
  // Backoff cycles ride on top of the transfer beats.
  EXPECT_GT(p->stats().io_stall_cycles, (2800 + 63) / 64);
}

TEST(WeightStore, BlanketDefectRotDrainsToResidentFallbackBitExact) {
  WeightStore store(small_options(fresh_dir("ws_rot")));
  const std::vector<float> data = ramp(700);
  ASSERT_TRUE(store.add_layer("w", data).ok());

  FaultConfig cfg;
  cfg.io_rot_rate = 1.0;  // every block of every shard, persistently
  cfg.rng_seed = 5;
  ScopedFaultInjection scope(cfg);

  auto p = store.pin("w");
  ASSERT_TRUE(p.ok()) << p.status().to_string();
  // Repair-or-fallback, never silence: with rot pinned to every block the
  // ladder must land every block on the resident source, bit-exactly.
  EXPECT_TRUE(std::equal(data.begin(), data.end(), p->span().begin()));
  const std::int64_t total_blocks = (2800 + 255) / 256 + 2;  // short tails
  EXPECT_GE(p->stats().fallback_blocks, total_blocks - 2);
  EXPECT_GT(p->stats().quarantined, 0);
  EXPECT_GE(p->stats().rebuilds, 1);
}

TEST(WeightStore, TornRebuildFromShortWriteStillServesFromSource) {
  WeightStore store(small_options(fresh_dir("ws_torn")));
  const std::vector<float> data = ramp(300);
  ASSERT_TRUE(store.add_layer("w", data).ok());

  // Rot forces a rebuild; the rebuild's write is itself torn; reads of the
  // torn file fail closed and the shard serves from source.
  FaultConfig cfg;
  cfg.io_rot_rate = 1.0;
  cfg.io_short_write_rate = 1.0;
  cfg.rng_seed = 11;
  ScopedFaultInjection scope(cfg);

  auto p = store.pin("w");
  ASSERT_TRUE(p.ok()) << p.status().to_string();
  EXPECT_TRUE(std::equal(data.begin(), data.end(), p->span().begin()));
  EXPECT_GT(p->stats().fallback_blocks, 0);
}

TEST(WeightStore, LruCacheHonorsByteBudget) {
  ScopedFaultInjection shield{nullptr};  // clean-disk test under any ambient GEO_FAULTS
  StoreOptions o = small_options(fresh_dir("ws_lru"));
  o.cache_bytes = 3000;  // fits one 2800 B layer, not two
  WeightStore store(o);
  ASSERT_TRUE(store.add_layer("a", ramp(700)).ok());
  ASSERT_TRUE(store.add_layer("b", ramp(700, 0.02f)).ok());

  ASSERT_TRUE(store.pin("a").ok());
  EXPECT_EQ(store.cached_bytes(), 2800);
  ASSERT_TRUE(store.pin("b").ok());  // evicts a
  EXPECT_EQ(store.cached_bytes(), 2800);
  auto a = store.pin("a");
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a->stats().cache_hit) << "a must have been evicted";
  auto b = store.pin("b");
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->stats().cache_hit) << "pinning a evicted b in turn";

  StoreOptions uncached = small_options(fresh_dir("ws_nocache"));
  uncached.cache_bytes = 0;
  WeightStore none(uncached);
  ASSERT_TRUE(none.add_layer("a", ramp(16)).ok());
  ASSERT_TRUE(none.pin("a").ok());
  EXPECT_EQ(none.cached_bytes(), 0);
}

TEST(WeightStore, EvictionNeverInvalidatesAnOutstandingPin) {
  ScopedFaultInjection shield{nullptr};  // clean-disk test under any ambient GEO_FAULTS
  StoreOptions o = small_options(fresh_dir("ws_pin_alive"));
  o.cache_bytes = 3000;
  WeightStore store(o);
  const std::vector<float> data = ramp(700);
  ASSERT_TRUE(store.add_layer("a", data).ok());
  ASSERT_TRUE(store.add_layer("b", ramp(700, 0.02f)).ok());

  auto a = store.pin("a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(store.pin("b").ok());  // evicts a from the cache
  // The pinned span still reads the full payload.
  EXPECT_TRUE(std::equal(data.begin(), data.end(), a->span().begin()));
}

TEST(WeightStore, ScrubRepairsRealDamageInPlace) {
  ScopedFaultInjection shield{nullptr};  // clean-disk test under any ambient GEO_FAULTS
  const std::string dir = fresh_dir("ws_scrub");
  WeightStore store(small_options(dir));
  ASSERT_TRUE(store.add_layer("w", ramp(700)).ok());
  damage_file(dir + "/w.s0.geostor", 100);
  damage_file(dir + "/w.s2.geostor", 150);

  ScrubReport r = store.scrub();
  EXPECT_EQ(r.layers, 1);
  EXPECT_GT(r.crc_failures, 0);
  EXPECT_EQ(r.shards_rebuilt, 2);
  EXPECT_EQ(r.unrecoverable, 0);

  // A second pass over the repaired files is clean.
  ScrubReport again = store.scrub();
  EXPECT_EQ(again.crc_failures, 0);
  EXPECT_EQ(again.shards_rebuilt, 0);

  // And the async variant completes on the I/O lane.
  damage_file(dir + "/w.s1.geostor", 120);
  store.scrub_async().get();
  EXPECT_EQ(store.scrub().crc_failures, 0);
}

// --------------------------------------------------------------- Prefetcher

TEST(Prefetcher, HitZeroesStallMissChargesIt) {
  ScopedFaultInjection shield{nullptr};  // clean-disk test under any ambient GEO_FAULTS
  WeightStore store(small_options(fresh_dir("pf_hitmiss")));
  const std::vector<float> data = ramp(700);
  ASSERT_TRUE(store.add_layer("next", data).ok());
  ASSERT_TRUE(store.add_layer("cold", data).ok());

  Prefetcher pf(store);
  pf.prefetch("next");
  auto hit = pf.get("next");
  ASSERT_TRUE(hit.ok()) << hit.status().to_string();
  EXPECT_TRUE(hit->stats().prefetched);
  EXPECT_EQ(hit->stats().io_stall_cycles, 0) << "overlapped load: no stall";
  EXPECT_TRUE(std::equal(data.begin(), data.end(), hit->span().begin()));

  auto miss = pf.get("cold");
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->stats().prefetched);
  EXPECT_GT(miss->stats().io_stall_cycles, 0) << "sync load: full stall";
  EXPECT_EQ(pf.in_flight(), 0u);
}

TEST(Prefetcher, PrefetchIsIdempotentWhileInFlightAndDrainsOnDestruction) {
  WeightStore store(small_options(fresh_dir("pf_idem")));
  ASSERT_TRUE(store.add_layer("w", ramp(700)).ok());
  {
    Prefetcher pf(store);
    pf.prefetch("w");
    pf.prefetch("w");  // no second issue
    EXPECT_LE(pf.in_flight(), 1u);
    // Destruction with an unconsumed prefetch must not race the store.
  }
  WeightStore store2(small_options(fresh_dir("pf_faulty")));
  const std::vector<float> data = ramp(700);
  ASSERT_TRUE(store2.add_layer("w", data).ok());
  // The lane inherits the submitter's fault scope: a prefetch issued under
  // blanket rot still resolves bit-exactly via the ladder.
  FaultConfig cfg;
  cfg.io_rot_rate = 1.0;
  cfg.rng_seed = 21;
  ScopedFaultInjection scope(cfg);
  Prefetcher pf(store2);
  pf.prefetch("w");
  auto p = pf.get("w");
  ASSERT_TRUE(p.ok()) << p.status().to_string();
  EXPECT_TRUE(std::equal(data.begin(), data.end(), p->span().begin()));
  EXPECT_GT(p->stats().fallback_blocks, 0);
}

// ---------------------------------------------------------------- AsyncLane

TEST(AsyncLane, RunsFifoPropagatesExceptionsAndDrainsOnDestruction) {
  std::vector<int> order;
  std::mutex mu;
  {
    exec::AsyncLane lane;
    std::future<void> boom;
    for (int i = 0; i < 8; ++i) {
      auto fut = lane.submit([&, i] {
        std::lock_guard lock(mu);
        order.push_back(i);
      });
      if (i == 3) boom = lane.submit([] { throw std::runtime_error("x"); });
    }
    EXPECT_THROW(boom.get(), std::runtime_error);
  }  // destruction drains the queue
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(AsyncLane, NestedSubmitRunsInlineInsteadOfDeadlocking) {
  exec::AsyncLane lane;
  std::atomic<bool> inner_ran{false};
  lane.submit([&] { lane.submit([&] { inner_ran = true; }).get(); }).get();
  EXPECT_TRUE(inner_ran.load());
}

// --------------------------------------------- out-of-core conv execution

class OutOfCoreConv : public ::testing::TestWithParam<int> {};

TEST_P(OutOfCoreConv, MatchesResidentExecutionUnderEveryFaultModel) {
  exec::ScopedThreads threads(GetParam());
  const arch::ConvShape shape = arch::ConvShape::conv("oc", 4, 6, 5, 3, 1,
                                                      false);
  std::mt19937 rng(77);
  std::uniform_real_distribution<float> wdist(-0.8f, 0.8f);
  std::uniform_real_distribution<float> adist(0.0f, 1.0f);
  std::vector<float> weights(static_cast<std::size_t>(shape.weights()));
  for (auto& w : weights) w = wdist(rng);
  std::vector<float> input(static_cast<std::size_t>(shape.activations()));
  for (auto& a : input) a = adist(rng);
  const std::vector<float> ones(static_cast<std::size_t>(shape.cout), 1.0f);
  const std::vector<float> zeros(static_cast<std::size_t>(shape.cout), 0.0f);

  arch::HwConfig hw = arch::HwConfig::ulp();
  hw.stream_len = 64;
  hw.stream_len_pool = 64;
  hw.stream_len_output = 64;

  // Resident baseline, no store involved.
  resilience::ResilientExecutor baseline(hw);
  auto want = baseline.run_conv(shape, weights, input, ones, zeros, 1, "oc");
  ASSERT_TRUE(want.ok());

  StoreOptions o = small_options(fresh_dir(
      "oc_conv_t" + std::to_string(GetParam())));
  o.cache_bytes = 0;  // every pin walks the disk path (and the ladder)
  WeightStore store(o);
  ASSERT_TRUE(store.add_layer("oc", weights).ok());

  // Clean disk, then blanket persistent rot in every shard: the acceptance
  // bar is byte-identical activations and counters either way. The rot is
  // layered onto the ambient GEO_FAULTS spec, its rng seed included, so the
  // store run sees the same SRAM faults as the resident baseline.
  const std::optional<FaultConfig> ambient = FaultConfig::from_env();
  for (const double rot : {0.0, 1.0}) {
    std::optional<ScopedFaultInjection> scope;
    if (rot > 0) {
      FaultConfig cfg = ambient.value_or(FaultConfig{});
      if (!ambient.has_value()) cfg.rng_seed = 13;
      cfg.io_rot_rate = rot;
      scope.emplace(cfg);
    }
    auto pinned = store.pin("oc");
    ASSERT_TRUE(pinned.ok()) << pinned.status().to_string();

    resilience::ResilientExecutor executor(hw);
    resilience::RunOptions run;
    run.io_stall_cycles = pinned->stats().io_stall_cycles;
    auto got = executor.run_conv(shape, pinned->span(), input, ones, zeros, 1,
                                 "oc", run);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(got->activations, want->activations) << "rot=" << rot;
    EXPECT_EQ(got->counters, want->counters) << "rot=" << rot;
    // The load stall landed in the io sub-bucket and the ledger still
    // reconciles (always-on check inside the machine would have thrown).
    if (!pinned->stats().cache_hit) {
      EXPECT_EQ(got->stats.io_stall_cycles, run.io_stall_cycles);
      EXPECT_GE(got->stats.stall_cycles, got->stats.io_stall_cycles);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, OutOfCoreConv, ::testing::Values(1, 4));

}  // namespace
}  // namespace geo::store
