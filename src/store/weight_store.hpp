// Sharded, disk-backed weight/activation store with end-to-end integrity
// (docs/STORAGE.md).
//
// The LP design point models HBM2 external memory; this store makes the
// disk-to-weight-bank path real instead of resident. A layer's float payload
// is split across GEOSTOR shard files (block_file.hpp: magic + version +
// per-block CRC-32, atomic fsync'd writes), and every read climbs a repair
// ladder before a single corrupted bit can reach the machine:
//
//   detect      per-block CRC-32 on every read (real damage and injected
//               GEO_FAULTS io_rot/io_short_read/io_err alike)
//   reread      bounded exponential-backoff re-reads — recovers transient
//               errno/short-read faults
//   quarantine  a block that exhausts its reread budget is quarantined and
//   rebuild     its whole shard is rewritten from the registered source
//               provider, then re-verified
//   fallback    a block that still fails (defect-model rot survives any
//               rewrite) is served from the resident source directly
//
// so the contract is *repair or fallback, never silence*: pin() either
// returns bytes identical to the registered source or a non-OK Status —
// wired through ResilientExecutor, machine-vs-nn bit-exactness holds under
// every fault model. A background scrubber walks all blocks through the
// same ladder. Everything is surfaced as store.* metrics and journal kinds.
//
// Options (StoreOptions, set by the caller and validated fail-closed):
//   cache_bytes     assembled-layer LRU cache budget          default 64 MiB
//   block_bytes     nominal block size                        default 64 KiB
//   shard_bytes     max shard file payload                    default 4 MiB
//   rereads         reread budget per block, [0,16]           default 3
//   reread_backoff  stall cycles before reread k: backoff << k
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/status.hpp"

namespace geo::store {

// Re-derives a layer's original float payload for rebuild-from-source and
// the last-rung resident fallback. Must not call back into the store.
using SourceFn = std::function<geo::StatusOr<std::vector<float>>()>;

struct StoreOptions {
  std::string dir;  // shard directory (required)
  std::int64_t cache_bytes = 64ll << 20;
  std::int64_t block_bytes = 64ll << 10;
  std::int64_t shard_bytes = 4ll << 20;
  int rereads = 3;
  std::int64_t reread_backoff = 64;  // stall cycles, doubles per attempt

  // Fail-closed structural validation (empty dir, non-multiple-of-4 blocks,
  // shards smaller than a block, ...). A store built from an invalid
  // options struct refuses every operation with this status.
  geo::Status validate() const;
};

// What one pin()/load did — mirrored into store.* metrics, returned so
// callers can charge the modeled io stall into the machine ledger.
struct LoadStats {
  std::int64_t blocks = 0;        // blocks assembled from disk
  std::int64_t bytes = 0;         // payload bytes loaded
  std::int64_t rereads = 0;       // backoff re-reads issued
  std::int64_t crc_failures = 0;  // detection events (CRC/short/errno)
  std::int64_t quarantined = 0;   // blocks quarantined this load
  std::int64_t rebuilds = 0;      // shard rebuilds from source
  std::int64_t fallback_blocks = 0;  // blocks served from resident source
  bool cache_hit = false;
  bool prefetched = false;  // set by Prefetcher::get on a prefetch hit
  // Modeled stall: one cycle per 64-byte beat for the bytes actually pulled
  // from disk, plus the reread backoff — deterministic (never wall-clock),
  // so bench ledgers gate tightly. Zero on cache hits; the Prefetcher
  // zeroes it on prefetch hits (an overlapped load stalls nothing).
  std::int64_t io_stall_cycles = 0;
};

struct ScrubReport {
  std::int64_t layers = 0;
  std::int64_t blocks = 0;
  std::int64_t crc_failures = 0;
  std::int64_t shards_rebuilt = 0;
  std::int64_t unrecoverable = 0;  // still failing after rebuild (defect rot)
};

// A pinned, assembled layer: shared ownership of the float payload (LRU
// eviction never invalidates an outstanding pin) plus that load's stats.
class Pinned {
 public:
  Pinned() = default;
  std::span<const float> span() const noexcept {
    return data_ ? std::span<const float>(*data_) : std::span<const float>();
  }
  const LoadStats& stats() const noexcept { return stats_; }
  LoadStats& stats() noexcept { return stats_; }

 private:
  friend class WeightStore;
  std::shared_ptr<const std::vector<float>> data_;
  LoadStats stats_;
};

// The store. Thread-safe: replicas share one read-only store (pin from any
// thread); loads serialize on one mutex, cache hits are cheap.
class WeightStore {
 public:
  explicit WeightStore(StoreOptions opts);

  const StoreOptions& options() const noexcept { return opts_; }

  // Writes `data` to shard files under options().dir and registers the
  // layer. `source` enables rebuild and resident fallback; when omitted, a
  // copy of `data` is retained as the source (the safe default — without
  // any source, persistent corruption would be unrecoverable and pin()
  // would have to fail instead of degrade).
  geo::Status add_layer(const std::string& name, std::span<const float> data,
                        SourceFn source = nullptr);

  // Assembles the layer through the repair ladder (or returns it from the
  // LRU cache). Never returns silently-corrupt data: the span is byte-
  // identical to the source payload, or the Status is non-OK.
  geo::StatusOr<Pinned> pin(const std::string& name);

  // Walks every block of every layer through detect/rebuild, repairing real
  // on-disk damage from the source providers. Drops cached layers for
  // shards it rebuilt.
  ScrubReport scrub();
  // Runs scrub() on the process I/O lane (exec::AsyncLane::io()).
  std::future<void> scrub_async();

  std::uint64_t layer_floats(const std::string& name) const;  // 0 if unknown
  std::int64_t cached_bytes() const;

 private:
  struct Shard {
    std::string path;
    std::uint64_t fault_site = 0;  // stable across rebuilds (defect keying)
    std::uint64_t first_float = 0;
    std::uint64_t floats = 0;
  };
  struct Layer {
    std::uint64_t floats = 0;
    std::vector<Shard> shards;
    SourceFn source;
    std::set<std::uint64_t> quarantined;  // (shard_idx << 32) | block
  };

  geo::StatusOr<Pinned> assemble_locked(const std::string& name,
                                        Layer& layer);
  geo::Status load_shard_locked(const std::string& name, Layer& layer,
                                std::size_t shard_idx, float* dst,
                                LoadStats& stats,
                                std::vector<float>* source_cache);
  geo::Status source_floats_locked(const std::string& name,
                                   const Layer& layer,
                                   std::vector<float>* cache);
  void cache_insert_locked(const std::string& name,
                           std::shared_ptr<const std::vector<float>> data);

  StoreOptions opts_;
  geo::Status config_status_;  // non-OK => every operation refuses

  mutable std::mutex mu_;
  std::map<std::string, Layer> layers_;
  struct CacheEntry {
    std::shared_ptr<const std::vector<float>> data;
    std::list<std::string>::iterator lru_it;
  };
  std::map<std::string, CacheEntry> cache_;
  std::list<std::string> lru_;  // front = most recent
  std::int64_t cached_bytes_ = 0;
};

}  // namespace geo::store
