// Fault-injection subsystem.
//
// A seeded, deterministic FaultModel that corrupts the stack at the points
// real GEO silicon can fail (see docs/FAULT_INJECTION.md):
//
//   stream  per-bit flip probability applied to SC bitstreams at generation
//   accum   per-bit flip probability at the OR-tree / parallel-counter inputs
//   seed    LFSR seed / characteristic-polynomial upsets in the SNG banks
//   sram    single- and multi-bit errors on activation/weight memory reads,
//           with an optional ECC model (parity detect-and-zero, SECDED-style
//           correct-single/zero-multi with a retry-cycle cost)
//   stuck   a stuck-at fault on one parallel-counter output column
//
// Determinism: every injection site is keyed by a (domain, site) pair hashed
// with the model seed, so runs are reproducible, independent of call order,
// and a given hardware slot (SNG buffer, SRAM word, counter column) misbehaves
// the same way every time it is exercised — the defect model, not the
// cosmic-ray model.
//
// Activation: `fault::active()` returns the installed model or nullptr. With
// `GEO_FAULTS` unset and no ScopedFaultInjection alive it is nullptr and
// every hook reduces to one pointer load — the default path is bit-identical
// to a build without this subsystem. `GEO_FAULTS=<spec>` installs a
// process-wide model (spec format in FaultConfig::parse).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/status.hpp"
#include "sc/rng_source.hpp"

namespace geo::fault {

enum class EccMode {
  kNone,    // raw corrupted word reaches the datapath
  kParity,  // odd-weight errors detected and zeroed; even-weight slip through
  kSecded,  // single-bit corrected via a 2-cycle retry; multi-bit zeroed
};

const char* to_string(EccMode mode) noexcept;

// Stuck-at fault on one parallel-counter output column.
struct StuckAtSpec {
  int column = -1;  // output bit index; -1 disables
  bool value = false;

  bool enabled() const noexcept { return column >= 0; }
};

struct FaultConfig {
  double stream_flip_rate = 0.0;  // per generated stream bit
  double accum_flip_rate = 0.0;   // per accumulation-input bit
  double seed_upset_rate = 0.0;   // per SNG (seed or polynomial upset)
  double sram_error_rate = 0.0;   // per stored bit per read
  int sram_burst = 1;             // adjacent bits flipped per SRAM event
  EccMode ecc = EccMode::kNone;
  StuckAtSpec stuck;
  // Disk-I/O faults on the out-of-core store's block path (src/store/):
  //   io_rot          per-block-read probability of bit-rot in the returned
  //                   buffer (caught by the per-block CRC). Honors the
  //                   defect/transient flag: a defect-model rotted block rots
  //                   identically on every re-read, so the store's reread
  //                   rung can never out-wait it and the ladder drains to
  //                   quarantine/rebuild/fallback.
  //   io_short_read   per-read probability the read returns fewer bytes than
  //                   asked (always re-rolled per access — a partial read(2)
  //                   is transient by nature, so bounded rereads recover).
  //   io_short_write  per-write probability the block-file image lands torn
  //                   (truncated) on disk; silent at write time, caught by
  //                   the size/CRC checks on the next read.
  //   io_err          per-open/read probability of a transient errno
  //                   (EIO-style; always re-rolled per access).
  double io_rot_rate = 0.0;
  double io_short_read_rate = 0.0;
  double io_short_write_rate = 0.0;
  double io_error_rate = 0.0;
  std::uint64_t rng_seed = 0;     // 0 = derive from GEO_SEED / default
  // Defect model (default, false): every injection site misbehaves the same
  // way on every access — re-reading a corrupted slot reproduces the same
  // corruption, so a retry can never out-wait a fault. Transient model
  // (true): each access re-rolls its fault draw (cosmic-ray style), which is
  // what makes the resilience layer's detect-and-retry loop able to recover.
  // Transient draws are keyed by a per-*site* access sequence (this model's
  // Nth read of a given site), so any pass that touches each site once is
  // independent of access order: the resilience walk's first pass fans every
  // tile out, then retries run serially in tile order, and the sequence
  // advances per retried site, so runs are reproducible at every thread
  // count. The sequence is model-wide: executions sharing one model share
  // it.
  bool transient = false;

  // True if any injection is configured (an all-zero config is inert and is
  // treated like "no model installed").
  bool any() const noexcept;

  // Parses a comma-separated spec, e.g.
  //   "stream=1e-3,accum=5e-4,seed=0.01,sram=1e-4,burst=2,ecc=secded,
  //    stuck=3:1,rng=42"
  // Keys: stream|accum|seed|sram|io_rot|io_short_read|io_short_write|io_err
  // (rates in [0,1]), burst (int >= 1), ecc (none|parity|secded),
  // stuck (<col>[:<0|1>], col in [0,31]), rng (uint64), transient (0|1).
  // Unknown keys and out-of-range values are rejected with a diagnostic.
  static geo::StatusOr<FaultConfig> parse(std::string_view spec);

  // GEO_FAULTS, parsed fresh on each call. Unset/empty -> nullopt; a
  // malformed spec warns once per call on stderr and returns nullopt (faults
  // off), never aborts the host program.
  static std::optional<FaultConfig> from_env();

  std::string to_string() const;
};

// Injection/detection/correction ledger (mirrored into the telemetry
// registry under the fault.* counters). Model-wide: every execution under
// the model adds to it, so it is telemetry only; an execution learns what its
// own reads did from the SramRead each one returns.
struct FaultStats {
  std::int64_t stream_bits_flipped = 0;
  std::int64_t accum_bits_flipped = 0;
  std::int64_t seed_upsets = 0;
  std::int64_t sram_words_corrupted = 0;
  std::int64_t sram_errors_detected = 0;
  std::int64_t sram_errors_corrected = 0;
  std::int64_t sram_silent_corruptions = 0;
  std::int64_t sram_retry_cycles = 0;
  std::int64_t stuck_column_events = 0;
  std::int64_t io_blocks_rotted = 0;
  std::int64_t io_short_reads = 0;
  std::int64_t io_short_writes = 0;
  std::int64_t io_errors = 0;
};

class FaultModel {
 public:
  // Injection-site domains: the same site index means different hardware in
  // different domains, so each gets an independent fault pattern.
  enum class Site : std::uint64_t {
    kWeightStream = 1,
    kActStream,
    kAccumInput,
    kWeightSram,
    kActSram,
    kSeed,
    kGeneric,
    // Partial-sum words in activation SRAM, read back through the
    // near-memory read-add-write path (the resilience layer's CRC/range
    // guards watch this domain). Appended so the existing domains keep
    // their PR-2 hash keys.
    kPsumSram,
    // Disk blocks in the out-of-core weight store (src/store/). The site
    // index is the store's stable (shard, block) key, so a defect-model
    // rotted block misbehaves identically on every re-read. Appended to
    // preserve earlier domains' hash keys.
    kStoreBlock,
  };

  explicit FaultModel(const FaultConfig& cfg);

  const FaultConfig& config() const noexcept { return cfg_; }

  // --- stream-generation faults -------------------------------------------
  // Flips bits of a packed `length`-bit stream in place at the configured
  // stream rate. Returns the number of bits flipped.
  int corrupt_stream(std::uint64_t* words, std::size_t length, Site domain,
                     std::uint64_t site);

  // Same, at the accumulation-input rate (OR tree / parallel-counter inputs).
  int corrupt_accum_input(std::uint64_t* words, std::size_t length,
                          std::uint64_t site);
  bool accum_active() const noexcept { return cfg_.accum_flip_rate > 0.0; }

  // --- generator faults ----------------------------------------------------
  // Possibly upsets the SNG's seed (bit flip) or its LFSR characteristic
  // polynomial (tap flip away from the maximal-length mask, keeping the mask
  // legal). Deterministic per site.
  sc::SeedSpec corrupt_seed(const sc::SeedSpec& spec, std::uint64_t site);

  // --- memory faults -------------------------------------------------------
  // What one SRAM read did, for the caller's own ledger: the word the
  // datapath receives, whether ECC detected the error and zeroed the word
  // (parity on an odd-weight error, SECDED on a multi-bit one), and the
  // correction-path retry cycles the read cost.
  struct SramRead {
    std::uint32_t word = 0;
    bool zeroed = false;
    int retry_cycles = 0;
  };

  // Models reading a `bits`-wide word from SRAM: injects bit errors at the
  // configured rate (bursts of `sram_burst` adjacent bits) and applies the
  // ECC policy. The word may come back corrupted (kNone / parity-even),
  // unchanged (kSecded corrected, costing 2 retry cycles) or zeroed
  // (detect-and-zero; SECDED's detection also costs 2 retry cycles).
  SramRead sram_read(std::uint32_t word, unsigned bits, Site domain,
                     std::uint64_t site);
  bool sram_active() const noexcept { return cfg_.sram_error_rate > 0.0; }

  // --- disk-I/O faults -----------------------------------------------------
  // Block bit-rot on the store's read path: flips 1..4 bits of the `length`-
  // byte buffer when the per-site io_rot draw fires. Honors the defect/
  // transient flag (defect: the same block rots the same way on every read;
  // transient: each read re-rolls). Returns the number of bits flipped.
  int corrupt_block(unsigned char* bytes, std::size_t length,
                    std::uint64_t site);

  // Short read: the byte count the read actually returns (< `want` when the
  // per-access draw fires; always re-rolled, partial reads are transient).
  std::size_t short_read(std::size_t want, std::uint64_t site);

  // Torn write: the byte count that actually lands on disk (< `want` when
  // the per-access draw fires; silent at write time).
  std::size_t short_write(std::size_t want, std::uint64_t site);

  // Transient open/read errno (always re-rolled per access); true = this
  // access fails with an injected EIO.
  bool io_error(std::uint64_t site);

  // --- parallel-counter faults --------------------------------------------
  // Forces the stuck-at column on one parallel-counter output count.
  std::uint32_t apply_stuck(std::uint32_t count);
  bool stuck_enabled() const noexcept { return cfg_.stuck.enabled(); }

  FaultStats stats() const;

 private:
  struct SiteRng;  // splitmix64 stream keyed by (model seed, domain, site)

  // Per-site access counters for the transient model: the Nth access of a
  // site draws from an independent stream. Sharded so concurrent tile
  // workers don't serialize on one lock.
  struct TransientSeq {
    static constexpr std::size_t kShards = 16;
    struct Shard {
      std::mutex mu;
      std::unordered_map<std::uint64_t, std::uint64_t> next;
    };
    std::array<Shard, kShards> shards;

    std::uint64_t take(std::uint64_t key);
  };

  SiteRng rng_for(Site domain, std::uint64_t site) const;
  // Like rng_for, but always advances the per-site access sequence (even in
  // defect mode) — the draw is transient by construction. Used by the
  // errno/short-read/short-write hooks.
  SiteRng rng_for_access(Site domain, std::uint64_t site) const;
  std::uint64_t site_key(Site domain, std::uint64_t site) const noexcept;
  int flip_bits(std::uint64_t* words, std::size_t length, double rate,
                SiteRng& rng);
  std::uint32_t sram_flip_mask(unsigned bits, SiteRng& rng) const;

  FaultConfig cfg_;

  std::atomic<std::int64_t> stream_flips_{0};
  std::atomic<std::int64_t> accum_flips_{0};
  std::atomic<std::int64_t> seed_upsets_{0};
  std::atomic<std::int64_t> sram_corrupted_{0};
  std::atomic<std::int64_t> sram_detected_{0};
  std::atomic<std::int64_t> sram_corrected_{0};
  std::atomic<std::int64_t> sram_silent_{0};
  std::atomic<std::int64_t> sram_retry_cycles_{0};
  std::atomic<std::int64_t> stuck_events_{0};
  std::atomic<std::int64_t> io_rotted_{0};
  std::atomic<std::int64_t> io_short_reads_{0};
  std::atomic<std::int64_t> io_short_writes_{0};
  std::atomic<std::int64_t> io_errors_{0};
  // Per-site access sequence for the transient model (unused in defect
  // mode).
  mutable TransientSeq transient_seq_;
};

// The active model for the calling thread: the innermost override installed
// on this thread (ScopedFaultInjection / ScopedFaultOverride), else the
// GEO_FAULTS-configured process model, else nullptr. The nullptr path costs
// one thread-local load (plus a one-time env parse on first call).
FaultModel* active() noexcept;

// RAII installer. Overrides GEO_FAULTS (and any outer scope) for its
// lifetime on the *installing thread*; `ScopedFaultInjection(nullptr)`
// disables injection in scope — used to compute clean references inside
// fault sweeps. The override is thread-local, so concurrent bench workers
// can each hold their own scope; exec::ThreadPool propagates the submitting
// thread's effective model onto its workers for the duration of each
// parallel_for. Construct and destroy on the same thread.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultConfig& cfg);
  explicit ScopedFaultInjection(std::nullptr_t);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

  // Valid only for the config-constructed form.
  FaultModel& model() { return *model_; }

 private:
  std::unique_ptr<FaultModel> model_;
  std::uintptr_t prev_;  // raw slot value (sentinel-encoded)
};

// Non-owning thread-local override: installs `model` (may be nullptr =
// faults disabled) as the calling thread's active model and restores the
// previous slot on destruction. This is how exec::ThreadPool workers inherit
// the effective model (`fault::active()`) of the thread that submitted a
// parallel_for. Construct and destroy on the same thread.
class ScopedFaultOverride {
 public:
  explicit ScopedFaultOverride(FaultModel* model) noexcept;
  ~ScopedFaultOverride();

  ScopedFaultOverride(const ScopedFaultOverride&) = delete;
  ScopedFaultOverride& operator=(const ScopedFaultOverride&) = delete;

 private:
  std::uintptr_t prev_;  // raw slot value (sentinel-encoded)
};

}  // namespace geo::fault
