// Table-driven word-parallel stream generation with a shared-sequence cache.
//
// GEO's seed sharing (Sec. II-A) means a whole layer draws its streams from
// a handful of distinct deterministic RNG sequences. For one sequence
// R[0..L-1] the comparator output for value v is bit t = (v != 0 && R[t] <= v)
// — a pure function of (sequence, v). So instead of ticking the generator L
// times per stream, we walk the sequence ONCE and precompute the full
// comparator table: one-hot "level" bitmaps level[s] (bit t set iff
// R[t] == s) prefix-OR-ed into table[v] = OR_{s<=v} level[s]. Any stream for
// value v is then a word-wise copy of table[v] (an 8-bit LFSR at L=256 is
// 8 KB per sequence: ~256 ticks + a heap allocation become a 4-word memcpy).
// Progressive streams (Sec. II-B) compose segment-wise copies of
// table[effective_value(t)] between load beats, per
// ProgressiveSchedule::loaded_bits.
//
// Tables live in a process-wide registry keyed by the canonicalized
// (RngKind, bits, seed, taps, length) tuple — keyed AFTER
// fault::corrupt_seed rewrites a spec, so the GEO_FAULTS bit-exactness
// contracts hold unchanged. Each key's table is built under std::call_once:
// the first acquire builds it, concurrent acquires of the same key block
// until the build returns. Non-deterministic sources (TRNG) and tables over
// the byte budget fall back to the reusable tick path, which is
// bit-identical by construction.
//
// Knob (see docs/STREAM_GENERATION.md / docs/OBSERVABILITY.md):
//   GEO_STREAM_TABLE  0|1  table-driven generation on/off (default 1)
// The registry's byte budget is fixed at 256 MiB, 8 MiB per table.
// Telemetry: machine.stream_table_hits / _misses / _build_ns / _fallbacks.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "sc/progressive.hpp"
#include "sc/rng_source.hpp"
#include "sc/sng.hpp"

namespace geo::sc {

// GEO_STREAM_TABLE, re-read on each call (checked parse; malformed values
// warn once and fall back to enabled).
bool stream_table_enabled();

// Canonical identity of one precomputed comparator table. Specs that denote
// the same sequence (taps=0 vs. the explicit default polynomial, seed 0 vs.
// the LFSR's silent 0->1 remap, out-of-range Sobol dimensions) collapse to
// one key so the cache shares as widely as the hardware would.
struct StreamTableKey {
  RngKind kind = RngKind::kLfsr;
  unsigned bits = 0;
  std::uint32_t seed = 0;
  std::uint32_t taps = 0;
  std::uint32_t length = 0;

  bool operator==(const StreamTableKey&) const = default;
};

struct StreamTableKeyHash {
  std::size_t operator()(const StreamTableKey& k) const noexcept;
};

// The full comparator table for one sequence: row(v) is the packed
// `length`-bit stream an SNG fed by this sequence emits for comparator value
// v (row(0) is all-zero — a zero value never fires). Immutable once built.
class StreamTable {
 public:
  // Walks the sequence once and builds all 2^bits rows. `spec` must already
  // be canonical for `kind`.
  static StreamTable build(RngKind kind, const SeedSpec& spec,
                           std::size_t length);

  // Table footprint for a prospective build (used for budget gating before
  // any allocation happens).
  static std::uint64_t bytes_for(unsigned bits, std::size_t length) noexcept {
    const std::uint64_t wpl = (static_cast<std::uint64_t>(length) + 63) / 64;
    return (std::uint64_t{1} << bits) * wpl * 8;
  }

  unsigned bits() const noexcept { return bits_; }
  std::size_t length() const noexcept { return length_; }
  std::size_t wpl() const noexcept { return wpl_; }
  std::uint64_t bytes() const noexcept { return words_.size() * 8; }

  const std::uint64_t* row(std::uint32_t value) const noexcept {
    return words_.data() + static_cast<std::size_t>(value) * wpl_;
  }

 private:
  unsigned bits_ = 0;
  std::size_t length_ = 0;
  std::size_t wpl_ = 0;
  std::vector<std::uint64_t> words_;  // (1 << bits) rows of wpl words
};

// Process-wide shared-sequence cache. Thread-safe; a given key is built
// exactly once (std::call_once) and served read-only forever after.
class StreamTableRegistry {
 public:
  static StreamTableRegistry& instance();

  // The ready table for this sequence, building it if this is the first
  // request. Returns nullptr when the sequence is not cacheable (TRNG,
  // generator width outside the LFSR range) or would exceed the byte budget
  // — callers fall back to the tick path. Never throws on the nullptr path.
  const StreamTable* acquire(RngKind kind, const SeedSpec& spec,
                             std::size_t length);

  // Registry statistics (also mirrored into the telemetry registry under
  // machine.stream_table_*).
  std::uint64_t hits() const noexcept { return hits_.load(); }
  std::uint64_t misses() const noexcept { return misses_.load(); }
  std::uint64_t fallbacks() const noexcept { return fallbacks_.load(); }
  std::uint64_t total_bytes() const noexcept { return bytes_.load(); }
  std::size_t size() const;

  // Drops every table. Test-only: callers must not hold pointers returned by
  // acquire() across a clear().
  void clear();

 private:
  StreamTableRegistry();

  struct Entry;

  std::optional<StreamTableKey> canonical_key(RngKind kind,
                                              const SeedSpec& spec,
                                              std::size_t length) const;

  mutable std::shared_mutex mu_;
  std::unordered_map<StreamTableKey, std::unique_ptr<Entry>,
                     StreamTableKeyHash>
      map_;
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> fallbacks_{0};
};

// Reusable stream writer: the one front-end every stream producer goes
// through. Serves table hits as word-wise copies and everything else through
// a reusable (allocation-free after first use) Sng / ProgressiveSng tick
// path that is bit-identical to constructing a fresh generator per stream.
// Not thread-safe; use local() for a per-thread instance.
class StreamGenerator {
 public:
  StreamGenerator() = default;

  // The calling thread's generator (reused across streams and layers).
  static StreamGenerator& local();

  // Writes the plain-SNG stream for comparator value `vn` (already in the
  // 2^spec.bits domain) into dst by OR-ing bits in: dst[0..wpl) MUST be
  // zeroed by the caller, and wpl must equal ceil(length / 64).
  void generate(std::uint64_t* dst, std::size_t wpl, std::size_t length,
                RngKind kind, const SeedSpec& spec, std::uint32_t vn,
                bool use_table);

  // Same for a progressive SNG: `value` is in the schedule's value_bits
  // domain; the table path composes segment-wise row copies between load
  // beats.
  void generate_progressive(std::uint64_t* dst, std::size_t wpl,
                            std::size_t length, RngKind kind,
                            const SeedSpec& spec,
                            const ProgressiveSchedule& sched,
                            std::uint32_t value, bool use_table);

 private:
  Sng& plain(RngKind kind, const SeedSpec& spec);
  ProgressiveSng& progressive(RngKind kind, const SeedSpec& spec,
                              const ProgressiveSchedule& sched);

  static constexpr std::size_t kKinds = 4;
  std::unique_ptr<Sng> sng_[kKinds];
  std::unique_ptr<ProgressiveSng> prog_[kKinds];
};

}  // namespace geo::sc
