// Process-wide environment knobs: RNG seeding (GEO_SEED) and checked
// integer parsing for every numeric GEO_* variable.
//
// Every stochastic knob in the stack — the trainer's shuffle order, the
// bench model initializers, and the fault model's per-site RNG — derives its
// state through `seed_or`, so one documented environment variable reseeds
// the whole pipeline coherently:
//
//   GEO_SEED=<uint64>   master seed; unset keeps each component's historical
//                       default (bit-identical to builds before this knob)
//
// Components pass a `domain` string so different consumers of the same
// master seed stay decorrelated.
//
// Integer knobs (GEO_THREADS, GEO_STREAM_TABLE, GEO_CRASH_AFTER_EPOCH, the
// GEO_BENCH_* sizes) go through `env_int`: a strict whole-string parse where
// malformed or out-of-range values are reported once per variable on stderr
// and then ignored, mirroring the `global_seed` contract. Silent `atoi`
// fallbacks (garbage -> 0, UB on overflow) are a bug; don't add new ones.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace geo::core {

// The GEO_SEED value, parsed once per process (empty/garbage counts as
// unset; a parse failure is reported once on stderr).
std::optional<std::uint64_t> global_seed();

// `fallback` when GEO_SEED is unset; otherwise a 64-bit value derived
// deterministically from (GEO_SEED, domain).
std::uint64_t seed_or(std::uint64_t fallback, std::string_view domain);

// Stateless 64-bit mix (splitmix64 finalizer) — shared by the seed
// derivation and the fault model's per-site RNG.
std::uint64_t mix64(std::uint64_t x) noexcept;

// Strict whole-string base-10 parses: no leading/trailing junk, no empty
// input; nullopt on any failure (including overflow). `parse_int` accepts a
// leading '-'.
std::optional<std::uint64_t> parse_uint(std::string_view text);
std::optional<std::int64_t> parse_int(std::string_view text);

// Checked integer environment knob. Returns `fallback` when `name` is unset
// or empty. A malformed value, or one outside [lo, hi], is reported once per
// variable on stderr (like global_seed) and treated as unset. The variable
// is re-read on every call so tests can vary it; only the warning is
// deduplicated.
std::int64_t env_int(const char* name, std::int64_t fallback,
                     std::int64_t lo = INT64_MIN, std::int64_t hi = INT64_MAX);

}  // namespace geo::core
