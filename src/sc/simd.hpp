// Portable SIMD layer for the packed-bitstream hot paths.
//
// Every SC execution consumer — the SC accumulation core the machine and
// the nn reference share, sc::ops, the parallel counters, and the
// correlation statistics — reduces to a handful of word-parallel kernels
// over packed 64-bit stream words: AND-popcount MAC reduction, OR/XOR/AND
// block ops, fused OR-accumulate-of-products, and the row kernels of the
// row-broadcast MAC (one stream against many rows). This header is the one
// dispatch point for those kernels: an AVX2 backend (x86-64), a NEON
// backend (aarch64), and a scalar fallback that is the reference
// implementation everywhere else.
//
// Bit-exactness contract: every backend returns *identical* results for
// identical inputs — the kernels are pure integer bit arithmetic, so there
// is nothing to round. The simd test suite (ctest -L simd) asserts kernel
// parity across backends on adversarial sizes and that whole conv runs are
// byte-identical under every GEO_SIMD setting.
//
// Tail handling: kernels take an explicit word count `n` and process the
// trailing `n % lanes` words through the scalar reference path, so callers
// never pad. Stream tails beyond the logical bit length are kept zero by
// Bitstream::mask_tail(), which keeps popcount-style reductions exact.
//
// Knob (see docs/SIMD.md):
//   GEO_SIMD = auto|avx2|neon|scalar   backend selection (default auto).
//   Sampled once per process on first use (the resolved table pointer sits
//   on every hot path). A malformed value, or a backend the CPU cannot
//   execute, is reported once on stderr, recorded as a `config.invalid`
//   journal entry, and falls closed to the scalar backend.
#pragma once

#include <cstddef>
#include <cstdint>

namespace geo::sc::simd {

enum class Backend { kScalar, kAvx2, kNeon };

const char* to_string(Backend backend) noexcept;

// The best backend this CPU can execute (compile-time ISA + runtime CPUID).
Backend detect_best() noexcept;

// The active backend: GEO_SIMD resolved against detect_best(), cached after
// the first call; ScopedSimdBackend overrides it for tests.
Backend active() noexcept;

// ---- reductions ----------------------------------------------------------

// popcount(w[0..n)).
std::uint64_t popcount_words(const std::uint64_t* w, std::size_t n) noexcept;

// popcount(a & b) over n words — the unipolar multiply-count.
std::uint64_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) noexcept;

// popcount(a | b) over n words (the APC stage's OR-merge count).
std::uint64_t or_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t n) noexcept;

// ---- block ops -----------------------------------------------------------

void and_into(std::uint64_t* dst, const std::uint64_t* src,
              std::size_t n) noexcept;
void or_into(std::uint64_t* dst, const std::uint64_t* src,
             std::size_t n) noexcept;
void xor_into(std::uint64_t* dst, const std::uint64_t* src,
              std::size_t n) noexcept;

// dst |= a & b over n words — the OR-accumulation of one product stream
// into its group accumulator, fused so the product is never materialized.
void or_and_into(std::uint64_t* dst, const std::uint64_t* a,
                 const std::uint64_t* b, std::size_t n) noexcept;

// ---- row kernels ---------------------------------------------------------
//
// `rows` streams of `wpl` words each, stored back to back (row r at r*wpl).
// They serve the row-broadcast MAC of the shared SC accumulation core: one
// activation stream feeds every output channel of a tile, as one activation
// SNG feeds every MAC row in GEO.

// dst[r] |= a & w[r] for every row: the broadcast operand `a` (wpl words)
// is ANDed with each weight row and ORed into that row's accumulator.
void or_and_rows(std::uint64_t* dst, const std::uint64_t* a,
                 const std::uint64_t* w, std::size_t rows,
                 std::size_t wpl) noexcept;

// out[r] = popcount(w[r]) for every row — the per-channel counts whose
// pos − neg difference is an output's counter.
void popcount_rows(std::uint64_t* out, const std::uint64_t* w,
                   std::size_t rows, std::size_t wpl) noexcept;

// ---- test hook -----------------------------------------------------------

// Forces a backend process-wide for the scope's lifetime (parity tests
// compare backends within one process). Requesting a backend the CPU cannot
// execute falls back to scalar, mirroring the env parse. Not thread-safe
// against concurrent kernel callers mid-swap; use from quiesced test code.
class ScopedSimdBackend {
 public:
  explicit ScopedSimdBackend(Backend backend);
  ~ScopedSimdBackend();
  ScopedSimdBackend(const ScopedSimdBackend&) = delete;
  ScopedSimdBackend& operator=(const ScopedSimdBackend&) = delete;

 private:
  Backend previous_;
};

}  // namespace geo::sc::simd
