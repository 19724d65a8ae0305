#include "sc/simd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "telemetry/journal.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define GEO_SIMD_HAVE_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define GEO_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace geo::sc::simd {

namespace {

// Per-backend kernel table. One pointer load on the hot path; the scalar
// table is the reference implementation every other backend must match
// bit-for-bit (asserted by the simd test suite).
struct Ops {
  std::uint64_t (*popcount)(const std::uint64_t*, std::size_t);
  std::uint64_t (*and_popcount)(const std::uint64_t*, const std::uint64_t*,
                                std::size_t);
  std::uint64_t (*or_popcount)(const std::uint64_t*, const std::uint64_t*,
                               std::size_t);
  std::int64_t (*mac_popcount)(const std::uint64_t*, const std::uint64_t*,
                               const std::uint64_t*, std::size_t);
  void (*and_into)(std::uint64_t*, const std::uint64_t*, std::size_t);
  void (*or_into)(std::uint64_t*, const std::uint64_t*, std::size_t);
  void (*xor_into)(std::uint64_t*, const std::uint64_t*, std::size_t);
  void (*or_and_into)(std::uint64_t*, const std::uint64_t*,
                      const std::uint64_t*, std::size_t);
  void (*or_and_rows)(std::uint64_t*, const std::uint64_t*,
                      const std::uint64_t*, std::size_t, std::size_t);
  void (*popcount_rows)(std::uint64_t*, const std::uint64_t*, std::size_t,
                        std::size_t);
};

// ------------------------------------------------------------ scalar

namespace scalar {

std::uint64_t popcount(const std::uint64_t* w, std::size_t n) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < n; ++i)
    c += static_cast<std::uint64_t>(std::popcount(w[i]));
  return c;
}

std::uint64_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < n; ++i)
    c += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  return c;
}

std::uint64_t or_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t n) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < n; ++i)
    c += static_cast<std::uint64_t>(std::popcount(a[i] | b[i]));
  return c;
}

std::int64_t mac_popcount(const std::uint64_t* a, const std::uint64_t* wp,
                          const std::uint64_t* wn, std::size_t n) {
  std::int64_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += std::popcount(a[i] & wp[i]);
    c -= std::popcount(a[i] & wn[i]);
  }
  return c;
}

void and_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

void or_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

void xor_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

void or_and_into(std::uint64_t* dst, const std::uint64_t* a,
                 const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] |= a[i] & b[i];
}

void or_and_rows(std::uint64_t* dst, const std::uint64_t* a,
                 const std::uint64_t* w, std::size_t rows, std::size_t wpl) {
  for (std::size_t r = 0; r < rows; ++r, dst += wpl, w += wpl)
    for (std::size_t i = 0; i < wpl; ++i) dst[i] |= a[i] & w[i];
}

void popcount_rows(std::uint64_t* out, const std::uint64_t* w,
                   std::size_t rows, std::size_t wpl) {
  for (std::size_t r = 0; r < rows; ++r, w += wpl) out[r] = popcount(w, wpl);
}

constexpr Ops kOps = {popcount,      and_popcount, or_popcount,
                      mac_popcount,  and_into,     or_into,
                      xor_into,      or_and_into,  or_and_rows,
                      popcount_rows};

}  // namespace scalar

// -------------------------------------------------------------- AVX2
//
// Compiled with per-function target attributes so the translation unit
// builds (and the binary runs) on any x86-64; the AVX2 paths are only ever
// *called* after a runtime CPUID check. Popcount uses the pshufb nibble
// lookup with deferred _mm256_sad_epu8: per-byte counts of one 256-bit
// vector are at most 8, so up to 31 vectors (124 words) accumulate in the
// 8-bit lanes before one SAD folds them into 64-bit partials.

#if GEO_SIMD_HAVE_X86

__attribute__((target("avx2"))) inline __m256i nibble_counts(
    __m256i v) noexcept {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi =
      _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

__attribute__((target("avx2"))) inline std::uint64_t hsum_epi64(
    __m256i v) noexcept {
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

__attribute__((target("avx2"))) inline __m256i loadu(
    const std::uint64_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

namespace avx2 {

__attribute__((target("avx2"))) std::uint64_t popcount(const std::uint64_t* w,
                                                       std::size_t n) {
  __m256i total = _mm256_setzero_si256();
  std::size_t i = 0;
  while (n - i >= 4) {
    const std::size_t block = std::min<std::size_t>((n - i) / 4, 31);
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t k = 0; k < block; ++k, i += 4)
      acc = _mm256_add_epi8(acc, nibble_counts(loadu(w + i)));
    total = _mm256_add_epi64(total,
                             _mm256_sad_epu8(acc, _mm256_setzero_si256()));
  }
  std::uint64_t out = hsum_epi64(total);
  for (; i < n; ++i) out += static_cast<std::uint64_t>(std::popcount(w[i]));
  return out;
}

__attribute__((target("avx2"))) std::uint64_t and_popcount(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  __m256i total = _mm256_setzero_si256();
  std::size_t i = 0;
  while (n - i >= 4) {
    const std::size_t block = std::min<std::size_t>((n - i) / 4, 31);
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t k = 0; k < block; ++k, i += 4)
      acc = _mm256_add_epi8(
          acc, nibble_counts(_mm256_and_si256(loadu(a + i), loadu(b + i))));
    total = _mm256_add_epi64(total,
                             _mm256_sad_epu8(acc, _mm256_setzero_si256()));
  }
  std::uint64_t out = hsum_epi64(total);
  for (; i < n; ++i)
    out += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  return out;
}

__attribute__((target("avx2"))) std::uint64_t or_popcount(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  __m256i total = _mm256_setzero_si256();
  std::size_t i = 0;
  while (n - i >= 4) {
    const std::size_t block = std::min<std::size_t>((n - i) / 4, 31);
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t k = 0; k < block; ++k, i += 4)
      acc = _mm256_add_epi8(
          acc, nibble_counts(_mm256_or_si256(loadu(a + i), loadu(b + i))));
    total = _mm256_add_epi64(total,
                             _mm256_sad_epu8(acc, _mm256_setzero_si256()));
  }
  std::uint64_t out = hsum_epi64(total);
  for (; i < n; ++i)
    out += static_cast<std::uint64_t>(std::popcount(a[i] | b[i]));
  return out;
}

__attribute__((target("avx2"))) std::int64_t mac_popcount(
    const std::uint64_t* a, const std::uint64_t* wp, const std::uint64_t* wn,
    std::size_t n) {
  __m256i pos = _mm256_setzero_si256();
  __m256i neg = _mm256_setzero_si256();
  std::size_t i = 0;
  while (n - i >= 4) {
    const std::size_t block = std::min<std::size_t>((n - i) / 4, 31);
    __m256i accp = _mm256_setzero_si256();
    __m256i accn = _mm256_setzero_si256();
    for (std::size_t k = 0; k < block; ++k, i += 4) {
      const __m256i act = loadu(a + i);
      accp = _mm256_add_epi8(
          accp, nibble_counts(_mm256_and_si256(act, loadu(wp + i))));
      accn = _mm256_add_epi8(
          accn, nibble_counts(_mm256_and_si256(act, loadu(wn + i))));
    }
    pos = _mm256_add_epi64(pos,
                           _mm256_sad_epu8(accp, _mm256_setzero_si256()));
    neg = _mm256_add_epi64(neg,
                           _mm256_sad_epu8(accn, _mm256_setzero_si256()));
  }
  std::int64_t out = static_cast<std::int64_t>(hsum_epi64(pos)) -
                     static_cast<std::int64_t>(hsum_epi64(neg));
  for (; i < n; ++i) {
    out += std::popcount(a[i] & wp[i]);
    out -= std::popcount(a[i] & wn[i]);
  }
  return out;
}

__attribute__((target("avx2"))) void and_into(std::uint64_t* dst,
                                              const std::uint64_t* src,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(loadu(dst + i), loadu(src + i)));
  for (; i < n; ++i) dst[i] &= src[i];
}

__attribute__((target("avx2"))) void or_into(std::uint64_t* dst,
                                             const std::uint64_t* src,
                                             std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(loadu(dst + i), loadu(src + i)));
  for (; i < n; ++i) dst[i] |= src[i];
}

__attribute__((target("avx2"))) void xor_into(std::uint64_t* dst,
                                              const std::uint64_t* src,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(loadu(dst + i), loadu(src + i)));
  for (; i < n; ++i) dst[i] ^= src[i];
}

__attribute__((target("avx2"))) void or_and_into(std::uint64_t* dst,
                                                 const std::uint64_t* a,
                                                 const std::uint64_t* b,
                                                 std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_or_si256(loadu(dst + i),
                        _mm256_and_si256(loadu(a + i), loadu(b + i))));
  for (; i < n; ++i) dst[i] |= a[i] & b[i];
}

// One-word rows take four rows per vector against a broadcast word,
// two-word rows two rows against a broadcast pair; longer rows run the
// one-row kernel per row. The rows left over fall to the scalar reference.
__attribute__((target("avx2"))) void or_and_rows(std::uint64_t* dst,
                                                 const std::uint64_t* a,
                                                 const std::uint64_t* w,
                                                 std::size_t rows,
                                                 std::size_t wpl) {
  if (wpl == 0 || wpl > 2) {
    for (std::size_t r = 0; r < rows; ++r)
      or_and_into(dst + r * wpl, a, w + r * wpl, wpl);
    return;
  }
  const __m256i act =
      wpl == 1 ? _mm256_set1_epi64x(static_cast<long long>(a[0]))
               : _mm256_broadcastsi128_si256(
                     _mm_loadu_si128(reinterpret_cast<const __m128i*>(a)));
  const std::size_t n = rows * wpl;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_or_si256(loadu(dst + i), _mm256_and_si256(act, loadu(w + i))));
  scalar::or_and_rows(dst + i, a, w + i, (n - i) / wpl, wpl);
}

// Per-row counts straight from the SAD partials: a one-word row is one
// 64-bit lane, a two-word row the sum of a lane pair.
__attribute__((target("avx2"))) void popcount_rows(std::uint64_t* out,
                                                   const std::uint64_t* w,
                                                   std::size_t rows,
                                                   std::size_t wpl) {
  if (wpl == 0 || wpl > 2) {
    for (std::size_t r = 0; r < rows; ++r) out[r] = popcount(w + r * wpl, wpl);
    return;
  }
  const std::size_t n = rows * wpl;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i c = _mm256_sad_epu8(nibble_counts(loadu(w + i)),
                                _mm256_setzero_si256());
    if (wpl == 1) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), c);
    } else {
      alignas(32) std::uint64_t lanes[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), c);
      out[i / 2] = lanes[0] + lanes[1];
      out[i / 2 + 1] = lanes[2] + lanes[3];
    }
  }
  scalar::popcount_rows(out + i / wpl, w + i, (n - i) / wpl, wpl);
}

constexpr Ops kOps = {popcount,      and_popcount, or_popcount,
                      mac_popcount,  and_into,     or_into,
                      xor_into,      or_and_into,  or_and_rows,
                      popcount_rows};

}  // namespace avx2

#endif  // GEO_SIMD_HAVE_X86

// -------------------------------------------------------------- NEON
//
// aarch64 NEON is baseline, so no runtime detection or target attributes
// are needed: vcntq_u8 counts per byte, then a pairwise-widen chain folds
// into 64-bit lanes per vector (128-bit vectors, so the deferred-fold trick
// buys less; the simple chain keeps the kernel obviously exact).

#if GEO_SIMD_HAVE_NEON

namespace neon {

inline std::uint64_t fold_count(uint8x16_t bytes) noexcept {
  return vaddvq_u64(vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(bytes)))));
}

std::uint64_t popcount(const std::uint64_t* w, std::size_t n) {
  std::uint64_t out = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    out += fold_count(vreinterpretq_u8_u64(vld1q_u64(w + i)));
  for (; i < n; ++i) out += static_cast<std::uint64_t>(std::popcount(w[i]));
  return out;
}

std::uint64_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
  std::uint64_t out = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    out += fold_count(
        vreinterpretq_u8_u64(vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i))));
  for (; i < n; ++i)
    out += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  return out;
}

std::uint64_t or_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t n) {
  std::uint64_t out = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    out += fold_count(
        vreinterpretq_u8_u64(vorrq_u64(vld1q_u64(a + i), vld1q_u64(b + i))));
  for (; i < n; ++i)
    out += static_cast<std::uint64_t>(std::popcount(a[i] | b[i]));
  return out;
}

std::int64_t mac_popcount(const std::uint64_t* a, const std::uint64_t* wp,
                          const std::uint64_t* wn, std::size_t n) {
  std::int64_t out = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t act = vld1q_u64(a + i);
    out += static_cast<std::int64_t>(
        fold_count(vreinterpretq_u8_u64(vandq_u64(act, vld1q_u64(wp + i)))));
    out -= static_cast<std::int64_t>(
        fold_count(vreinterpretq_u8_u64(vandq_u64(act, vld1q_u64(wn + i)))));
  }
  for (; i < n; ++i) {
    out += std::popcount(a[i] & wp[i]);
    out -= std::popcount(a[i] & wn[i]);
  }
  return out;
}

void and_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_u64(dst + i, vandq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  for (; i < n; ++i) dst[i] &= src[i];
}

void or_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_u64(dst + i, vorrq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  for (; i < n; ++i) dst[i] |= src[i];
}

void xor_into(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_u64(dst + i, veorq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  for (; i < n; ++i) dst[i] ^= src[i];
}

void or_and_into(std::uint64_t* dst, const std::uint64_t* a,
                 const std::uint64_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_u64(dst + i,
              vorrq_u64(vld1q_u64(dst + i),
                        vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i))));
  for (; i < n; ++i) dst[i] |= a[i] & b[i];
}

// One-word rows take two rows per vector against a broadcast word;
// longer rows run the one-row kernel per row.
void or_and_rows(std::uint64_t* dst, const std::uint64_t* a,
                 const std::uint64_t* w, std::size_t rows, std::size_t wpl) {
  if (wpl != 1) {
    for (std::size_t r = 0; r < rows; ++r)
      or_and_into(dst + r * wpl, a, w + r * wpl, wpl);
    return;
  }
  const uint64x2_t act = vdupq_n_u64(a[0]);
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2)
    vst1q_u64(dst + r, vorrq_u64(vld1q_u64(dst + r),
                                 vandq_u64(act, vld1q_u64(w + r))));
  for (; r < rows; ++r) dst[r] |= a[0] & w[r];
}

// One-word rows: the pairwise-widen chain stops at one count per 64-bit
// lane, i.e. per row.
void popcount_rows(std::uint64_t* out, const std::uint64_t* w,
                   std::size_t rows, std::size_t wpl) {
  if (wpl != 1) {
    for (std::size_t r = 0; r < rows; ++r) out[r] = popcount(w + r * wpl, wpl);
    return;
  }
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2)
    vst1q_u64(out + r,
              vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(
                  vcntq_u8(vreinterpretq_u8_u64(vld1q_u64(w + r)))))));
  for (; r < rows; ++r)
    out[r] = static_cast<std::uint64_t>(std::popcount(w[r]));
}

constexpr Ops kOps = {popcount,      and_popcount, or_popcount,
                      mac_popcount,  and_into,     or_into,
                      xor_into,      or_and_into,  or_and_rows,
                      popcount_rows};

}  // namespace neon

#endif  // GEO_SIMD_HAVE_NEON

// ---------------------------------------------------------- dispatch

bool backend_supported(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if GEO_SIMD_HAVE_X86
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Backend::kNeon:
#if GEO_SIMD_HAVE_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

const Ops* ops_for(Backend backend) noexcept {
  switch (backend) {
#if GEO_SIMD_HAVE_X86
    case Backend::kAvx2:
      return &avx2::kOps;
#endif
#if GEO_SIMD_HAVE_NEON
    case Backend::kNeon:
      return &neon::kOps;
#endif
    default:
      return &scalar::kOps;
  }
}

std::atomic<const Ops*> g_ops{nullptr};
std::atomic<Backend> g_backend{Backend::kScalar};

void reject(const char* value, const char* what) {
  std::fprintf(stderr,
               "[geo] GEO_SIMD=%s %s; using the scalar backend\n", value,
               what);
  if (auto& journal = telemetry::Journal::instance(); journal.enabled())
    journal.record("config.invalid", "GEO_SIMD", {}, what);
}

// GEO_SIMD -> backend, fail-closed: auto/unset picks the best supported
// backend; an explicit backend must be executable on this CPU; anything
// else is rejected once (stderr + config.invalid journal entry) and runs
// scalar — never a crash, never a silent downgrade.
Backend resolve_from_env() {
  const char* v = std::getenv("GEO_SIMD");
  const std::string_view s = v != nullptr ? v : "";
  if (s.empty() || s == "auto") return detect_best();
  if (s == "scalar") return Backend::kScalar;
  if (s == "avx2" || s == "neon") {
    const Backend want = s == "avx2" ? Backend::kAvx2 : Backend::kNeon;
    if (backend_supported(want)) return want;
    reject(v, "names a backend this CPU cannot execute");
    return Backend::kScalar;
  }
  reject(v, "is not one of auto|avx2|neon|scalar");
  return Backend::kScalar;
}

void set_backend(Backend backend) noexcept {
  g_backend.store(backend, std::memory_order_relaxed);
  g_ops.store(ops_for(backend), std::memory_order_release);
}

void resolve_once() {
  static const bool done = [] {
    set_backend(resolve_from_env());
    return true;
  }();
  (void)done;
}

inline const Ops& ops() noexcept {
  const Ops* o = g_ops.load(std::memory_order_acquire);
  if (o == nullptr) {
    resolve_once();
    o = g_ops.load(std::memory_order_acquire);
  }
  return *o;
}

}  // namespace

const char* to_string(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "?";
}

Backend detect_best() noexcept {
#if GEO_SIMD_HAVE_X86
  if (__builtin_cpu_supports("avx2")) return Backend::kAvx2;
#endif
#if GEO_SIMD_HAVE_NEON
  return Backend::kNeon;
#endif
  return Backend::kScalar;
}

Backend active() noexcept {
  resolve_once();
  return g_backend.load(std::memory_order_relaxed);
}

std::uint64_t popcount_words(const std::uint64_t* w, std::size_t n) noexcept {
  return ops().popcount(w, n);
}

std::uint64_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) noexcept {
  return ops().and_popcount(a, b, n);
}

std::uint64_t or_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t n) noexcept {
  return ops().or_popcount(a, b, n);
}

std::int64_t mac_popcount(const std::uint64_t* a, const std::uint64_t* wp,
                          const std::uint64_t* wn, std::size_t n) noexcept {
  return ops().mac_popcount(a, wp, wn, n);
}

void and_into(std::uint64_t* dst, const std::uint64_t* src,
              std::size_t n) noexcept {
  ops().and_into(dst, src, n);
}

void or_into(std::uint64_t* dst, const std::uint64_t* src,
             std::size_t n) noexcept {
  ops().or_into(dst, src, n);
}

void xor_into(std::uint64_t* dst, const std::uint64_t* src,
              std::size_t n) noexcept {
  ops().xor_into(dst, src, n);
}

void or_and_into(std::uint64_t* dst, const std::uint64_t* a,
                 const std::uint64_t* b, std::size_t n) noexcept {
  ops().or_and_into(dst, a, b, n);
}

void or_and_rows(std::uint64_t* dst, const std::uint64_t* a,
                 const std::uint64_t* w, std::size_t rows,
                 std::size_t wpl) noexcept {
  ops().or_and_rows(dst, a, w, rows, wpl);
}

void popcount_rows(std::uint64_t* out, const std::uint64_t* w,
                   std::size_t rows, std::size_t wpl) noexcept {
  ops().popcount_rows(out, w, rows, wpl);
}

ScopedSimdBackend::ScopedSimdBackend(Backend backend) : previous_(active()) {
  set_backend(backend_supported(backend) ? backend : Backend::kScalar);
}

ScopedSimdBackend::~ScopedSimdBackend() { set_backend(previous_); }

}  // namespace geo::sc::simd
