// Backend parity for the sc::simd kernels (ctest -L simd).
//
// The bit-exactness contract: every backend (scalar / AVX2 / NEON) returns
// identical results for identical inputs. These tests pin that on
// adversarial word counts — empty, single-word, one short of the vector
// width, the width itself, one past it, one past the deferred-accumulate
// block boundary — against an independent reference computed with plain
// std::popcount loops.
#include "sc/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/journal.hpp"

namespace geo::sc::simd {
namespace {

// One short of / exactly / one past the AVX2 width (4 words) and the
// deferred-SAD block (31 * 4 words), plus an odd large size.
constexpr std::size_t kSizes[] = {0,  1,  2,   3,   4,   5,   7,  8,
                                  31, 32, 33,  63,  64,  123, 124, 125,
                                  128, 257, 1000};

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> w(n);
  for (auto& x : w) x = rng();
  return w;
}

// The backends worth testing on this machine: scalar always, plus whatever
// detect_best() resolves to (requesting an unsupported backend through
// ScopedSimdBackend falls back to scalar, so the list never lies).
std::vector<Backend> backends_under_test() {
  std::vector<Backend> b{Backend::kScalar};
  if (detect_best() != Backend::kScalar) b.push_back(detect_best());
  return b;
}

TEST(SimdKernels, ReductionParityAcrossBackends) {
  for (const std::size_t n : kSizes) {
    const auto a = random_words(n, 0x9e3779b97f4a7c15ull + n);
    const auto p = random_words(n, 0xbf58476d1ce4e5b9ull + n);

    // Independent scalar reference.
    std::uint64_t ref_pop = 0, ref_and = 0, ref_or = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ref_pop += static_cast<std::uint64_t>(std::popcount(a[i]));
      ref_and += static_cast<std::uint64_t>(std::popcount(a[i] & p[i]));
      ref_or += static_cast<std::uint64_t>(std::popcount(a[i] | p[i]));
    }

    for (const Backend b : backends_under_test()) {
      ScopedSimdBackend scope(b);
      ASSERT_EQ(active(), b);
      EXPECT_EQ(popcount_words(a.data(), n), ref_pop)
          << to_string(b) << " n=" << n;
      EXPECT_EQ(and_popcount(a.data(), p.data(), n), ref_and)
          << to_string(b) << " n=" << n;
      EXPECT_EQ(or_popcount(a.data(), p.data(), n), ref_or)
          << to_string(b) << " n=" << n;
    }
  }
}

TEST(SimdKernels, BlockOpParityAcrossBackends) {
  for (const std::size_t n : kSizes) {
    const auto base = random_words(n, 17 + n);
    const auto src = random_words(n, 31 + n);
    const auto aux = random_words(n, 47 + n);

    std::vector<std::uint64_t> ref_and(n), ref_or(n), ref_xor(n),
        ref_or_and(n);
    for (std::size_t i = 0; i < n; ++i) {
      ref_and[i] = base[i] & src[i];
      ref_or[i] = base[i] | src[i];
      ref_xor[i] = base[i] ^ src[i];
      ref_or_and[i] = base[i] | (src[i] & aux[i]);
    }

    for (const Backend b : backends_under_test()) {
      ScopedSimdBackend scope(b);
      auto d1 = base, d2 = base, d3 = base, d4 = base;
      and_into(d1.data(), src.data(), n);
      or_into(d2.data(), src.data(), n);
      xor_into(d3.data(), src.data(), n);
      or_and_into(d4.data(), src.data(), aux.data(), n);
      EXPECT_EQ(d1, ref_and) << to_string(b) << " n=" << n;
      EXPECT_EQ(d2, ref_or) << to_string(b) << " n=" << n;
      EXPECT_EQ(d3, ref_xor) << to_string(b) << " n=" << n;
      EXPECT_EQ(d4, ref_or_and) << to_string(b) << " n=" << n;
    }
  }
}

// The row kernels of the row-broadcast MAC: channel counts around the AVX2
// (4 one-word rows, 2 two-word rows) and NEON (2 rows) vector widths, and
// row widths on each side of the vectorized one- and two-word cases.
TEST(SimdKernels, RowKernelParityAcrossBackends) {
  for (const std::size_t rows : {0, 1, 3, 4, 5, 63, 64, 65}) {
    for (const std::size_t wpl : {1, 2, 4}) {
      const std::size_t n = rows * wpl;
      const auto base = random_words(n, 101 + n + wpl);
      const auto w = random_words(n, 211 + n + wpl);
      const auto a = random_words(wpl, 307 + wpl);

      std::vector<std::uint64_t> ref_or_and(n), ref_pop(rows);
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t i = 0; i < wpl; ++i) {
          const std::size_t k = r * wpl + i;
          ref_or_and[k] = base[k] | (a[i] & w[k]);
          ref_pop[r] += static_cast<std::uint64_t>(std::popcount(w[k]));
        }

      for (const Backend b : backends_under_test()) {
        ScopedSimdBackend scope(b);
        auto dst = base;
        or_and_rows(dst.data(), a.data(), w.data(), rows, wpl);
        EXPECT_EQ(dst, ref_or_and)
            << to_string(b) << " rows=" << rows << " wpl=" << wpl;
        // One slot past the rows catches a store beyond the last count.
        std::vector<std::uint64_t> pop(rows + 1, 0xdeadbeefull);
        popcount_rows(pop.data(), w.data(), rows, wpl);
        EXPECT_EQ(pop.back(), 0xdeadbeefull) << to_string(b);
        pop.pop_back();
        EXPECT_EQ(pop, ref_pop)
            << to_string(b) << " rows=" << rows << " wpl=" << wpl;
      }
    }
  }
}

TEST(SimdBackend, DetectBestIsExecutable) {
  // Whatever auto resolves to must actually run (a crash here would mean
  // the CPUID gate and the kernel ISA disagree).
  const Backend best = detect_best();
  ScopedSimdBackend scope(best);
  EXPECT_EQ(active(), best);
  const auto w = random_words(64, 7);
  std::uint64_t ref = 0;
  for (const auto x : w) ref += static_cast<std::uint64_t>(std::popcount(x));
  EXPECT_EQ(popcount_words(w.data(), w.size()), ref);
}

TEST(SimdBackend, ScopedOverrideRestoresPrevious) {
  const Backend before = active();
  {
    ScopedSimdBackend scope(Backend::kScalar);
    EXPECT_EQ(active(), Backend::kScalar);
  }
  EXPECT_EQ(active(), before);
}

TEST(SimdBackend, UnsupportedRequestFallsBackToScalar) {
#if defined(__x86_64__) || defined(_M_X64)
  const Backend impossible = Backend::kNeon;
#else
  const Backend impossible = Backend::kAvx2;
#endif
  ScopedSimdBackend scope(impossible);
  EXPECT_EQ(active(), Backend::kScalar);
}

// GEO_SIMD is fail-closed: a value that names no backend runs scalar and
// leaves a config.invalid journal entry. The variable is resolved once per
// process, so this runs as its own ctest entry under GEO_SIMD=bogus
// (SimdBackend.BogusEnvRunsScalar in tests/CMakeLists.txt) and skips in
// every other run.
TEST(SimdBackend, MalformedEnvFallsBackToScalar) {
  const char* env = std::getenv("GEO_SIMD");
  if (env == nullptr || std::string_view(env) != "bogus")
    GTEST_SKIP() << "needs GEO_SIMD=bogus in a fresh process";
  auto& journal = telemetry::Journal::instance();
  const std::string path =
      (std::filesystem::temp_directory_path() / "geo_simd_env.jsonl").string();
  journal.disable();
  journal.enable(path, 64);

  EXPECT_EQ(active(), Backend::kScalar);
  bool found = false;
  for (const auto& e : journal.snapshot())
    found |= e.kind == "config.invalid" && e.label == "GEO_SIMD";
  EXPECT_TRUE(found);

  journal.disable();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace geo::sc::simd
