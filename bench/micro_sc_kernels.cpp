// google-benchmark microbenchmarks of the SC substrate hot paths: stream
// generation (LFSR vs TRNG vs Sobol, normal vs progressive), packed-word
// MAC/OR kernels, parallel counting, and a full SC conv layer forward.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "nn/sc_layers.hpp"
#include "sc/ops.hpp"
#include "sc/parallel_counter.hpp"
#include "sc/progressive.hpp"
#include "sc/simd.hpp"
#include "sc/sng.hpp"
#include "sc/stream_table.hpp"

namespace {

using namespace geo::sc;

void BM_StreamGeneration(benchmark::State& state) {
  const auto kind = static_cast<RngKind>(state.range(0));
  const auto len = static_cast<std::size_t>(state.range(1));
  Sng sng(kind, SeedSpec{.bits = 8, .seed = 7});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sng.generate(100, len));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(len));
  state.SetLabel(std::string(to_string(kind)) + "/" + std::to_string(len));
}
BENCHMARK(BM_StreamGeneration)
    ->Args({static_cast<long>(RngKind::kLfsr), 128})
    ->Args({static_cast<long>(RngKind::kTrng), 128})
    ->Args({static_cast<long>(RngKind::kSobol), 128})
    ->Args({static_cast<long>(RngKind::kLfsr), 1024});

void BM_ProgressiveGeneration(benchmark::State& state) {
  const ProgressiveSchedule sched{.value_bits = 8, .lfsr_bits = 7};
  ProgressiveSng sng(RngKind::kLfsr, SeedSpec{.bits = 7, .seed = 3}, sched);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sng.generate(100, 128));
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_ProgressiveGeneration);

// The table-driven engine against its own tick fallback, plain and
// progressive, at the paper's n=8 / L=256 operating point (the PR's
// headline: a table hit is a 4-word copy instead of 256 LFSR ticks).
void BM_TableStreamGeneration(benchmark::State& state) {
  const bool use_table = state.range(0) != 0;
  const bool progressive = state.range(1) != 0;
  const std::size_t len = 256;
  const SeedSpec spec{.bits = 8, .seed = 7};
  const ProgressiveSchedule sched{};
  auto& gen = StreamGenerator::local();
  std::uint64_t dst[4];
  std::uint32_t v = 1;
  for (auto _ : state) {
    std::fill(dst, dst + 4, 0);
    if (progressive) {
      gen.generate_progressive(dst, 4, len, RngKind::kLfsr, spec, sched, v,
                               use_table);
    } else {
      gen.generate(dst, 4, len, RngKind::kLfsr, spec, v, use_table);
    }
    benchmark::DoNotOptimize(dst[0]);
    v = (v % 255) + 1;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(len));
  state.SetLabel(std::string(use_table ? "table" : "tick") +
                 (progressive ? "/progressive" : "/plain"));
}
BENCHMARK(BM_TableStreamGeneration)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

void BM_PackedMacOrAccumulate(benchmark::State& state) {
  // One OR-accumulation group: products ANDed and ORed at word level.
  const int taps = static_cast<int>(state.range(0));
  const std::size_t len = 128;
  Sng sng(RngKind::kLfsr, SeedSpec{.bits = 7, .seed = 5});
  std::vector<Bitstream> acts, wgts;
  for (int i = 0; i < taps; ++i) {
    acts.push_back(sng.generate(60 + static_cast<std::uint32_t>(i) % 40, len));
    wgts.push_back(sng.generate(30 + static_cast<std::uint32_t>(i) % 70, len));
  }
  for (auto _ : state) {
    Bitstream acc(len);
    for (int i = 0; i < taps; ++i)
      acc |= acts[static_cast<std::size_t>(i)] &
             wgts[static_cast<std::size_t>(i)];
    benchmark::DoNotOptimize(acc.popcount());
  }
  state.SetItemsProcessed(state.iterations() * taps *
                          static_cast<long>(len));
}
BENCHMARK(BM_PackedMacOrAccumulate)->Arg(9)->Arg(72)->Arg(400);

void BM_ParallelCount(benchmark::State& state) {
  const int streams = static_cast<int>(state.range(0));
  Sng sng(RngKind::kLfsr, SeedSpec{.bits = 8, .seed = 9});
  std::vector<Bitstream> s;
  for (int i = 0; i < streams; ++i)
    s.push_back(sng.generate(128, 256));
  for (auto _ : state) benchmark::DoNotOptimize(parallel_count(s));
}
BENCHMARK(BM_ParallelCount)->Arg(8)->Arg(64);

void BM_ApcCount(benchmark::State& state) {
  Sng sng(RngKind::kLfsr, SeedSpec{.bits = 8, .seed = 9});
  std::vector<Bitstream> s;
  for (int i = 0; i < 64; ++i) s.push_back(sng.generate(128, 256));
  for (auto _ : state) benchmark::DoNotOptimize(apc_count_total(s));
}
BENCHMARK(BM_ApcCount);

void BM_ScConvForward(benchmark::State& state) {
  using namespace geo::nn;
  const int stream_len = static_cast<int>(state.range(0));
  std::mt19937 rng(1);
  ScLayerConfig cfg;
  cfg.stream_len = stream_len;
  cfg.accum = AccumMode::kPbw;
  ScConv2d conv(8, 8, 3, 1, 1, rng, cfg);
  Tensor x({1, 8, 12, 12});
  std::mt19937 xr(2);
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  for (auto& v : x.data()) v = dist(xr);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x, false));
  state.SetLabel("stream " + std::to_string(stream_len));
}
BENCHMARK(BM_ScConvForward)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

// One window of the row-broadcast MAC (nn::ScAccumulator, kPbw) at CNN-4's
// shapes on the ULP fabric: 32 output channels, 64-bit streams (wpl = 1).
// conv1 has K = 75 taps in one kernel slice; conv2 has K = 800 taps run as
// two slices of macs_per_row = 400, like the machine's tile walk.
void BM_RowBroadcastMac(benchmark::State& state) {
  using namespace geo::nn;
  const int cin = static_cast<int>(state.range(0));
  const int hw = static_cast<int>(state.range(1));
  const int slices = static_cast<int>(state.range(2));
  constexpr int kCout = 32;
  constexpr std::size_t kLen = 64, kWpl = 1;
  const TapLayout layout =
      tap_layout(AccumMode::kPbw, ScShape{cin, hw, hw, kCout, 5, 5, 1, 0});
  const int K = layout.taps;
  std::mt19937_64 rng(11);
  // Random operands: activations ~1/2 dense, weights ~1/4 dense, each weight
  // on its positive or its negative channel.
  std::vector<std::uint64_t> act(static_cast<std::size_t>(K) * kWpl);
  std::vector<std::uint64_t> wpos(static_cast<std::size_t>(K) * kCout * kWpl);
  std::vector<std::uint64_t> wneg(wpos.size());
  for (auto& w : act) w = rng();
  for (std::size_t i = 0; i < wpos.size(); ++i) {
    const std::uint64_t w = rng() & rng();
    (rng() & 1 ? wpos : wneg)[i] = w;
  }
  std::vector<const std::uint64_t*> taps(static_cast<std::size_t>(K));
  for (int t = 0; t < K; ++t)
    taps[static_cast<std::size_t>(t)] = &act[static_cast<std::size_t>(t) * kWpl];
  ScAccumulator acc(layout, kLen, kCout, nullptr);
  std::vector<ScAccumulator::Sum> sums(kCout);
  for (auto _ : state) {
    std::int64_t total = 0;
    for (int p = 0; p < slices; ++p) {
      acc.accumulate(0, 1, p * K / slices, (p + 1) * K / slices, taps.data(),
                     wpos.data(), wneg.data(), sums);
      total += sums[0].counter;
    }
    benchmark::DoNotOptimize(total);
    benchmark::DoNotOptimize(sums.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * K * kCout);  // tap steps
  state.SetLabel(std::string(slices == 1 ? "conv1" : "conv2") + " K=" +
                 std::to_string(K) + " " +
                 geo::sc::simd::to_string(geo::sc::simd::active()));
}
BENCHMARK(BM_RowBroadcastMac)->Args({3, 32, 1})->Args({32, 16, 2});

// Directly measured streams/s for one engine configuration at n=8 / L=256.
// Kept outside google-benchmark so the table-vs-tick speedup always lands in
// BENCH_micro_sc_kernels.json, even under --benchmark_filter.
double measure_streams_per_s(bool progressive, bool use_table) {
  using clock = std::chrono::steady_clock;
  const std::size_t len = 256;
  const SeedSpec spec{.bits = 8, .seed = 7};
  const ProgressiveSchedule sched{};
  auto& gen = StreamGenerator::local();
  std::uint64_t dst[4];
  std::uint64_t sink = 0;
  std::uint32_t v = 1;
  auto one = [&] {
    std::fill(dst, dst + 4, 0);
    if (progressive) {
      gen.generate_progressive(dst, 4, len, RngKind::kLfsr, spec, sched, v,
                               use_table);
    } else {
      gen.generate(dst, 4, len, RngKind::kLfsr, spec, v, use_table);
    }
    sink ^= dst[0] ^ dst[3];
    v = (v % 255) + 1;
  };
  // Warm-up pays the one-time table build off the clock (it is amortized
  // over a whole layer in real runs) and faults the cache lines in.
  for (int i = 0; i < 2000; ++i) one();
  const int iters = use_table ? 400000 : 40000;
  const auto t0 = clock::now();
  for (int i = 0; i < iters; ++i) one();
  const auto t1 = clock::now();
  benchmark::DoNotOptimize(sink);
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return secs > 0.0 ? iters / secs : 0.0;
}

// ---- sc::simd kernel rates, scalar vs the best vector backend ------------

enum class SimdKernel { kPopcount, kAndPopcount, kOrAndInto };

const char* kernel_name(SimdKernel k) {
  switch (k) {
    case SimdKernel::kPopcount: return "popcount";
    case SimdKernel::kAndPopcount: return "and_popcount";
    case SimdKernel::kOrAndInto: return "or_and_into";
  }
  return "?";
}

// Words/s for one kernel under one backend. The working set (a MAC row of
// wpl = 64 words, L = 4096) mirrors the machine's inner loop and stays L1-
// resident, so this measures the kernel, not the memory system. Rotating
// through 8 input rows keeps the compiler from hoisting the reduction.
double measure_kernel_words_per_s(geo::sc::simd::Backend backend,
                                  SimdKernel kernel) {
  using clock = std::chrono::steady_clock;
  const geo::sc::simd::ScopedSimdBackend scope(backend);
  constexpr std::size_t kWpl = 64;
  constexpr std::size_t kRows = 8;
  std::mt19937_64 rng(42);
  std::vector<std::uint64_t> a(kRows * kWpl), wp(kRows * kWpl), dst(kWpl, 0);
  for (auto& x : a) x = rng();
  for (auto& x : wp) x = rng();
  std::uint64_t sink = 0;
  auto one = [&](std::size_t i) {
    const std::size_t row = (i % kRows) * kWpl;
    switch (kernel) {
      case SimdKernel::kPopcount:
        sink += geo::sc::simd::popcount_words(a.data() + row, kWpl);
        break;
      case SimdKernel::kAndPopcount:
        sink += geo::sc::simd::and_popcount(a.data() + row, wp.data() + row,
                                            kWpl);
        break;
      case SimdKernel::kOrAndInto:
        geo::sc::simd::or_and_into(dst.data(), a.data() + row,
                                   wp.data() + row, kWpl);
        sink += dst[row % kWpl];
        break;
    }
  };
  for (std::size_t i = 0; i < 20000; ++i) one(i);
  const std::size_t iters = 400000;
  const auto t0 = clock::now();
  for (std::size_t i = 0; i < iters; ++i) one(i);
  const auto t1 = clock::now();
  benchmark::DoNotOptimize(sink);
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return secs > 0.0 ? static_cast<double>(iters * kWpl) / secs : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  // Route the library's JSON reporter to a side file (unless the caller
  // already chose one) so BENCH_micro_sc_kernels.json can embed the raw
  // google-benchmark results alongside the metrics snapshot.
  bool caller_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0)
      caller_out = true;
  const std::string raw_path =
      (std::filesystem::temp_directory_path() / "geo_micro_sc_kernels.json")
          .string();
  std::string out_flag = "--benchmark_out=" + raw_path;
  std::string fmt_flag = "--benchmark_out_format=json";
  std::vector<char*> args(argv, argv + argc);
  if (!caller_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  geo::bench::BenchReport report("micro_sc_kernels");

  // Stream-generation section: table-vs-tick rates at n=8 / L=256 (the PR 5
  // acceptance metric is stream_table.plain_speedup >= 5).
  const double plain_tick = measure_streams_per_s(false, false);
  const double plain_table = measure_streams_per_s(false, true);
  const double prog_tick = measure_streams_per_s(true, false);
  const double prog_table = measure_streams_per_s(true, true);
  report.set("stream_table.bits", 8.0);
  report.set("stream_table.length", 256.0);
  report.set("stream_table.plain_tick_streams_per_s", plain_tick);
  report.set("stream_table.plain_table_streams_per_s", plain_table);
  report.set("stream_table.plain_speedup",
             plain_tick > 0.0 ? plain_table / plain_tick : 0.0);
  report.set("stream_table.progressive_tick_streams_per_s", prog_tick);
  report.set("stream_table.progressive_table_streams_per_s", prog_table);
  report.set("stream_table.progressive_speedup",
             prog_tick > 0.0 ? prog_table / prog_tick : 0.0);

  // SIMD section: per-kernel scalar-vs-vector rates on a MAC-row working
  // set (wpl = 64). The regression gate's *speedup* rule keeps the measured
  // ratios from collapsing; the *_per_s rates are informational (wall
  // clock).
  using geo::sc::simd::Backend;
  const Backend best = geo::sc::simd::detect_best();
  report.set("simd.vector_backend_available",
             best == Backend::kScalar ? 0.0 : 1.0);
  report.set("simd.words_per_row", 64.0);
  for (const SimdKernel k :
       {SimdKernel::kPopcount, SimdKernel::kAndPopcount,
        SimdKernel::kOrAndInto}) {
    const double scalar_rate =
        measure_kernel_words_per_s(Backend::kScalar, k);
    const double simd_rate = measure_kernel_words_per_s(best, k);
    const std::string key = std::string("simd.") + kernel_name(k);
    report.set(key + "_scalar_words_per_s", scalar_rate);
    report.set(key + "_simd_words_per_s", simd_rate);
    report.set(key + "_speedup",
               scalar_rate > 0.0 ? simd_rate / scalar_rate : 0.0);
  }

  if (!caller_out) {
    std::ifstream in(raw_path);
    std::stringstream raw;
    raw << in.rdbuf();
    if (geo::telemetry::json_valid(raw.str()))
      report.set("benchmarks", geo::telemetry::Json::raw(raw.str()));
    std::error_code ec;
    std::filesystem::remove(raw_path, ec);
  }
  return report.write() ? 0 : 1;
}
