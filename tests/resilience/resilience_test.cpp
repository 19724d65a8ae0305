// The detect -> retry -> degrade runtime: policy parsing, the no-fault
// bit-identity contract, defect-model degradation to the fixed-point
// reference, transient-model recovery, and deterministic retry decisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <thread>
#include <vector>

#include "arch/attribution.hpp"
#include "arch/machine.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_model.hpp"
#include "nn/sc_layers.hpp"
#include "resilience/resilience.hpp"
#include "telemetry/telemetry.hpp"

namespace geo::resilience {
namespace {

using arch::ConvShape;
using arch::GeoMachine;
using arch::HwConfig;
using arch::MachineResult;
using fault::EccMode;
using fault::FaultConfig;
using fault::ScopedFaultInjection;

struct Fixture {
  ConvShape shape;
  std::vector<float> weights, input, ones, zeros;

  explicit Fixture(unsigned seed = 77) {
    shape = ConvShape::conv("t", 4, 6, 5, 3, 1, false);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> wdist(-0.8f, 0.8f);
    std::uniform_real_distribution<float> adist(0.0f, 1.0f);
    weights.resize(static_cast<std::size_t>(shape.weights()));
    for (auto& w : weights) w = wdist(rng);
    input.resize(static_cast<std::size_t>(shape.activations()));
    for (auto& a : input) a = adist(rng);
    ones.assign(static_cast<std::size_t>(shape.cout), 1.0f);
    zeros.assign(static_cast<std::size_t>(shape.cout), 0.0f);
  }
};

HwConfig small_hw(nn::AccumMode accum) {
  HwConfig hw = HwConfig::ulp();
  hw.accum = accum;
  hw.stream_len = 64;
  hw.stream_len_pool = 64;
  hw.stream_len_output = 64;
  return hw;
}

TEST(RetryPolicy, ParseDefaultsAndValues) {
  auto d = RetryPolicy::parse("");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->retries, 2);
  EXPECT_EQ(d->backoff, 32);

  auto p = RetryPolicy::parse("retries=5,backoff=8");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->retries, 5);
  EXPECT_EQ(p->backoff, 8);
  EXPECT_EQ(p->to_string(), "retries=5,backoff=8");

  auto partial = RetryPolicy::parse("retries=0");
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->retries, 0);
  EXPECT_EQ(partial->backoff, 32);  // untouched keys keep their defaults
}

TEST(RetryPolicy, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(RetryPolicy::parse("retries=-1").ok());
  EXPECT_FALSE(RetryPolicy::parse("retries=99").ok());
  EXPECT_FALSE(RetryPolicy::parse("backoff=-4").ok());
  EXPECT_FALSE(RetryPolicy::parse("guards=0").ok());  // guards always run
  EXPECT_FALSE(RetryPolicy::parse("bogus=1").ok());
  EXPECT_FALSE(RetryPolicy::parse("retries").ok());
  EXPECT_FALSE(RetryPolicy::parse("retries=two").ok());
}

TEST(RetryPolicy, BackoffGrowsExponentially) {
  RetryPolicy p;
  p.backoff = 16;
  EXPECT_EQ(p.backoff_for(0), 16);
  EXPECT_EQ(p.backoff_for(1), 32);
  EXPECT_EQ(p.backoff_for(3), 128);
  // Deep attempts saturate instead of shifting into the sign bit.
  EXPECT_GT(p.backoff_for(62), 0);
}

TEST(RetryPolicy, MalformedEnvSpecWarnsIntoJournal) {
  auto& journal = telemetry::Journal::instance();
  const std::string path =
      (std::filesystem::temp_directory_path() / "geo_retry_env.jsonl")
          .string();
  std::filesystem::remove(path);
  journal.disable();
  journal.enable(path, 64);

  ::setenv("GEO_RETRY", "retries=banana", 1);
  const RetryPolicy p = RetryPolicy::from_env();
  ::unsetenv("GEO_RETRY");
  // The malformed spec is ignored, never fatal: defaults survive.
  EXPECT_EQ(p.retries, RetryPolicy{}.retries);
  EXPECT_EQ(p.backoff, RetryPolicy{}.backoff);

  // And the rejection is journaled so postmortems can see the config that
  // did NOT take effect.
  bool found = false;
  for (const auto& e : journal.snapshot())
    if (e.kind == "config.invalid" && e.label == "GEO_RETRY") {
      found = true;
      EXPECT_FALSE(e.note.empty()) << "diagnostic must carry the parse error";
    }
  EXPECT_TRUE(found);

  journal.disable();
  std::filesystem::remove(path);
}

TEST(ResilientExecutor, NoFaultsIsBitIdenticalToMachine) {
  const Fixture f;
  const HwConfig hw = small_hw(nn::AccumMode::kPbw);
  ScopedFaultInjection off(nullptr);  // shield from ambient GEO_FAULTS
  GeoMachine machine(hw);
  auto plain =
      machine.try_run_conv(f.shape, f.weights, f.input, f.ones, f.zeros, 9);
  ASSERT_TRUE(plain.ok());

  ResilientExecutor exec(hw, RetryPolicy{});
  auto resilient =
      exec.run_conv(f.shape, f.weights, f.input, f.ones, f.zeros, 9, "clean");
  ASSERT_TRUE(resilient.ok()) << resilient.status().to_string();

  EXPECT_EQ(plain->counters, resilient->counters);
  EXPECT_EQ(plain->activations, resilient->activations);
  EXPECT_EQ(plain->stats.total_cycles, resilient->stats.total_cycles);
  EXPECT_TRUE(resilient->stats.ledger_ok);

  ASSERT_EQ(exec.report().layers.size(), 1u);
  const LayerOutcome& o = exec.report().layers[0];
  EXPECT_EQ(o.layer, "clean");
  EXPECT_EQ(o.rung, Rung::kNative);
  EXPECT_FALSE(o.degraded);
  EXPECT_EQ(o.tiles_retried, 0);
  EXPECT_EQ(o.retries, 0);
  EXPECT_EQ(o.retry_cycles(), 0);
  EXPECT_EQ(exec.report().tiles_retried(), 0);
  EXPECT_FALSE(exec.report().any_degraded());
  EXPECT_TRUE(exec.report().ledger_ok());
}

TEST(ResilientExecutor, RejectsInvalidLayers) {
  const Fixture f;
  ResilientExecutor exec(small_hw(nn::AccumMode::kPbw), RetryPolicy{});
  // Weights span truncated: must surface the machine's validation error.
  auto r = exec.run_conv(f.shape,
                         std::span<const float>(f.weights).first(3), f.input,
                         f.ones, f.zeros, 9);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(exec.report().layers.empty());
}

TEST(ResilientExecutor, DefectFaultsDegradeToExactReference) {
  // A defect model reproduces the same corruption on every retry, so the
  // budget exhausts, every machine rung fails the same way, and the layer
  // bottoms out in the fixed-point reference — bit-exactly.
  const Fixture f;
  const HwConfig hw = small_hw(nn::AccumMode::kPbw);
  FaultConfig cfg;
  cfg.sram_error_rate = 2e-2;
  cfg.sram_burst = 2;  // bursts defeat SECDED correction -> detections
  cfg.ecc = EccMode::kSecded;
  cfg.rng_seed = 99;
  ScopedFaultInjection inject(cfg);

  RetryPolicy policy;
  policy.retries = 2;
  ResilientExecutor exec(hw, policy);
  auto r = exec.run_conv(f.shape, f.weights, f.input, f.ones, f.zeros, 9,
                         "defect");
  ASSERT_TRUE(r.ok()) << r.status().to_string();

  ASSERT_EQ(exec.report().layers.size(), 1u);
  const LayerOutcome& o = exec.report().layers[0];
  EXPECT_GE(o.tiles_retried, 1);
  EXPECT_TRUE(o.degraded);
  EXPECT_EQ(o.rung, Rung::kReference);
  EXPECT_GT(o.retries, 0);
  EXPECT_GT(o.retry_cycles(), 0);
  EXPECT_TRUE(exec.report().ledger_ok());

  const nn::ScLayerConfig lcfg = GeoMachine(hw).layer_config(f.shape, 9);
  const auto ref = nn::fxp_reference_counters(
      f.shape, f.weights, f.input, lcfg.value_bits, lcfg.stream_len);
  EXPECT_EQ(r->counters, ref);

  std::vector<std::uint8_t> act(ref.size());
  arch::apply_bn_relu(ref, f.ones, f.zeros, lcfg.stream_len,
                      static_cast<std::int64_t>(f.shape.hout()) *
                          f.shape.wout(),
                      act);
  EXPECT_EQ(r->activations, act);
}

TEST(ResilientExecutor, SecdedCorrectionsDoNotCancelDetections) {
  // Burst-1 SECDED: most faulty activation words have one flipped bit and
  // are corrected, a few have two or more and are zeroed. Tile 0's first
  // run makes both kinds of read; each zeroed read must raise
  // secded_double_bit on that attempt however many corrections share the
  // tile. A zero input keeps every partial sum at 0, so the psum guards
  // stay silent and ECC is the only signal.
  Fixture f;
  std::fill(f.input.begin(), f.input.end(), 0.0f);
  const HwConfig hw = small_hw(nn::AccumMode::kPbw);
  FaultConfig cfg;
  cfg.sram_error_rate = 2e-2;
  cfg.sram_burst = 1;
  cfg.ecc = EccMode::kSecded;
  cfg.rng_seed = 3;  // tile 0: 5 zeroed reads, 20 corrected

  // Tile 0's reads (the input slots of its output windows, each once),
  // classified on a separate model: under the defect model a site's outcome
  // is a pure function of (seed, site).
  GeoMachine machine(hw);
  std::vector<std::size_t> slots;
  {
    ScopedFaultInjection off(nullptr);
    auto prepared =
        machine.prepare_conv(f.shape, f.weights, f.input, f.ones, f.zeros, 9);
    ASSERT_TRUE(prepared.ok()) << prepared.status().to_string();
    const auto xy = static_cast<std::size_t>(f.shape.hout() * f.shape.wout());
    for (const std::size_t oidx : prepared->tile_outputs(0))
      nn::for_each_window_tap(f.shape, oidx % xy, 0, f.shape.taps(),
                              [&](int, std::size_t slot) {
                                slots.push_back(slot);
                              });
  }
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  const auto bits =
      static_cast<unsigned>(machine.layer_config(f.shape, 9).value_bits);
  fault::FaultModel probe(cfg);
  for (const std::size_t slot : slots)
    probe.sram_read(0, bits, fault::FaultModel::Site::kActSram, slot);
  const std::int64_t zeroed = probe.stats().sram_errors_detected;
  const std::int64_t corrected = probe.stats().sram_errors_corrected;
  ASSERT_GE(zeroed, 1);
  ASSERT_GE(corrected, zeroed) << "enough corrections to cancel them all";

  auto& journal = telemetry::Journal::instance();
  const std::string path =
      (std::filesystem::temp_directory_path() / "geo_secded_cancel.jsonl")
          .string();
  for (const int threads : {1, 2}) {  // inline first pass, then pooled
    SCOPED_TRACE(threads);
    exec::ScopedThreads pool(threads);
    journal.disable();
    journal.enable(path, 4096);
    ScopedFaultInjection inject(cfg);
    ResilientExecutor exec(hw, RetryPolicy{});
    auto r = exec.run_conv(f.shape, f.weights, f.input, f.ones, f.zeros, 9,
                           "secded");
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    const LayerOutcome& o = exec.report().layers.at(0);
    EXPECT_GE(o.detections[static_cast<std::size_t>(Detect::kSecdedDoubleBit)],
              zeroed);

    double first_attempt = -1;
    for (const auto& e : journal.snapshot()) {
      if (e.kind != "resilience.retry" || e.note != to_string(Rung::kNative))
        continue;
      auto args = telemetry::Json::parse(e.args_json);
      ASSERT_TRUE(args.has_value());
      if (args->find("tile")->number() == 0 &&
          args->find("attempt")->number() == 0)
        first_attempt = args->find("detections")->number();
    }
    EXPECT_EQ(first_attempt, static_cast<double>(zeroed))
        << "tile 0's first attempt must retry on its zeroed reads";
    journal.disable();
  }
  std::filesystem::remove(path);
}

TEST(ResilientExecutor, ConcurrentExecutorsUnderOneModelMatchASoloRun) {
  // GEO_FAULTS installs one process-wide model that every executor reads.
  // Each execution must decide its retries from its own SRAM reads and
  // charge its own ECC retry cycles, so two executors running at once on
  // two threads under one model each report exactly what a solo run does.
  // The first spec degrades (its detections would leak between the runs);
  // the second accepts the native rung with 10 ECC retry cycles (a run that
  // counted its neighbour's would read 20).
  const Fixture f;
  const HwConfig hw = small_hw(nn::AccumMode::kPbw);
  exec::ScopedThreads pool(2);

  struct Run {
    LayerOutcome outcome;
    arch::MachineStats stats;
  };
  const auto run_once = [&](fault::FaultModel* model) {
    fault::ScopedFaultOverride scope(model);
    ResilientExecutor executor(hw, RetryPolicy{});
    auto r = executor.run_conv(f.shape, f.weights, f.input, f.ones, f.zeros,
                               9, "shared");
    Run run;
    if (!r.ok() || executor.report().layers.size() != 1) {
      ADD_FAILURE() << r.status().to_string();
      return run;
    }
    run.outcome = executor.report().layers[0];
    run.stats = r->stats;
    return run;
  };
  const auto expect_same = [](const Run& got, const Run& solo) {
    EXPECT_EQ(got.outcome.detections, solo.outcome.detections);
    EXPECT_EQ(got.outcome.retries, solo.outcome.retries);
    EXPECT_EQ(got.outcome.tiles_retried, solo.outcome.tiles_retried);
    EXPECT_EQ(got.outcome.rung, solo.outcome.rung);
    EXPECT_EQ(got.stats.retry_stall_cycles, solo.stats.retry_stall_cycles);
    EXPECT_EQ(got.stats.total_cycles, solo.stats.total_cycles);
  };

  for (const char* spec : {"sram=3e-3,burst=2,ecc=secded,rng=7",
                           "sram=1e-3,burst=1,ecc=secded,rng=5"}) {
    SCOPED_TRACE(spec);
    const auto cfg = FaultConfig::parse(spec);
    ASSERT_TRUE(cfg.ok());
    fault::FaultModel model(*cfg);
    const Run solo = run_once(&model);
    if (solo.outcome.rung == Rung::kNative)
      EXPECT_EQ(solo.stats.retry_stall_cycles, 10);
    else
      EXPECT_GT(solo.outcome.retries, 0);
    for (int pair = 0; pair < 50; ++pair) {
      Run a, b;
      std::thread ta([&] { a = run_once(&model); });
      std::thread tb([&] { b = run_once(&model); });
      ta.join();
      tb.join();
      expect_same(a, solo);
      expect_same(b, solo);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(ResilientExecutor, TransientFaultsRecoverWithoutDegrading) {
  // transient=1 re-rolls each access, so re-reading after invalidating the
  // tile's input streams can come back clean — the retry loop must convert
  // detections into recoveries instead of tripping the circuit breaker.
  const Fixture f;
  const HwConfig hw = small_hw(nn::AccumMode::kPbw);
  FaultConfig cfg;
  cfg.sram_error_rate = 2e-4;  // rare enough that a re-roll comes back clean
  cfg.sram_burst = 2;
  cfg.ecc = EccMode::kSecded;
  cfg.transient = true;
  cfg.rng_seed = 1;
  ScopedFaultInjection inject(cfg);

  RetryPolicy policy;
  policy.retries = 8;  // generous budget: recovery, not degradation
  ResilientExecutor exec(hw, policy);
  auto r = exec.run_conv(f.shape, f.weights, f.input, f.ones, f.zeros, 9,
                         "transient");
  ASSERT_TRUE(r.ok()) << r.status().to_string();

  ASSERT_EQ(exec.report().layers.size(), 1u);
  const LayerOutcome& o = exec.report().layers[0];
  EXPECT_GE(o.tiles_retried, 1);
  EXPECT_GE(o.tiles_recovered, 1);
  EXPECT_FALSE(o.degraded) << "transient faults should not exhaust "
                           << policy.retries << " retries";
  EXPECT_EQ(o.rung, Rung::kNative);
  EXPECT_GT(o.backoff_cycles, 0);
  EXPECT_TRUE(o.ledger_ok);
  EXPECT_TRUE(exec.report().ledger_ok());
}

TEST(ResilientExecutor, RetryDecisionsAreDeterministic) {
  // Same fault model + same policy => identical outputs AND identical
  // retry/degrade decisions, field for field.
  const Fixture f;
  const HwConfig hw = small_hw(nn::AccumMode::kPbw);
  FaultConfig cfg;
  cfg.sram_error_rate = 5e-3;
  cfg.sram_burst = 2;
  cfg.ecc = EccMode::kSecded;
  cfg.transient = true;
  cfg.rng_seed = 31;

  auto run = [&] {
    ScopedFaultInjection inject(cfg);
    RetryPolicy policy;
    policy.retries = 4;
    ResilientExecutor exec(hw, policy);
    auto r = exec.run_conv(f.shape, f.weights, f.input, f.ones, f.zeros, 9,
                           "det");
    EXPECT_TRUE(r.ok());
    return std::pair(std::move(*r), exec.report());
  };
  const auto [r1, rep1] = run();
  const auto [r2, rep2] = run();

  EXPECT_EQ(r1.counters, r2.counters);
  EXPECT_EQ(r1.activations, r2.activations);
  EXPECT_EQ(r1.stats.total_cycles, r2.stats.total_cycles);
  ASSERT_EQ(rep1.layers.size(), rep2.layers.size());
  for (std::size_t i = 0; i < rep1.layers.size(); ++i) {
    const LayerOutcome& a = rep1.layers[i];
    const LayerOutcome& b = rep2.layers[i];
    EXPECT_EQ(a.rung, b.rung);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.tiles_retried, b.tiles_retried);
    EXPECT_EQ(a.tiles_recovered, b.tiles_recovered);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.detections, b.detections);
    EXPECT_EQ(a.backoff_cycles, b.backoff_cycles);
    EXPECT_EQ(a.abandoned_cycles, b.abandoned_cycles);
  }
}

TEST(ResilientExecutor, BackoffCyclesLandInTheLedger) {
  // The accepted execution's stall bucket must absorb the backoff charge and
  // still reconcile — retry cost is visible, not off the books.
  const Fixture f;
  const HwConfig hw = small_hw(nn::AccumMode::kPbw);

  GeoMachine machine(hw);
  geo::StatusOr<MachineResult> clean = [&] {
    ScopedFaultInjection off(nullptr);  // the fault-free baseline
    return machine.try_run_conv(f.shape, f.weights, f.input, f.ones, f.zeros,
                                9);
  }();
  ASSERT_TRUE(clean.ok());

  FaultConfig cfg;
  cfg.sram_error_rate = 2e-4;
  cfg.sram_burst = 2;
  cfg.ecc = EccMode::kSecded;
  cfg.transient = true;
  cfg.rng_seed = 1;
  ScopedFaultInjection inject(cfg);
  RetryPolicy policy;
  policy.retries = 8;
  ResilientExecutor exec(hw, policy);
  auto r = exec.run_conv(f.shape, f.weights, f.input, f.ones, f.zeros, 9);
  ASSERT_TRUE(r.ok());
  const LayerOutcome& o = exec.report().layers[0];
  ASSERT_GT(o.backoff_cycles, 0);
  EXPECT_TRUE(r->stats.ledger_ok);
  // At least the backoff (plus recompute + ECC scrub cost) over clean.
  EXPECT_GE(r->stats.stall_cycles,
            clean->stats.stall_cycles + o.backoff_cycles);
  EXPECT_EQ(r->stats.total_cycles, r->stats.compute_cycles +
                                       r->stats.stall_cycles +
                                       r->stats.nearmem_cycles);
}

TEST(ResilientExecutor, SteeredReferenceRungCarriesItsIoStall) {
  // The store's block-load wait happened whichever rung answered: a run
  // steered onto the reference rung carries it as its whole ledger, which
  // attribution reports as memory cost.
  const Fixture f;
  RunOptions run;
  run.start = Rung::kReference;
  run.io_stall_cycles = 37;
  ResilientExecutor exec(small_hw(nn::AccumMode::kPbw), RetryPolicy{});
  auto r = exec.run_conv(f.shape, f.weights, f.input, f.ones, f.zeros, 9,
                         "steered", run);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  ASSERT_EQ(exec.report().layers.size(), 1u);
  EXPECT_EQ(exec.report().layers[0].rung, Rung::kReference);

  const arch::MachineStats& st = r->stats;
  EXPECT_EQ(st.io_stall_cycles, 37);
  EXPECT_EQ(st.stall_cycles, 37);
  EXPECT_EQ(st.total_cycles, 37);
  EXPECT_EQ(st.retry_stall_cycles, 0);
  EXPECT_EQ(st.total_cycles,
            st.compute_cycles + st.stall_cycles + st.nearmem_cycles);
  EXPECT_TRUE(st.ledger_ok);
  const arch::CycleAttribution a = arch::attribute(st);
  EXPECT_TRUE(a.reconciles());
  EXPECT_EQ(a.memory_cycles, 37);
  EXPECT_EQ(a.generation_cycles, 0);
}

TEST(ResilienceReport, SummaryAndJsonCarryTheOutcome) {
  ResilienceReport rep;
  LayerOutcome o;
  o.layer = "conv1";
  o.rung = Rung::kReference;
  o.degraded = true;
  o.tiles = 0;
  o.tiles_retried = 2;
  o.retries = 4;
  o.detections[static_cast<int>(Detect::kSecdedDoubleBit)] = 3;
  o.backoff_cycles = 96;
  o.abandoned_cycles = 1000;
  rep.layers.push_back(o);

  EXPECT_TRUE(rep.any_degraded());
  EXPECT_EQ(rep.tiles_retried(), 2);
  EXPECT_EQ(rep.total_retry_cycles(), 1096);

  const std::string s = rep.summary();
  EXPECT_NE(s.find("conv1"), std::string::npos);
  EXPECT_NE(s.find("reference"), std::string::npos);
  EXPECT_NE(s.find("secded_double_bit"), std::string::npos);
}

}  // namespace
}  // namespace geo::resilience
