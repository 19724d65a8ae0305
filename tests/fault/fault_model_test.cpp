// Unit tests for the FaultModel itself: spec parsing, per-site determinism,
// each injection primitive, the ECC policies, and the stats ledger.
#include "fault/fault_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <vector>

#include "sc/lfsr.hpp"

namespace geo::fault {
namespace {

using Site = FaultModel::Site;

TEST(FaultConfigParse, RoundTripsFullSpec) {
  const auto parsed = FaultConfig::parse(
      "stream=1e-3,accum=5e-4,seed=0.01,sram=1e-4,burst=2,ecc=secded,"
      "stuck=3:1,rng=42");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const FaultConfig& cfg = *parsed;
  EXPECT_DOUBLE_EQ(cfg.stream_flip_rate, 1e-3);
  EXPECT_DOUBLE_EQ(cfg.accum_flip_rate, 5e-4);
  EXPECT_DOUBLE_EQ(cfg.seed_upset_rate, 0.01);
  EXPECT_DOUBLE_EQ(cfg.sram_error_rate, 1e-4);
  EXPECT_EQ(cfg.sram_burst, 2);
  EXPECT_EQ(cfg.ecc, EccMode::kSecded);
  EXPECT_EQ(cfg.stuck.column, 3);
  EXPECT_TRUE(cfg.stuck.value);
  EXPECT_EQ(cfg.rng_seed, 42u);
  EXPECT_TRUE(cfg.any());

  // to_string() re-parses to the same config.
  const auto again = FaultConfig::parse(cfg.to_string());
  ASSERT_TRUE(again.ok()) << cfg.to_string();
  EXPECT_DOUBLE_EQ(again->stream_flip_rate, cfg.stream_flip_rate);
  EXPECT_EQ(again->ecc, cfg.ecc);
  EXPECT_EQ(again->stuck.column, cfg.stuck.column);
}

TEST(FaultConfigParse, IoKeysRoundTripAndCountTowardAny) {
  const auto parsed = FaultConfig::parse(
      "io_rot=0.5,io_short_read=0.1,io_short_write=0.2,io_err=0.3,rng=9");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_DOUBLE_EQ(parsed->io_rot_rate, 0.5);
  EXPECT_DOUBLE_EQ(parsed->io_short_read_rate, 0.1);
  EXPECT_DOUBLE_EQ(parsed->io_short_write_rate, 0.2);
  EXPECT_DOUBLE_EQ(parsed->io_error_rate, 0.3);
  EXPECT_TRUE(parsed->any()) << "io-only specs must install a model";

  const auto again = FaultConfig::parse(parsed->to_string());
  ASSERT_TRUE(again.ok()) << parsed->to_string();
  EXPECT_DOUBLE_EQ(again->io_rot_rate, 0.5);
  EXPECT_DOUBLE_EQ(again->io_error_rate, 0.3);

  for (const char* spec : {"io_rot=2.0", "io_err=-0.5", "io_short_read=x"})
    EXPECT_FALSE(FaultConfig::parse(spec).ok()) << spec;
}

TEST(FaultModelIo, DefectRotPersistsAndTransientsReRoll) {
  FaultConfig cfg;
  cfg.io_rot_rate = 1.0;
  cfg.rng_seed = 3;
  FaultModel defect(cfg);
  std::vector<unsigned char> a(64, 0xAB), b(64, 0xAB);
  EXPECT_GT(defect.corrupt_block(a.data(), a.size(), 17), 0);
  EXPECT_GT(defect.corrupt_block(b.data(), b.size(), 17), 0);
  EXPECT_EQ(a, b) << "defect-model rot must reproduce per site";
  EXPECT_NE(a, std::vector<unsigned char>(64, 0xAB));

  // io_err is transient by nature: at rate 0.5 the per-access sequence must
  // produce both outcomes for a fixed site.
  FaultConfig ecfg;
  ecfg.io_error_rate = 0.5;
  ecfg.rng_seed = 3;
  FaultModel errs(ecfg);
  bool saw_error = false, saw_ok = false;
  for (int i = 0; i < 64 && !(saw_error && saw_ok); ++i)
    (errs.io_error(17) ? saw_error : saw_ok) = true;
  EXPECT_TRUE(saw_error);
  EXPECT_TRUE(saw_ok);

  const FaultStats stats = defect.stats();
  EXPECT_EQ(stats.io_blocks_rotted, 2);
}

TEST(FaultConfigParse, DefaultsAreInert) {
  const auto parsed = FaultConfig::parse("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->any());
}

TEST(FaultConfigParse, RejectsMalformedSpecs) {
  for (const char* spec :
       {"bogus=1", "stream", "stream=2.0", "stream=-0.1", "stream=abc",
        "burst=0", "burst=99", "ecc=hamming", "stuck=32", "stuck=3:2",
        "rng=notanumber"}) {
    const auto parsed = FaultConfig::parse(spec);
    EXPECT_FALSE(parsed.ok()) << "'" << spec << "' parsed";
  }
}

TEST(FaultConfigParse, FromEnvTracksGeoFaults) {
  setenv("GEO_FAULTS", "stream=0.25,rng=7", 1);
  const auto cfg = FaultConfig::from_env();
  ASSERT_TRUE(cfg.has_value());
  EXPECT_DOUBLE_EQ(cfg->stream_flip_rate, 0.25);

  setenv("GEO_FAULTS", "garbage", 1);
  EXPECT_FALSE(FaultConfig::from_env().has_value());  // warns, never aborts

  unsetenv("GEO_FAULTS");
  EXPECT_FALSE(FaultConfig::from_env().has_value());
}

FaultConfig stream_cfg(double rate, std::uint64_t rng = 11) {
  FaultConfig cfg;
  cfg.stream_flip_rate = rate;
  cfg.rng_seed = rng;
  return cfg;
}

TEST(FaultModelStream, FlipsAreDeterministicPerSite) {
  FaultModel a(stream_cfg(0.05));
  FaultModel b(stream_cfg(0.05));
  std::vector<std::uint64_t> wa(4, 0), wb(4, 0);
  const int na = a.corrupt_stream(wa.data(), 256, Site::kWeightStream, 9);
  const int nb = b.corrupt_stream(wb.data(), 256, Site::kWeightStream, 9);
  EXPECT_EQ(na, nb);
  EXPECT_EQ(wa, wb);
  EXPECT_GT(na, 0);  // 256 bits at 5% — the chance of zero flips is ~2e-6

  // A different site (or domain) gets an independent pattern.
  std::vector<std::uint64_t> wc(4, 0), wd(4, 0);
  b.corrupt_stream(wc.data(), 256, Site::kWeightStream, 10);
  b.corrupt_stream(wd.data(), 256, Site::kActStream, 9);
  EXPECT_NE(wc, wa);
  EXPECT_NE(wd, wa);
}

TEST(FaultModelStream, ZeroRateIsUntouched) {
  FaultModel m(stream_cfg(0.0, 1));
  std::vector<std::uint64_t> w(4, 0xDEADBEEFull);
  EXPECT_EQ(m.corrupt_stream(w.data(), 256, Site::kActStream, 1), 0);
  EXPECT_EQ(w, std::vector<std::uint64_t>(4, 0xDEADBEEFull));
  EXPECT_EQ(m.stats().stream_bits_flipped, 0);
}

TEST(FaultModelStream, RateOneFlipsEveryBit) {
  FaultModel m(stream_cfg(1.0));
  std::vector<std::uint64_t> w(2, 0);
  EXPECT_EQ(m.corrupt_stream(w.data(), 128, Site::kActStream, 0), 128);
  EXPECT_EQ(w, std::vector<std::uint64_t>(2, ~0ull));
}

TEST(FaultModelStream, FlipCountTracksRate) {
  FaultModel m(stream_cfg(0.01));
  std::vector<std::uint64_t> w(16, 0);
  int total = 0;
  for (std::uint64_t site = 0; site < 100; ++site)
    total += m.corrupt_stream(w.data(), 1024, Site::kWeightStream, site);
  // 102400 bits at 1%: expect ~1024 flips; 3x margins are astronomically safe.
  EXPECT_GT(total, 300);
  EXPECT_LT(total, 3000);
  EXPECT_EQ(m.stats().stream_bits_flipped, total);
}

TEST(FaultModelSeed, UpsetsChangeSeedOrPolynomial) {
  FaultConfig cfg;
  cfg.seed_upset_rate = 1.0;
  cfg.rng_seed = 5;
  FaultModel m(cfg);
  sc::SeedSpec spec;
  spec.bits = 8;
  spec.seed = 0x5A;
  spec.taps = sc::Lfsr::default_taps(8);
  int changed = 0;
  for (std::uint64_t site = 0; site < 32; ++site) {
    const sc::SeedSpec out = m.corrupt_seed(spec, site);
    changed += out.seed != spec.seed || out.taps != spec.taps;
  }
  EXPECT_EQ(changed, 32);  // rate 1.0 upsets every SNG
  EXPECT_EQ(m.stats().seed_upsets, 32);

  // Determinism: the same site upsets the same way.
  const sc::SeedSpec o1 = m.corrupt_seed(spec, 3);
  const sc::SeedSpec o2 = m.corrupt_seed(spec, 3);
  EXPECT_EQ(o1.seed, o2.seed);
  EXPECT_EQ(o1.taps, o2.taps);
}

FaultConfig sram_cfg(double rate, EccMode ecc, std::uint64_t rng = 21) {
  FaultConfig cfg;
  cfg.sram_error_rate = rate;
  cfg.ecc = ecc;
  cfg.rng_seed = rng;
  return cfg;
}

TEST(FaultModelSram, NoneDeliversCorruptedWords) {
  FaultModel m(sram_cfg(0.08, EccMode::kNone));
  int changed = 0;
  for (std::uint64_t site = 0; site < 400; ++site)
    changed += m.sram_read(0xA5u, 8, Site::kWeightSram, site).word != 0xA5u;
  const FaultStats st = m.stats();
  EXPECT_GT(changed, 0);
  EXPECT_EQ(st.sram_words_corrupted, changed);
  EXPECT_EQ(st.sram_silent_corruptions, changed);
  EXPECT_EQ(st.sram_errors_detected, 0);
  EXPECT_EQ(st.sram_retry_cycles, 0);
}

TEST(FaultModelSram, ParityZeroesOddWeightErrors) {
  FaultModel m(sram_cfg(0.08, EccMode::kParity));
  std::int64_t zeroed = 0;
  for (std::uint64_t site = 0; site < 400; ++site) {
    const FaultModel::SramRead r = m.sram_read(0xFFu, 8, Site::kActSram, site);
    const std::uint32_t out = r.word;
    // Detected reads are zeroed; undetected ones pass through (possibly
    // corrupted with an even number of flips).
    if (out != 0xFFu && out != 0u) {
      // Even-weight slip-through: the delta must have even popcount.
      EXPECT_EQ(std::popcount(out ^ 0xFFu) % 2, 0);
    }
    if (r.zeroed) {
      EXPECT_EQ(out, 0u) << site;
    }
    EXPECT_EQ(r.retry_cycles, 0) << "parity has no correction path";
    zeroed += r.zeroed;
  }
  const FaultStats st = m.stats();
  EXPECT_EQ(st.sram_errors_detected, zeroed);
  EXPECT_GT(st.sram_words_corrupted, 0);
  EXPECT_EQ(st.sram_errors_detected + st.sram_silent_corruptions,
            st.sram_words_corrupted);
  EXPECT_GT(st.sram_errors_detected, 0);  // single-bit events dominate at 8%
}

TEST(FaultModelSram, SecdedCorrectsSinglesAndChargesRetries) {
  FaultModel m(sram_cfg(0.08, EccMode::kSecded));
  std::int64_t zeroed = 0, retry_cycles = 0;
  for (std::uint64_t site = 0; site < 400; ++site) {
    const FaultModel::SramRead r =
        m.sram_read(0xC3u, 8, Site::kWeightSram, site);
    // SECDED never delivers a corrupted word: corrected or zeroed.
    EXPECT_TRUE(r.word == 0xC3u || r.word == 0u) << site;
    EXPECT_EQ(r.zeroed, r.word == 0u) << site;
    zeroed += r.zeroed;
    retry_cycles += r.retry_cycles;
  }
  const FaultStats st = m.stats();
  // Each read reports exactly what it added to the model-wide ledger.
  EXPECT_EQ(st.sram_errors_detected, zeroed);
  EXPECT_EQ(st.sram_retry_cycles, retry_cycles);
  EXPECT_GT(st.sram_errors_corrected, 0);
  EXPECT_EQ(st.sram_errors_corrected + st.sram_errors_detected,
            st.sram_words_corrupted);
  EXPECT_EQ(st.sram_retry_cycles, 2 * st.sram_words_corrupted);
  EXPECT_EQ(st.sram_silent_corruptions, 0);
}

TEST(FaultModelSram, BurstWidensEvents) {
  FaultModel m1(sram_cfg(0.05, EccMode::kNone, 33));
  FaultConfig c2 = sram_cfg(0.05, EccMode::kNone, 33);
  c2.sram_burst = 4;
  FaultModel m4(c2);
  int single_total = 0, burst_total = 0;
  for (std::uint64_t site = 0; site < 500; ++site) {
    single_total +=
        std::popcount(m1.sram_read(0, 16, Site::kActSram, site).word);
    burst_total +=
        std::popcount(m4.sram_read(0, 16, Site::kActSram, site).word);
  }
  EXPECT_GT(burst_total, single_total);  // same events, wider damage
}

TEST(FaultModelStuck, ForcesTheConfiguredColumn) {
  FaultConfig cfg;
  cfg.stuck.column = 2;
  cfg.stuck.value = true;
  FaultModel m(cfg);
  EXPECT_TRUE(m.stuck_enabled());
  EXPECT_EQ(m.apply_stuck(0b0000), 0b0100u);
  EXPECT_EQ(m.apply_stuck(0b0100), 0b0100u);  // already set: no event
  EXPECT_EQ(m.stats().stuck_column_events, 1);

  FaultConfig low;
  low.stuck.column = 0;
  low.stuck.value = false;
  FaultModel m0(low);
  EXPECT_EQ(m0.apply_stuck(0b0111), 0b0110u);
}

TEST(FaultModelActive, ScopedInjectionOverridesAndRestores) {
  EXPECT_EQ(active(), nullptr);  // tier-1 runs with GEO_FAULTS unset
  {
    ScopedFaultInjection outer(stream_cfg(0.5));
    EXPECT_EQ(active(), &outer.model());
    {
      ScopedFaultInjection inner(nullptr);
      EXPECT_EQ(active(), nullptr);
    }
    EXPECT_EQ(active(), &outer.model());
  }
  EXPECT_EQ(active(), nullptr);
}

}  // namespace
}  // namespace geo::fault
