#include "fault/fault_model.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/env.hpp"
#include "sc/lfsr.hpp"
#include "telemetry/metrics.hpp"

namespace geo::fault {

namespace {

// Telemetry mirrors, hoisted once (registry lookups take a mutex).
struct FaultCounters {
  telemetry::Counter& stream;
  telemetry::Counter& accum;
  telemetry::Counter& seeds;
  telemetry::Counter& sram_corrupted;
  telemetry::Counter& sram_detected;
  telemetry::Counter& sram_corrected;
  telemetry::Counter& sram_silent;
  telemetry::Counter& sram_retry;
  telemetry::Counter& stuck;
  telemetry::Counter& io_rot;
  telemetry::Counter& io_short_read;
  telemetry::Counter& io_short_write;
  telemetry::Counter& io_err;
};

FaultCounters& counters() {
  auto& m = telemetry::MetricsRegistry::instance();
  static FaultCounters c{m.counter("fault.stream_bits_flipped"),
                         m.counter("fault.accum_bits_flipped"),
                         m.counter("fault.seed_upsets"),
                         m.counter("fault.sram_words_corrupted"),
                         m.counter("fault.sram_errors_detected"),
                         m.counter("fault.sram_errors_corrected"),
                         m.counter("fault.sram_silent_corruptions"),
                         m.counter("fault.sram_retry_cycles"),
                         m.counter("fault.stuck_column_events"),
                         m.counter("fault.io_blocks_rotted"),
                         m.counter("fault.io_short_reads"),
                         m.counter("fault.io_short_writes"),
                         m.counter("fault.io_errors")};
  return c;
}

bool parse_double(std::string_view tok, double& out) {
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), out);
  return ec == std::errc() && ptr == tok.data() + tok.size();
}

bool parse_u64(std::string_view tok, std::uint64_t& out) {
  const std::optional<std::uint64_t> parsed = core::parse_uint(tok);
  if (!parsed.has_value()) return false;
  out = *parsed;
  return true;
}

}  // namespace

const char* to_string(EccMode mode) noexcept {
  switch (mode) {
    case EccMode::kNone: return "none";
    case EccMode::kParity: return "parity";
    case EccMode::kSecded: return "secded";
  }
  return "?";
}

bool FaultConfig::any() const noexcept {
  return stream_flip_rate > 0.0 || accum_flip_rate > 0.0 ||
         seed_upset_rate > 0.0 || sram_error_rate > 0.0 || stuck.enabled() ||
         io_rot_rate > 0.0 || io_short_read_rate > 0.0 ||
         io_short_write_rate > 0.0 || io_error_rate > 0.0;
}

geo::StatusOr<FaultConfig> FaultConfig::parse(std::string_view spec) {
  FaultConfig cfg;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos)
      return geo::Status::invalid_argument(
          "GEO_FAULTS: '" + std::string(item) + "' is not key=value");
    const std::string_view key = item.substr(0, eq);
    const std::string_view val = item.substr(eq + 1);
    auto rate = [&](double& field) -> geo::Status {
      double r = 0.0;
      if (!parse_double(val, r) || r < 0.0 || r > 1.0)
        return geo::Status::out_of_range(
            "GEO_FAULTS: " + std::string(key) + "='" + std::string(val) +
            "' must be a rate in [0,1]");
      field = r;
      return geo::Status();
    };
    if (key == "stream") {
      if (auto s = rate(cfg.stream_flip_rate); !s.ok()) return s;
    } else if (key == "accum") {
      if (auto s = rate(cfg.accum_flip_rate); !s.ok()) return s;
    } else if (key == "seed") {
      if (auto s = rate(cfg.seed_upset_rate); !s.ok()) return s;
    } else if (key == "sram") {
      if (auto s = rate(cfg.sram_error_rate); !s.ok()) return s;
    } else if (key == "io_rot") {
      if (auto s = rate(cfg.io_rot_rate); !s.ok()) return s;
    } else if (key == "io_short_read") {
      if (auto s = rate(cfg.io_short_read_rate); !s.ok()) return s;
    } else if (key == "io_short_write") {
      if (auto s = rate(cfg.io_short_write_rate); !s.ok()) return s;
    } else if (key == "io_err") {
      if (auto s = rate(cfg.io_error_rate); !s.ok()) return s;
    } else if (key == "burst") {
      std::uint64_t b = 0;
      if (!parse_u64(val, b) || b < 1 || b > 32)
        return geo::Status::out_of_range(
            "GEO_FAULTS: burst='" + std::string(val) +
            "' must be an integer in [1,32]");
      cfg.sram_burst = static_cast<int>(b);
    } else if (key == "ecc") {
      if (val == "none")
        cfg.ecc = EccMode::kNone;
      else if (val == "parity")
        cfg.ecc = EccMode::kParity;
      else if (val == "secded")
        cfg.ecc = EccMode::kSecded;
      else
        return geo::Status::invalid_argument(
            "GEO_FAULTS: ecc='" + std::string(val) +
            "' (want none|parity|secded)");
    } else if (key == "stuck") {
      const std::size_t colon = val.find(':');
      const std::string_view col = val.substr(0, colon);
      std::uint64_t c = 0;
      if (!parse_u64(col, c) || c > 31)
        return geo::Status::out_of_range(
            "GEO_FAULTS: stuck='" + std::string(val) +
            "' must be <col>[:<0|1>] with col in [0,31]");
      cfg.stuck.column = static_cast<int>(c);
      cfg.stuck.value = false;
      if (colon != std::string_view::npos) {
        const std::string_view v = val.substr(colon + 1);
        if (v == "1")
          cfg.stuck.value = true;
        else if (v != "0")
          return geo::Status::invalid_argument(
              "GEO_FAULTS: stuck value '" + std::string(v) + "' (want 0|1)");
      }
    } else if (key == "rng") {
      std::uint64_t r = 0;
      if (!parse_u64(val, r))
        return geo::Status::invalid_argument(
            "GEO_FAULTS: rng='" + std::string(val) + "' is not a uint64");
      cfg.rng_seed = r;
    } else if (key == "transient") {
      if (val == "1")
        cfg.transient = true;
      else if (val == "0")
        cfg.transient = false;
      else
        return geo::Status::invalid_argument(
            "GEO_FAULTS: transient='" + std::string(val) + "' (want 0|1)");
    } else {
      return geo::Status::invalid_argument(
          "GEO_FAULTS: unknown key '" + std::string(key) +
          "' (want stream|accum|seed|sram|io_rot|io_short_read|"
          "io_short_write|io_err|burst|ecc|stuck|rng|transient)");
    }
  }
  return cfg;
}

std::optional<FaultConfig> FaultConfig::from_env() {
  const char* v = std::getenv("GEO_FAULTS");
  if (v == nullptr || v[0] == '\0') return std::nullopt;
  auto parsed = parse(v);
  if (!parsed.ok()) {
    std::fprintf(stderr, "[geo] fault injection disabled: %s\n",
                 parsed.status().to_string().c_str());
    return std::nullopt;
  }
  return *parsed;
}

std::string FaultConfig::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "stream=%g,accum=%g,seed=%g,sram=%g,burst=%d,ecc=%s",
                stream_flip_rate, accum_flip_rate, seed_upset_rate,
                sram_error_rate, sram_burst, fault::to_string(ecc));
  std::string out = buf;
  auto append_rate = [&](const char* key, double r) {
    if (r <= 0.0) return;
    std::snprintf(buf, sizeof(buf), ",%s=%g", key, r);
    out += buf;
  };
  append_rate("io_rot", io_rot_rate);
  append_rate("io_short_read", io_short_read_rate);
  append_rate("io_short_write", io_short_write_rate);
  append_rate("io_err", io_error_rate);
  if (transient) out += ",transient=1";
  if (stuck.enabled()) {
    std::snprintf(buf, sizeof(buf), ",stuck=%d:%d", stuck.column,
                  stuck.value ? 1 : 0);
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------- FaultModel

// Splitmix64 stream; the initial state is the per-site key, so the sequence
// is a pure function of (model seed, domain, site).
struct FaultModel::SiteRng {
  std::uint64_t state;

  std::uint64_t next() noexcept { return core::mix64(state += 1); }
  double uniform() noexcept {  // [0, 1)
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
};

FaultModel::FaultModel(const FaultConfig& cfg) : cfg_(cfg) {
  if (cfg_.rng_seed == 0)
    cfg_.rng_seed = core::seed_or(0x6A09E667F3BCC909ull, "fault.model");
  if (cfg_.sram_burst < 1) cfg_.sram_burst = 1;
}

std::uint64_t FaultModel::TransientSeq::take(std::uint64_t key) {
  Shard& shard = shards[key % kShards];
  const std::lock_guard<std::mutex> lock(shard.mu);
  return shard.next[key]++;
}

std::uint64_t FaultModel::site_key(Site domain,
                                   std::uint64_t site) const noexcept {
  return core::mix64(cfg_.rng_seed ^ core::mix64(site) ^
                     (static_cast<std::uint64_t>(domain) << 56));
}

FaultModel::SiteRng FaultModel::rng_for(Site domain,
                                        std::uint64_t site) const {
  std::uint64_t key = site_key(domain, site);
  // Transient model: every access re-rolls, keyed by this model's per-site
  // access sequence. A pass that touches each site once is therefore
  // independent of access order (every site draws sequence 0), which is what
  // lets the parallel tile runner keep transient runs deterministic; retries
  // advance the touched sites' sequences and re-roll.
  if (cfg_.transient)
    key = core::mix64(key + 0x9E3779B97F4A7C15ull *
                                (transient_seq_.take(key) + 1));
  return SiteRng{key};
}

FaultModel::SiteRng FaultModel::rng_for_access(Site domain,
                                               std::uint64_t site) const {
  std::uint64_t key = site_key(domain, site);
  key = core::mix64(key + 0x9E3779B97F4A7C15ull *
                              (transient_seq_.take(key) + 1));
  return SiteRng{key};
}

int FaultModel::flip_bits(std::uint64_t* words, std::size_t length,
                          double rate, SiteRng& rng) {
  if (rate <= 0.0 || length == 0) return 0;
  int flipped = 0;
  if (rate >= 1.0) {
    for (std::size_t i = 0; i < length; ++i) words[i >> 6] ^= 1ull << (i & 63);
    return static_cast<int>(length);
  }
  // Geometric skip sampling: the gap to the next flipped bit is
  // floor(log(1-u) / log(1-rate)).
  const double denom = std::log1p(-rate);
  std::size_t idx = 0;
  while (true) {
    const double u = rng.uniform();
    const double skip = std::floor(std::log1p(-u) / denom);
    if (skip >= static_cast<double>(length)) break;  // also guards overflow
    idx += static_cast<std::size_t>(skip);
    if (idx >= length) break;
    words[idx >> 6] ^= 1ull << (idx & 63);
    ++flipped;
    ++idx;
  }
  return flipped;
}

int FaultModel::corrupt_stream(std::uint64_t* words, std::size_t length,
                               Site domain, std::uint64_t site) {
  if (cfg_.stream_flip_rate <= 0.0) return 0;
  SiteRng rng = rng_for(domain, site);
  const int n = flip_bits(words, length, cfg_.stream_flip_rate, rng);
  if (n > 0) {
    stream_flips_.fetch_add(n, std::memory_order_relaxed);
    counters().stream.add(n);
  }
  return n;
}

int FaultModel::corrupt_accum_input(std::uint64_t* words, std::size_t length,
                                    std::uint64_t site) {
  if (cfg_.accum_flip_rate <= 0.0) return 0;
  SiteRng rng = rng_for(Site::kAccumInput, site);
  const int n = flip_bits(words, length, cfg_.accum_flip_rate, rng);
  if (n > 0) {
    accum_flips_.fetch_add(n, std::memory_order_relaxed);
    counters().accum.add(n);
  }
  return n;
}

sc::SeedSpec FaultModel::corrupt_seed(const sc::SeedSpec& spec,
                                      std::uint64_t site) {
  if (cfg_.seed_upset_rate <= 0.0) return spec;
  SiteRng rng = rng_for(Site::kSeed, site);
  if (rng.uniform() >= cfg_.seed_upset_rate) return spec;
  seed_upsets_.fetch_add(1, std::memory_order_relaxed);
  counters().seeds.add(1);
  sc::SeedSpec out = spec;
  const std::uint32_t r = static_cast<std::uint32_t>(rng.next());
  const unsigned bits = spec.bits;
  // One in four upsets hits the polynomial configuration instead of the seed
  // register (the Lee et al. generator-defect class): a tap bit below the
  // MSB flips, turning the maximal-length polynomial into a short-cycle one
  // while keeping the mask legal for the LFSR.
  if ((r & 3u) == 0 && bits >= sc::Lfsr::kMinBits &&
      bits <= sc::Lfsr::kMaxBits && bits >= 3) {
    const std::uint32_t base =
        out.taps != 0 ? out.taps : sc::Lfsr::default_taps(bits);
    out.taps = base ^ (1u << ((r >> 2) % (bits - 1)));
  } else {
    out.seed = spec.seed ^ (1u << (r % std::max(bits, 1u)));
  }
  return out;
}

std::uint32_t FaultModel::sram_flip_mask(unsigned bits, SiteRng& rng) const {
  std::uint32_t flips = 0;
  for (unsigned b = 0; b < bits; ++b) {
    if (rng.uniform() >= cfg_.sram_error_rate) continue;
    for (int k = 0; k < cfg_.sram_burst && b + static_cast<unsigned>(k) < bits;
         ++k)
      flips |= 1u << (b + static_cast<unsigned>(k));
  }
  return flips;
}

FaultModel::SramRead FaultModel::sram_read(std::uint32_t word, unsigned bits,
                                           Site domain, std::uint64_t site) {
  if (cfg_.sram_error_rate <= 0.0 || bits == 0) return {word};
  SiteRng rng = rng_for(domain, site);
  const std::uint32_t flips = sram_flip_mask(bits, rng);
  if (flips == 0) return {word};
  sram_corrupted_.fetch_add(1, std::memory_order_relaxed);
  counters().sram_corrupted.add(1);
  const int weight = std::popcount(flips);
  switch (cfg_.ecc) {
    case EccMode::kNone:
      sram_silent_.fetch_add(1, std::memory_order_relaxed);
      counters().sram_silent.add(1);
      return {word ^ flips};
    case EccMode::kParity:
      if (weight % 2 == 1) {
        // Detected: the word is invalidated (detect-and-zero).
        sram_detected_.fetch_add(1, std::memory_order_relaxed);
        counters().sram_detected.add(1);
        return {0, true};
      }
      sram_silent_.fetch_add(1, std::memory_order_relaxed);
      counters().sram_silent.add(1);
      return {word ^ flips};
    case EccMode::kSecded:
      // Detected either way; the retry (re-read through the correction path)
      // costs two memory cycles, charged to the caller's stall ledger.
      sram_retry_cycles_.fetch_add(2, std::memory_order_relaxed);
      counters().sram_retry.add(2);
      if (weight == 1) {
        sram_corrected_.fetch_add(1, std::memory_order_relaxed);
        counters().sram_corrected.add(1);
        return {word, false, 2};  // corrected
      }
      sram_detected_.fetch_add(1, std::memory_order_relaxed);
      counters().sram_detected.add(1);
      return {0, true, 2};  // uncorrectable: detect-and-zero
  }
  return {word};
}

int FaultModel::corrupt_block(unsigned char* bytes, std::size_t length,
                              std::uint64_t site) {
  if (cfg_.io_rot_rate <= 0.0 || length == 0) return 0;
  SiteRng rng = rng_for(Site::kStoreBlock, site);
  if (rng.uniform() >= cfg_.io_rot_rate) return 0;
  // 1..4 bit flips at rng-chosen positions: enough to defeat any per-block
  // CRC, deterministic per (model seed, site) under the defect model.
  const int flips = 1 + static_cast<int>(rng.next() % 4);
  for (int i = 0; i < flips; ++i) {
    const std::uint64_t bit = rng.next() % (length * 8);
    bytes[bit >> 3] ^= static_cast<unsigned char>(1u << (bit & 7));
  }
  io_rotted_.fetch_add(1, std::memory_order_relaxed);
  counters().io_rot.add(1);
  return flips;
}

std::size_t FaultModel::short_read(std::size_t want, std::uint64_t site) {
  if (cfg_.io_short_read_rate <= 0.0 || want == 0) return want;
  SiteRng rng = rng_for_access(Site::kStoreBlock, site);
  if (rng.uniform() >= cfg_.io_short_read_rate) return want;
  io_short_reads_.fetch_add(1, std::memory_order_relaxed);
  counters().io_short_read.add(1);
  return static_cast<std::size_t>(rng.next() % want);
}

std::size_t FaultModel::short_write(std::size_t want, std::uint64_t site) {
  if (cfg_.io_short_write_rate <= 0.0 || want == 0) return want;
  SiteRng rng = rng_for_access(Site::kStoreBlock, site);
  if (rng.uniform() >= cfg_.io_short_write_rate) return want;
  io_short_writes_.fetch_add(1, std::memory_order_relaxed);
  counters().io_short_write.add(1);
  return static_cast<std::size_t>(rng.next() % want);
}

bool FaultModel::io_error(std::uint64_t site) {
  if (cfg_.io_error_rate <= 0.0) return false;
  SiteRng rng = rng_for_access(Site::kStoreBlock, site);
  if (rng.uniform() >= cfg_.io_error_rate) return false;
  io_errors_.fetch_add(1, std::memory_order_relaxed);
  counters().io_err.add(1);
  return true;
}

std::uint32_t FaultModel::apply_stuck(std::uint32_t count) {
  if (!cfg_.stuck.enabled()) return count;
  const std::uint32_t bit = 1u << cfg_.stuck.column;
  const std::uint32_t forced =
      cfg_.stuck.value ? (count | bit) : (count & ~bit);
  if (forced != count) {
    stuck_events_.fetch_add(1, std::memory_order_relaxed);
    counters().stuck.add(1);
  }
  return forced;
}

FaultStats FaultModel::stats() const {
  FaultStats s;
  s.stream_bits_flipped = stream_flips_.load(std::memory_order_relaxed);
  s.accum_bits_flipped = accum_flips_.load(std::memory_order_relaxed);
  s.seed_upsets = seed_upsets_.load(std::memory_order_relaxed);
  s.sram_words_corrupted = sram_corrupted_.load(std::memory_order_relaxed);
  s.sram_errors_detected = sram_detected_.load(std::memory_order_relaxed);
  s.sram_errors_corrected = sram_corrected_.load(std::memory_order_relaxed);
  s.sram_silent_corruptions = sram_silent_.load(std::memory_order_relaxed);
  s.sram_retry_cycles = sram_retry_cycles_.load(std::memory_order_relaxed);
  s.stuck_column_events = stuck_events_.load(std::memory_order_relaxed);
  s.io_blocks_rotted = io_rotted_.load(std::memory_order_relaxed);
  s.io_short_reads = io_short_reads_.load(std::memory_order_relaxed);
  s.io_short_writes = io_short_writes_.load(std::memory_order_relaxed);
  s.io_errors = io_errors_.load(std::memory_order_relaxed);
  return s;
}

// ------------------------------------------------------------ active model

namespace {

// Per-thread scoped override. The sentinel distinguishes "no override" from
// "ScopedFaultInjection(nullptr) disabled faults in this scope". Thread-local
// so concurrent sweep points can each install their own model; workers that
// should see a submitting thread's scope get it propagated explicitly via
// ScopedFaultOverride (exec::ThreadPool does this for every parallel_for).
// Stored as a uintptr_t so the slot is constant-initialized (no per-thread
// dynamic TLS init).
constexpr std::uintptr_t kNoOverride = ~static_cast<std::uintptr_t>(0);
thread_local std::uintptr_t t_override = kNoOverride;

std::uintptr_t encode(FaultModel* m) noexcept {
  return reinterpret_cast<std::uintptr_t>(m);
}

FaultModel* env_model() {
  static FaultModel* model = []() -> FaultModel* {
    const std::optional<FaultConfig> cfg = FaultConfig::from_env();
    if (!cfg.has_value() || !cfg->any()) return nullptr;
    return new FaultModel(*cfg);  // lives for the process
  }();
  return model;
}

}  // namespace

FaultModel* active() noexcept {
  const std::uintptr_t scoped = t_override;
  if (scoped != kNoOverride) return reinterpret_cast<FaultModel*>(scoped);
  return env_model();
}

ScopedFaultInjection::ScopedFaultInjection(const FaultConfig& cfg)
    : model_(std::make_unique<FaultModel>(cfg)), prev_(t_override) {
  t_override = encode(model_.get());
}

ScopedFaultInjection::ScopedFaultInjection(std::nullptr_t)
    : model_(nullptr), prev_(t_override) {
  t_override = encode(nullptr);
}

ScopedFaultInjection::~ScopedFaultInjection() { t_override = prev_; }

ScopedFaultOverride::ScopedFaultOverride(FaultModel* model) noexcept
    : prev_(t_override) {
  t_override = encode(model);
}

ScopedFaultOverride::~ScopedFaultOverride() { t_override = prev_; }

}  // namespace geo::fault
