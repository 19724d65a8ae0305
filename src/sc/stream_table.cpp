#include "sc/stream_table.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <mutex>

#include "core/env.hpp"
#include "sc/lfsr.hpp"
#include "sc/sobol.hpp"
#include "telemetry/telemetry.hpp"

namespace geo::sc {

namespace {

// A single table may not exceed this even when the total budget would allow
// it (one giant sequence must not evict-by-starvation everything else).
constexpr std::uint64_t kMaxTableBytes = 8ull << 20;
// Total registry byte budget; builds past it fall back to the tick path.
constexpr std::uint64_t kBudgetBytes = 256ull << 20;

// OR src's bits [from, to) into dst (both packed LSB-first, 64 per word).
void or_bit_range(std::uint64_t* dst, const std::uint64_t* src,
                  std::size_t from, std::size_t to) {
  if (from >= to) return;
  const std::size_t w0 = from / 64;
  const std::size_t w1 = (to - 1) / 64;
  const std::uint64_t first = ~0ull << (from % 64);
  const std::uint64_t last =
      to % 64 == 0 ? ~0ull : ~0ull >> (64 - to % 64);
  if (w0 == w1) {
    dst[w0] |= src[w0] & first & last;
    return;
  }
  dst[w0] |= src[w0] & first;
  for (std::size_t w = w0 + 1; w < w1; ++w) dst[w] |= src[w];
  dst[w1] |= src[w1] & last;
}

// ProgressiveSng::truncated, replicated for table composition: the
// comparator value visible with only the top `loaded` bits buffered.
std::uint32_t progressive_effective(std::uint32_t value, unsigned loaded,
                                    const ProgressiveSchedule& sched) {
  if (loaded == 0) return 0;
  const unsigned vb = sched.value_bits;
  const unsigned lb = sched.lfsr_bits;
  const std::uint32_t msbs = value >> (vb - loaded);
  const unsigned kept = loaded > lb ? lb : loaded;
  return msbs << (lb - kept);
}

}  // namespace

bool stream_table_enabled() {
  return core::env_int("GEO_STREAM_TABLE", 1, 0, 1) != 0;
}

std::size_t StreamTableKeyHash::operator()(
    const StreamTableKey& k) const noexcept {
  std::uint64_t h = static_cast<std::uint64_t>(k.kind);
  h = core::mix64(h ^ (static_cast<std::uint64_t>(k.bits) << 32 ^ k.seed));
  h = core::mix64(h ^ (static_cast<std::uint64_t>(k.taps) << 32 ^ k.length));
  return static_cast<std::size_t>(h);
}

// ------------------------------------------------------------ StreamTable

StreamTable StreamTable::build(RngKind kind, const SeedSpec& spec,
                               std::size_t length) {
  StreamTable t;
  t.bits_ = spec.bits;
  t.length_ = length;
  t.wpl_ = (length + 63) / 64;
  const std::size_t rows = std::size_t{1} << spec.bits;
  t.words_.assign(rows * t.wpl_, 0);

  // One sequence walk scatters each cycle into its one-hot level bitmap:
  // bit i of row R[i]. The walk replays exactly what Sng::generate sees
  // (reset first, then `length` next() calls).
  auto source = make_source(kind, spec);
  source->reset();
  for (std::size_t i = 0; i < length; ++i) {
    const std::uint32_t r = source->next();
    t.words_[static_cast<std::size_t>(r) * t.wpl_ + (i >> 6)] |=
        1ull << (i & 63);
  }
  // Prefix-OR the levels into comparator rows: row[v] = OR_{s<=v} level[s]
  // (bit i set iff R[i] <= v), then clear row 0 — a zero comparator value
  // never fires regardless of the sequence.
  for (std::size_t v = 1; v < rows; ++v) {
    const std::uint64_t* prev = &t.words_[(v - 1) * t.wpl_];
    std::uint64_t* cur = &t.words_[v * t.wpl_];
    for (std::size_t k = 0; k < t.wpl_; ++k) cur[k] |= prev[k];
  }
  std::fill(t.words_.begin(),
            t.words_.begin() + static_cast<std::ptrdiff_t>(t.wpl_), 0);
  return t;
}

// --------------------------------------------------- StreamTableRegistry

// One key's table, built under `once` by the first acquire; concurrent
// acquires block until it returns. `ready` is false when the build was
// refused (budget exceeded) or threw, and then the key stays a fallback.
struct StreamTableRegistry::Entry {
  std::once_flag once;
  bool ready = false;
  StreamTable table;
};

StreamTableRegistry::StreamTableRegistry() = default;

StreamTableRegistry& StreamTableRegistry::instance() {
  static StreamTableRegistry registry;
  return registry;
}

std::optional<StreamTableKey> StreamTableRegistry::canonical_key(
    RngKind kind, const SeedSpec& spec, std::size_t length) const {
  if (spec.bits < 1 || spec.bits > 24) return std::nullopt;
  if (length == 0 || length > (std::size_t{1} << 31)) return std::nullopt;
  const std::uint32_t mask = (1u << spec.bits) - 1u;
  StreamTableKey k;
  k.kind = kind;
  k.bits = spec.bits;
  k.length = static_cast<std::uint32_t>(length);
  switch (kind) {
    case RngKind::kLfsr: {
      if (spec.bits < Lfsr::kMinBits) return std::nullopt;
      // Mirror the Lfsr constructor's normalization so equivalent specs
      // share one table: taps 0 -> default polynomial, masked to the width;
      // seed masked, the absorbing all-zero state remapped to 1.
      std::uint32_t taps =
          (spec.taps != 0 ? spec.taps : Lfsr::default_taps(spec.bits)) & mask;
      if (taps == 0) return std::nullopt;  // Lfsr would throw; let it
      k.taps = taps;
      k.seed = spec.seed & mask;
      if (k.seed == 0) k.seed = 1;
      break;
    }
    case RngKind::kCounter:
      k.seed = spec.seed & mask;
      break;
    case RngKind::kSobol:
      k.seed = spec.seed % SobolSource::kDimensions;
      break;
    case RngKind::kTrng:
      return std::nullopt;  // fresh randomness per stream, never cacheable
  }
  return k;
}

const StreamTable* StreamTableRegistry::acquire(RngKind kind,
                                                const SeedSpec& spec,
                                                std::size_t length) {
  auto& metrics = telemetry::MetricsRegistry::instance();
  // Looked up once: these fire for every generated stream, and a lookup by
  // name takes the metrics registry's lock, which generators contend on.
  static telemetry::Counter& hit_counter =
      metrics.counter("machine.stream_table_hits");
  static telemetry::Counter& fallback_counter =
      metrics.counter("machine.stream_table_fallbacks");
  const auto key = canonical_key(kind, spec, length);
  if (!key.has_value()) {
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    fallback_counter.add(1);
    return nullptr;
  }

  Entry* entry = nullptr;
  {
    std::shared_lock lock(mu_);
    const auto it = map_.find(*key);
    if (it != map_.end()) entry = it->second.get();
  }
  if (entry == nullptr) {
    std::unique_lock lock(mu_);
    auto [it, inserted] = map_.try_emplace(*key);
    if (inserted) it->second = std::make_unique<Entry>();
    entry = it->second.get();
  }

  bool built = false;
  std::call_once(entry->once, [&] {
    built = true;
    // Reserve the footprint first so a flood of distinct keys (e.g. a high
    // seed-upset fault rate minting corrupted specs) degrades to the tick
    // path instead of unbounded memory.
    const std::uint64_t need = StreamTable::bytes_for(spec.bits, length);
    std::int64_t build_ns = 0;
    if (need <= kMaxTableBytes) {
      if (bytes_.fetch_add(need, std::memory_order_relaxed) + need <=
          kBudgetBytes) {
        try {
          const auto t0 = std::chrono::steady_clock::now();
          entry->table = StreamTable::build(kind, spec, length);
          const auto t1 = std::chrono::steady_clock::now();
          build_ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count();
          metrics.counter("machine.stream_table_build_ns").add(build_ns);
          entry->ready = true;
        } catch (...) {
          bytes_.fetch_sub(need, std::memory_order_relaxed);
        }
      } else {
        bytes_.fetch_sub(need, std::memory_order_relaxed);
      }
    }
    if (auto& journal = telemetry::Journal::instance(); journal.enabled())
      journal.record(
          entry->ready ? "stream_table.build" : "stream_table.fallback",
          std::string(to_string(kind)) + "/b" + std::to_string(spec.bits) +
              "/L" + std::to_string(length),
          {{"bytes", static_cast<double>(need)},
           {"build_ns", static_cast<double>(build_ns)}},
          entry->ready ? std::string_view{} : "budget");
  });
  if (entry->ready) {
    if (built) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      metrics.counter("machine.stream_table_misses").add(1);
    } else {
      hits_.fetch_add(1, std::memory_order_relaxed);
      hit_counter.add(1);
    }
    return &entry->table;
  }
  fallbacks_.fetch_add(1, std::memory_order_relaxed);
  fallback_counter.add(1);
  return nullptr;
}

std::size_t StreamTableRegistry::size() const {
  std::shared_lock lock(mu_);
  return map_.size();
}

void StreamTableRegistry::clear() {
  std::unique_lock lock(mu_);
  map_.clear();
  bytes_.store(0, std::memory_order_relaxed);
}

// -------------------------------------------------------- StreamGenerator

StreamGenerator& StreamGenerator::local() {
  thread_local StreamGenerator generator;
  return generator;
}

Sng& StreamGenerator::plain(RngKind kind, const SeedSpec& spec) {
  auto& slot = sng_[static_cast<std::size_t>(kind)];
  if (slot == nullptr)
    slot = std::make_unique<Sng>(kind, spec);
  else
    slot->reseed(spec);
  return *slot;
}

ProgressiveSng& StreamGenerator::progressive(
    RngKind kind, const SeedSpec& spec, const ProgressiveSchedule& sched) {
  auto& slot = prog_[static_cast<std::size_t>(kind)];
  if (slot == nullptr || !(slot->schedule() == sched))
    slot = std::make_unique<ProgressiveSng>(kind, spec, sched);
  else
    slot->reseed(spec);
  return *slot;
}

void StreamGenerator::generate(std::uint64_t* dst, std::size_t wpl,
                               std::size_t length, RngKind kind,
                               const SeedSpec& spec, std::uint32_t vn,
                               bool use_table) {
  assert(wpl >= (length + 63) / 64);
  (void)wpl;
  const std::uint32_t max = (1u << spec.bits) - 1u;
  if (vn > max) vn = max;  // Sng::load saturates the same way
  if (vn == 0) return;     // a zero value never fires; dst stays zero
  if (use_table) {
    if (const StreamTable* t =
            StreamTableRegistry::instance().acquire(kind, spec, length)) {
      std::copy(t->row(vn), t->row(vn) + t->wpl(), dst);
      return;
    }
  }
  Sng& sng = plain(kind, spec);
  sng.source().reset();
  sng.load(vn);
  for (std::size_t i = 0; i < length; ++i)
    if (sng.tick()) dst[i >> 6] |= 1ull << (i & 63);
}

void StreamGenerator::generate_progressive(
    std::uint64_t* dst, std::size_t wpl, std::size_t length, RngKind kind,
    const SeedSpec& spec, const ProgressiveSchedule& sched,
    std::uint32_t value, bool use_table) {
  assert(wpl >= (length + 63) / 64);
  (void)wpl;
  const std::uint32_t vmax = (1u << sched.value_bits) - 1u;
  if (value > vmax) value = vmax;  // ProgressiveSng::begin saturates too
  if (use_table && spec.bits == sched.lfsr_bits && sched.group_bits != 0 &&
      sched.beat_cycles != 0) {
    if (const StreamTable* t =
            StreamTableRegistry::instance().acquire(kind, spec, length)) {
      // The effective comparator value is a step function of the cycle: it
      // changes only at load beats and freezes once fully loaded. Each
      // constant segment is a masked copy of that value's table row.
      const unsigned target = sched.bits_to_load();
      std::size_t t0 = 0;
      while (t0 < length) {
        const unsigned loaded = sched.loaded_bits(t0);
        const std::size_t t1 =
            loaded >= target
                ? length
                : std::min<std::size_t>(
                      length, (t0 / sched.beat_cycles + 1) *
                                  sched.beat_cycles);
        const std::uint32_t eff =
            progressive_effective(value, loaded, sched);
        if (eff != 0) or_bit_range(dst, t->row(eff), t0, t1);
        t0 = t1;
      }
      return;
    }
  }
  ProgressiveSng& sng = progressive(kind, spec, sched);
  sng.begin(value);
  for (std::size_t i = 0; i < length; ++i)
    if (sng.tick()) dst[i >> 6] |= 1ull << (i & 63);
}

}  // namespace geo::sc
