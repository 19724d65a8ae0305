#include "arch/machine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstring>
#include <list>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "arch/attribution.hpp"
#include "arch/perf_sim.hpp"
#include "core/env.hpp"
#include "exec/parallel_conv.hpp"
#include "fault/fault_model.hpp"
#include "nn/quantize.hpp"
#include "sc/stream_table.hpp"
#include "telemetry/telemetry.hpp"

namespace geo::arch {

void apply_bn_relu(std::span<const std::int32_t> counters,
                   std::span<const float> bn_scale,
                   std::span<const float> bn_shift, int stream_len,
                   std::int64_t per_channel,
                   std::span<std::uint8_t> activations) {
  const double inv_len = 1.0 / static_cast<double>(stream_len);
  const auto cout = static_cast<std::int64_t>(bn_scale.size());
  for (std::int64_t oc = 0; oc < cout; ++oc)
    for (std::int64_t i = 0; i < per_channel; ++i) {
      const std::size_t oidx =
          static_cast<std::size_t>(oc * per_channel + i);
      const double value = counters[oidx] * inv_len;
      const double bn = bn_scale[static_cast<std::size_t>(oc)] * value +
                        bn_shift[static_cast<std::size_t>(oc)];
      const double act_out = std::clamp(bn, 0.0, 1.0);
      activations[oidx] = static_cast<std::uint8_t>(
          nn::quantize_unsigned(static_cast<float>(act_out), 8));
    }
}

// ---------------------------------------------------------- WeightBankCache

namespace {

// Generates a layer's weight bank; the one place the machine does, so every
// generation, cached or not, emits the machine.weight_streams span. The
// weight SRAM reads' ECC retry cycles are added to `retry_cycles`.
std::shared_ptr<const WeightBank> generate_bank(const nn::ScLayerConfig& cfg,
                                                const nn::ScShape& shape,
                                                const nn::LayerSeeds& seeds,
                                                std::span<const float> weights,
                                                fault::FaultModel* fm,
                                                bool use_table,
                                                std::int64_t& retry_cycles) {
  telemetry::ScopedTimer t(
      "machine.weight_streams", "machine",
      {{"streams", static_cast<double>(weights.size())}});
  auto bank = std::make_shared<WeightBank>();
  retry_cycles += nn::generate_weight_bank(cfg, shape, seeds, weights, fm,
                                           use_table, bank->pos, bank->neg);
  return bank;
}

// Everything but the weights that generate_weight_bank reads.
struct BankKey {
  nn::ScLayerConfig cfg;
  std::array<int, 8> geometry{};  // cin, hin, win, cout, kh, kw, stride, pad
  bool use_table = false;

  bool operator==(const BankKey&) const = default;
};

std::uint64_t bank_digest(const BankKey& k, std::span<const float> weights) {
  std::uint64_t h = 0x6A09E667F3BCC909ull;
  const auto fold = [&h](std::uint64_t v) { h = core::mix64(h ^ v); };
  fold(static_cast<std::uint64_t>(k.cfg.rng));
  fold(static_cast<std::uint64_t>(k.cfg.sharing));
  fold(static_cast<std::uint64_t>(k.cfg.accum));
  fold(static_cast<std::uint64_t>(k.cfg.stream_len));
  fold(k.cfg.value_bits);
  fold(k.cfg.progressive);
  fold(k.cfg.layer_salt);
  for (const int g : k.geometry) fold(static_cast<std::uint32_t>(g));
  fold(k.use_table);
  fold(weights.size());
  // The weights run through four independent multiply-xorshift lanes, so
  // the pass is not bound by one mix64 latency per word.
  const auto* bytes = reinterpret_cast<const unsigned char*>(weights.data());
  const std::size_t n = weights.size_bytes();
  std::uint64_t lane[4] = {h, ~h, h ^ 0x9E3779B97F4A7C15ull, h + 1};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32)
    for (int l = 0; l < 4; ++l) {
      std::uint64_t word;
      std::memcpy(&word, bytes + i + 8 * l, 8);
      lane[l] = (lane[l] ^ word) * 0xFF51AFD7ED558CCDull;
      lane[l] ^= lane[l] >> 29;
    }
  for (; i < n; i += sizeof(float)) {
    std::uint32_t word;
    std::memcpy(&word, bytes + i, sizeof(float));
    fold(word);
  }
  for (const std::uint64_t l : lane) fold(l);
  return h;
}

}  // namespace

struct WeightBankCache::Impl {
  struct Entry {
    std::uint64_t digest = 0;
    BankKey key;
    std::vector<float> weights;
    std::shared_ptr<const WeightBank> bank;
    std::uint64_t bytes = 0;
  };
  using Lru = std::list<std::shared_ptr<const Entry>>;  // most recent first

  std::uint64_t budget = 0;
  mutable std::mutex mu;  // guards lru, by_digest and resident
  Lru lru;
  std::unordered_map<std::uint64_t, Lru::iterator> by_digest;
  std::uint64_t resident = 0;
  std::atomic<std::int64_t> hits{0}, misses{0};

  void erase(Lru::iterator it) {
    resident -= (*it)->bytes;
    by_digest.erase((*it)->digest);
    lru.erase(it);
  }
};

WeightBankCache::WeightBankCache(std::uint64_t budget_bytes)
    : impl_(std::make_unique<Impl>()) {
  impl_->budget = budget_bytes;
}

WeightBankCache::~WeightBankCache() = default;

WeightBankCache& WeightBankCache::instance() {
  static WeightBankCache cache;
  return cache;
}

std::shared_ptr<const WeightBank> WeightBankCache::acquire(
    const nn::ScLayerConfig& cfg, const nn::ScShape& shape,
    std::span<const float> weights, bool use_table) {
  Impl& im = *impl_;
  const BankKey key{cfg,
                    {shape.cin, shape.hin, shape.win, shape.cout, shape.kh,
                     shape.kw, shape.stride, shape.pad},
                    use_table};
  const std::uint64_t digest = bank_digest(key, weights);
  std::shared_ptr<const Impl::Entry> found;
  {
    const std::lock_guard<std::mutex> lock(im.mu);
    if (const auto it = im.by_digest.find(digest); it != im.by_digest.end()) {
      im.lru.splice(im.lru.begin(), im.lru, it->second);
      found = *it->second;
    }
  }
  // The entry is immutable, so the exact compare runs outside the lock.
  if (found != nullptr && found->key == key &&
      found->weights.size() == weights.size() &&
      std::memcmp(found->weights.data(), weights.data(),
                  weights.size_bytes()) == 0) {
    ++im.hits;
    telemetry::MetricsRegistry::instance()
        .counter("machine.weight_bank_hits")
        .add(1);
    return found->bank;
  }

  auto entry = std::make_shared<Impl::Entry>();
  std::int64_t no_retries = 0;  // no fault model: no SRAM retries
  entry->bank = generate_bank(cfg, shape, nn::LayerSeeds(cfg, shape),
                              weights, nullptr, use_table, no_retries);
  entry->digest = digest;
  entry->key = key;
  entry->weights.assign(weights.begin(), weights.end());
  entry->bytes = (entry->bank->pos.size() + entry->bank->neg.size()) *
                     sizeof(std::uint64_t) +
                 weights.size_bytes();
  std::shared_ptr<const WeightBank> bank = entry->bank;

  ++im.misses;
  const std::lock_guard<std::mutex> lock(im.mu);
  if (entry->bytes > im.budget) return bank;
  if (const auto it = im.by_digest.find(digest); it != im.by_digest.end())
    im.erase(it->second);
  while (im.resident + entry->bytes > im.budget)
    im.erase(std::prev(im.lru.end()));
  im.lru.push_front(std::move(entry));
  im.by_digest.emplace(digest, im.lru.begin());
  im.resident += im.lru.front()->bytes;
  return bank;
}

std::int64_t WeightBankCache::hits() const { return impl_->hits.load(); }

std::int64_t WeightBankCache::misses() const { return impl_->misses.load(); }

std::uint64_t WeightBankCache::resident_bytes() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->resident;
}

std::size_t WeightBankCache::size() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->lru.size();
}

// ----------------------------------------------------------- ConvExecution

struct ConvExecution::Impl {
  HwConfig hw;
  ConvShape shape;
  LayerPlan plan;
  PassCost pass;  // charged on every pass run_tile runs
  nn::ScLayerConfig cfg;
  std::span<const float> input;
  std::vector<float> bn_scale, bn_shift;
  fault::FaultModel* fm = nullptr;
  // This execution's own SRAM record, never the model-wide FaultStats: the
  // ECC retry cycles of its weight-bank and activation reads, charged at
  // finish. Only while an SRAM fault model is active: one flag per
  // activation slot, set when its latest generation read a zeroed word, and
  // per tile the distinct zeroed slots its latest run read.
  std::int64_t ecc_retry_cycles = 0;
  std::vector<std::uint8_t> act_zeroed;
  std::vector<std::int64_t> tile_zeroed;

  std::size_t wpl = 0;
  std::int64_t xy = 0, M = 0;
  int R = 0, chans_at_once = 0, windows_per_pass = 0, slices = 0;
  nn::TapLayout layout;
  // GEO_STREAM_TABLE, sampled once per layer so a run's generation strategy
  // is coherent even if the environment changes mid-layer.
  bool use_stream_table = true;

  std::optional<nn::LayerSeeds> seeds;
  std::shared_ptr<const WeightBank> bank;  // shared, read-only
  // Every input slot's activation stream, generated at prepare (slot s at
  // s*wpl); tiles only read it.
  std::vector<std::uint64_t> act;

  std::int64_t tiles_cg = 0, tiles_wg = 0;

  MachineResult result;
  // Guards result.stats merges from concurrent run_tile calls. Tile deltas
  // are integer sums, so the merge order never changes the totals.
  std::mutex stats_mu;
  std::optional<telemetry::ScopedTimer> run_timer;
  telemetry::Histogram* pass_hist = nullptr;
  telemetry::Histogram* mac_hist = nullptr;

  std::vector<std::size_t> tile_inputs(std::int64_t tile) const;
  MachineStats run_tile(std::int64_t tile);
  MachineResult finish();
};

// The distinct activation-stream slots feeding `tile`, ascending (windows
// overlap, so a slot read by several taps appears once).
std::vector<std::size_t> ConvExecution::Impl::tile_inputs(
    std::int64_t tile) const {
  const std::int64_t wg = tile % tiles_wg;
  std::vector<std::size_t> slots;
  for (int wslot = 0; wslot < windows_per_pass; ++wslot) {
    const std::int64_t pos = wg * windows_per_pass + wslot;
    if (pos >= xy) break;
    nn::for_each_window_tap(
        shape, static_cast<std::size_t>(pos), 0, shape.taps(),
        [&slots](int, std::size_t aidx) { slots.push_back(aidx); });
  }
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  return slots;
}

MachineStats ConvExecution::Impl::run_tile(std::int64_t tile) {
  const int cg = static_cast<int>(tile / tiles_wg);
  const std::int64_t wg = tile % tiles_wg;
  // This run's cost, merged into result.stats at the end — concurrent tiles
  // each accumulate privately so the totals are sums of per-tile integers,
  // identical in any merge order.
  MachineStats st;
  // The accumulator's working buffers are per run: concurrent tiles must not
  // share them. The tile's rows are channels [c0, c0 + nch), contiguous at
  // every tap of the tap-major bank.
  nn::ScAccumulator acc(layout, static_cast<std::size_t>(cfg.stream_len),
                        shape.cout, fm);
  const int c0 = cg * R;
  std::vector<nn::ScAccumulator::Sum> sums(
      static_cast<std::size_t>(std::min(chans_at_once, shape.cout - c0)));
  const std::uint64_t* row_pos =
      &bank->pos[static_cast<std::size_t>(c0) * wpl];
  const std::uint64_t* row_neg =
      &bank->neg[static_cast<std::size_t>(c0) * wpl];
  std::vector<const std::uint64_t*> taps(
      static_cast<std::size_t>(shape.taps()));

  for (int p = 0; p < slices; ++p) {
    telemetry::ScopedTimer pass_timer(
        *pass_hist, "machine.pass", "machine",
        {{"channel_group", static_cast<double>(cg)},
         {"window_group", static_cast<double>(wg)},
         {"kernel_slice", static_cast<double>(p)},
         {"act_fills", static_cast<double>(plan.act_loads_per_pass)},
         {"wgt_fills", static_cast<double>(plan.wgt_loads_per_pass)}});
    ++st.passes;
    // -- reload accounting: the functional fills below are exact, the
    //    pass's cycles come from the cost model PerfSim also uses.
    st.act_buffer_fills += plan.act_loads_per_pass;
    st.wgt_buffer_fills += plan.wgt_loads_per_pass;
    st.stall_cycles += pass.stall_cycles;
    st.compute_cycles += pass.compute_cycles;

    // -- bit-exact computation of this pass's outputs: each window's taps
    //    are gathered once and broadcast to every row of the channel group.
    telemetry::ScopedTimer mac_timer(*mac_hist, "machine.mac_rows",
                                     "machine");
    const int tap_lo = static_cast<int>(p * M);
    const int tap_hi = static_cast<int>(
        std::min<std::int64_t>(shape.taps(), (p + 1) * M));
    for (int wslot = 0; wslot < windows_per_pass; ++wslot) {
      const std::int64_t pos = wg * windows_per_pass + wslot;
      if (pos >= xy) break;
      std::fill(taps.begin() + tap_lo, taps.begin() + tap_hi, nullptr);
      nn::for_each_window_tap(shape, static_cast<std::size_t>(pos), tap_lo,
                              tap_hi, [&](int t, std::size_t aidx) {
                                taps[static_cast<std::size_t>(t)] =
                                    &act[aidx * wpl];
                              });
      const std::size_t oidx = static_cast<std::size_t>(c0) * xy +
                               static_cast<std::size_t>(pos);
      acc.accumulate(oidx, static_cast<std::size_t>(xy), tap_lo, tap_hi,
                     taps.data(), row_pos, row_neg, sums);
      for (std::size_t c = 0; c < sums.size(); ++c) {
        const auto sum = static_cast<std::int32_t>(sums[c].counter);
        // The first slice replaces the counter, so a retry-from-snapshot
        // never double-counts. Later slices accumulate onto it; the plan
        // spills the partial sum to near memory (read-add-write) only when
        // the fabric has it, otherwise it stays in the output converter.
        std::int32_t& counter =
            result.counters[oidx + c * static_cast<std::size_t>(xy)];
        counter = p == 0 ? sum : counter + sum;
        if (p > 0 && plan.nm_psum_ops > 0) ++st.psum_ops;
      }
    }
  }

  // Record the zeroed words this run consumed. No slot is regenerated while
  // a tile runs, so the flags read now are the ones the run's streams came
  // from; each slot counts once however many windows share it.
  if (!act_zeroed.empty()) {
    const std::vector<std::size_t> slots = tile_inputs(tile);
    tile_zeroed[static_cast<std::size_t>(tile)] = std::count_if(
        slots.begin(), slots.end(),
        [this](std::size_t aidx) { return act_zeroed[aidx] != 0; });
  }

  {
    const std::lock_guard<std::mutex> lock(stats_mu);
    MachineStats& g = result.stats;
    g.passes += st.passes;
    g.compute_cycles += st.compute_cycles;
    g.stall_cycles += st.stall_cycles;
    g.retry_stall_cycles += st.retry_stall_cycles;
    g.io_stall_cycles += st.io_stall_cycles;
    g.act_buffer_fills += st.act_buffer_fills;
    g.wgt_buffer_fills += st.wgt_buffer_fills;
    g.psum_ops += st.psum_ops;
  }
  return st;
}

MachineResult ConvExecution::Impl::finish() {
  MachineStats& st = result.stats;
  auto& metrics = telemetry::MetricsRegistry::instance();

  // ---- near-memory BN + bounded ReLU + write-back ------------------------
  {
    telemetry::ScopedTimer bn_timer("machine.bn_relu", "machine");
    apply_bn_relu(result.counters, bn_scale, bn_shift, cfg.stream_len, xy,
                  result.activations);
    if (hw.near_memory) st.bn_ops += shape.outputs();
  }

  const double lanes = std::max(1, hw.mem_port_bits / 16);
  st.nearmem_cycles = static_cast<std::int64_t>(
      2.0 * (st.psum_ops + st.bn_ops) / lanes);
  // ECC retries on this execution's faulty SRAM reads stall the fill
  // network; they are recovery work, so they land in the retry sub-bucket
  // as well.
  st.stall_cycles += ecc_retry_cycles;
  st.retry_stall_cycles += ecc_retry_cycles;
  st.total_cycles = st.compute_cycles + st.stall_cycles + st.nearmem_cycles;
  // The cycle ledger must balance: every total cycle is attributed to
  // exactly one of compute / stall / near-memory, the retry sub-bucket
  // must fit inside the stall bucket, and no bucket may go negative (a
  // negative bucket means an accounting bug or overflow). This check is
  // always on — in release builds a violation marks the stats invalid and
  // bumps machine.ledger_mismatch instead of aborting.
  st.ledger_ok =
      st.compute_cycles >= 0 && st.stall_cycles >= 0 &&
      st.nearmem_cycles >= 0 && st.total_cycles >= 0 &&
      st.retry_stall_cycles >= 0 && st.io_stall_cycles >= 0 &&
      st.retry_stall_cycles + st.io_stall_cycles <= st.stall_cycles &&
      st.total_cycles ==
          st.compute_cycles + st.stall_cycles + st.nearmem_cycles;
  if (!st.ledger_ok) metrics.counter("machine.ledger_mismatch").add(1);
  assert(st.ledger_ok && "machine cycle ledger must reconcile");

  // Mirror the per-run stats into the process-wide registry so telemetry
  // consumers see the same ledger MachineStats reports (the machine_test
  // reconciliation assertion depends on these staying in lockstep).
  metrics.counter("machine.passes").add(st.passes);
  metrics.counter("machine.compute_cycles").add(st.compute_cycles);
  metrics.counter("machine.stall_cycles").add(st.stall_cycles);
  metrics.counter("machine.retry_stall_cycles").add(st.retry_stall_cycles);
  metrics.counter("machine.io_stall_cycles").add(st.io_stall_cycles);
  metrics.counter("machine.nearmem_cycles").add(st.nearmem_cycles);
  metrics.counter("machine.total_cycles").add(st.total_cycles);
  metrics.counter("machine.act_buffer_fills").add(st.act_buffer_fills);
  metrics.counter("machine.wgt_buffer_fills").add(st.wgt_buffer_fills);
  metrics.counter("machine.psum_ops").add(st.psum_ops);
  metrics.counter("machine.bn_ops").add(st.bn_ops);
  metrics.counter("machine.layers_executed").add(1);
  // Feed the per-layer generation/execution breakdown (paper Fig. 6's
  // runtime analogue); the ledger republishes the attr.* gauges/counters.
  AttributionLedger::instance().record(
      shape.name.empty() ? "conv" : shape.name, st);
  run_timer.reset();  // close the machine.run_conv span
  return std::move(result);
}

ConvExecution::ConvExecution(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
ConvExecution::ConvExecution(ConvExecution&&) noexcept = default;
ConvExecution& ConvExecution::operator=(ConvExecution&&) noexcept = default;
ConvExecution::~ConvExecution() = default;

std::int64_t ConvExecution::tile_count() const {
  return impl_->tiles_cg * impl_->tiles_wg;
}

std::vector<std::size_t> ConvExecution::tile_outputs(std::int64_t tile) const {
  const Impl& im = *impl_;
  const int cg = static_cast<int>(tile / im.tiles_wg);
  const std::int64_t wg = tile % im.tiles_wg;
  std::vector<std::size_t> out;
  for (int c = 0; c < im.chans_at_once; ++c) {
    const int oc = cg * im.R + c;
    if (oc >= im.shape.cout) break;
    for (int wslot = 0; wslot < im.windows_per_pass; ++wslot) {
      const std::int64_t pos =
          wg * im.windows_per_pass + wslot;
      if (pos >= im.xy) break;
      out.push_back(static_cast<std::size_t>(oc) *
                        static_cast<std::size_t>(im.xy) +
                    static_cast<std::size_t>(pos));
    }
  }
  return out;
}

MachineStats ConvExecution::run_tile(std::int64_t tile) {
  return impl_->run_tile(tile);
}

void ConvExecution::regenerate_tile_inputs(std::int64_t tile) {
  Impl& im = *impl_;
  // Each distinct slot once, serially. Streams are shared across tiles, so
  // a neighbouring tile that runs later reads the regenerated stream (same
  // seed, same SRAM word: bit-identical unless a fault model intervenes).
  const std::vector<std::size_t> slots = im.tile_inputs(tile);
  for (const std::size_t aidx : slots) {
    const fault::FaultModel::SramRead read = nn::generate_activation_stream(
        &im.act[aidx * im.wpl], im.cfg, *im.seeds, aidx, im.input[aidx],
        im.fm, im.use_stream_table);
    if (!im.act_zeroed.empty()) im.act_zeroed[aidx] = read.zeroed;
    im.ecc_retry_cycles += read.retry_cycles;
  }
  telemetry::MetricsRegistry::instance()
      .counter("machine.act_streams_generated")
      .add(static_cast<std::int64_t>(slots.size()));
}

std::int64_t ConvExecution::zeroed_inputs(std::int64_t tile) const {
  const std::vector<std::int64_t>& rec = impl_->tile_zeroed;
  return rec.empty() ? 0 : rec[static_cast<std::size_t>(tile)];
}

std::span<const std::int32_t> ConvExecution::counters() const {
  return impl_->result.counters;
}

void ConvExecution::add_stall_cycles(std::int64_t cycles) {
  // Injected stalls are always recovery work (retry backoff, scrubbing),
  // never generation cost, so they land in the retry sub-bucket too.
  impl_->result.stats.stall_cycles += cycles;
  impl_->result.stats.retry_stall_cycles += cycles;
}

void ConvExecution::add_io_stall_cycles(std::int64_t cycles) {
  impl_->result.stats.stall_cycles += cycles;
  impl_->result.stats.io_stall_cycles += cycles;
}

const nn::ScLayerConfig& ConvExecution::config() const { return impl_->cfg; }

MachineResult ConvExecution::finish() { return impl_->finish(); }

// ----------------------------------------------------------------- machine

GeoMachine::GeoMachine(const HwConfig& hw) : hw_(hw) {}

nn::ScLayerConfig GeoMachine::layer_config(const ConvShape& shape,
                                           std::uint64_t layer_salt) const {
  const Compiler compiler(hw_);
  nn::ScLayerConfig cfg;
  cfg.rng = hw_.lfsr_per_sng ? sc::RngKind::kTrng : sc::RngKind::kLfsr;
  cfg.sharing = hw_.sharing;
  cfg.accum = hw_.accum;
  cfg.stream_len = compiler.stream_len_for(shape);
  cfg.value_bits = static_cast<unsigned>(hw_.sng_value_bits);
  cfg.progressive = hw_.progressive;
  cfg.layer_salt = layer_salt;
  return cfg;
}

geo::Status GeoMachine::validate_conv(const ConvShape& shape,
                                      std::span<const float> weights,
                                      std::span<const float> input,
                                      std::span<const float> bn_scale,
                                      std::span<const float> bn_shift) const {
  auto fail = [](const std::string& msg) {
    return geo::Status::invalid_argument("GeoMachine: " + msg);
  };
  if (shape.cin < 1 || shape.cout < 1 || shape.hin < 1 || shape.win < 1 ||
      shape.kh < 1 || shape.kw < 1)
    return fail("shape '" + shape.name + "' has non-positive dimensions");
  if (shape.stride < 1)
    return fail("shape '" + shape.name + "' has stride < 1");
  if (shape.pad < 0)
    return fail("shape '" + shape.name + "' has negative padding");
  if (shape.kh > shape.hin + 2 * shape.pad ||
      shape.kw > shape.win + 2 * shape.pad)
    return fail("shape '" + shape.name + "' kernel exceeds padded input");
  if (shape.hout() < 1 || shape.wout() < 1)
    return fail("shape '" + shape.name + "' yields an empty output");
  if (weights.size() != static_cast<std::size_t>(shape.weights()))
    return fail("weight count mismatch: got " +
                std::to_string(weights.size()) + ", shape wants " +
                std::to_string(shape.weights()));
  if (input.size() != static_cast<std::size_t>(shape.activations()))
    return fail("input size mismatch: got " + std::to_string(input.size()) +
                ", shape wants " + std::to_string(shape.activations()));
  if (bn_scale.size() != static_cast<std::size_t>(shape.cout) ||
      bn_shift.size() != bn_scale.size())
    return fail("BN coefficient count mismatch: got " +
                std::to_string(bn_scale.size()) + "/" +
                std::to_string(bn_shift.size()) + ", shape wants " +
                std::to_string(shape.cout));
  return geo::Status();
}

MachineResult GeoMachine::run_conv(const ConvShape& shape,
                                   std::span<const float> weights,
                                   std::span<const float> input,
                                   std::span<const float> bn_scale,
                                   std::span<const float> bn_shift,
                                   std::uint64_t layer_salt) {
  auto result = try_run_conv(shape, weights, input, bn_scale, bn_shift,
                             layer_salt);
  if (!result.ok()) throw std::invalid_argument(result.status().to_string());
  return std::move(result).value();
}

geo::StatusOr<MachineResult> GeoMachine::try_run_conv(
    const ConvShape& shape, std::span<const float> weights,
    std::span<const float> input, std::span<const float> bn_scale,
    std::span<const float> bn_shift, std::uint64_t layer_salt) {
  auto exec = prepare_conv(shape, weights, input, bn_scale, bn_shift,
                           layer_salt);
  if (!exec.ok()) return exec.status();
  ConvExecution execution = std::move(exec).value();
  // Tiles are independent; the runner fans them across the GEO_THREADS pool
  // (bit-identical to the serial loop at any thread count, and exactly the
  // serial loop at GEO_THREADS=1). An exception escaping a tile — e.g. an
  // SC kernel rejecting a degenerate configuration — is rethrown on this
  // thread by the pool and converted to a Status here instead of tearing
  // down a worker.
  try {
    exec::ParallelConvRunner().run_all(execution);
    return execution.finish();
  } catch (const std::exception& e) {
    return geo::Status::internal(
        std::string("GeoMachine: conv execution failed: ") + e.what());
  }
}

geo::StatusOr<ConvExecution> GeoMachine::prepare_conv(
    const ConvShape& shape, std::span<const float> weights,
    std::span<const float> input, std::span<const float> bn_scale,
    std::span<const float> bn_shift, std::uint64_t layer_salt) {
  // Fail closed: reject malformed layers before any buffer is allocated or
  // any telemetry is emitted.
  if (geo::Status s =
          validate_conv(shape, weights, input, bn_scale, bn_shift);
      !s.ok())
    return s;

  auto impl = std::make_unique<ConvExecution::Impl>();
  impl->run_timer.emplace("machine.run_conv", "machine");
  impl->hw = hw_;
  impl->shape = shape;
  const Compiler compiler(hw_);
  impl->plan = compiler.plan_layer(shape, compiler.natural_dataflow());
  impl->pass = pass_cost(impl->plan, hw_);
  impl->cfg = layer_config(shape, layer_salt);
  impl->input = input;
  impl->bn_scale.assign(bn_scale.begin(), bn_scale.end());
  impl->bn_shift.assign(bn_shift.begin(), bn_shift.end());

  impl->fm = fault::active();
  impl->use_stream_table = sc::stream_table_enabled();

  const nn::ScLayerConfig& cfg = impl->cfg;
  impl->wpl = static_cast<std::size_t>((cfg.stream_len + 63) / 64);
  impl->xy = static_cast<std::int64_t>(shape.hout()) * shape.wout();
  impl->seeds.emplace(cfg, shape);
  fault::FaultModel* const fm = impl->fm;

  // ---- weight memory -> weight SNG streams (whole filter bank) ----------
  // A clean bank is a pure function of the layer, so it comes from the
  // process cache. With a fault model active (a zero-rate one included),
  // generation reads fault sites and charges ECC retries, so it runs here.
  impl->bank = fm == nullptr
                   ? WeightBankCache::instance().acquire(
                         cfg, shape, weights, impl->use_stream_table)
                   : generate_bank(cfg, shape, *impl->seeds, weights, fm,
                                   impl->use_stream_table,
                                   impl->ecc_retry_cycles);

  // ---- activation memory -> activation SNG streams (every slot, once) ---
  const bool sram_record = fm != nullptr && fm->sram_active();
  if (sram_record) impl->act_zeroed.assign(input.size(), 0);
  impl->ecc_retry_cycles += nn::generate_activation_streams(
      cfg, *impl->seeds, input, fm, impl->use_stream_table, impl->act,
      impl->act_zeroed);
  auto& metrics = telemetry::MetricsRegistry::instance();
  metrics.counter("machine.act_streams_generated")
      .add(static_cast<std::int64_t>(input.size()));

  impl->result.counters.assign(static_cast<std::size_t>(shape.outputs()), 0);
  impl->result.activations.assign(static_cast<std::size_t>(shape.outputs()),
                                  0);

  // ---- pass schedule ------------------------------------------------------
  impl->R = hw_.rows;
  impl->chans_at_once = std::min(shape.cout, impl->R);
  impl->windows_per_pass = impl->plan.windows_per_pass;
  impl->slices = impl->plan.kernel_slices;
  impl->M = hw_.macs_per_row;

  impl->layout = nn::tap_layout(cfg.accum, shape);

  impl->pass_hist = &metrics.histogram("machine.pass");
  impl->mac_hist = &metrics.histogram("machine.mac_rows");

  impl->tiles_cg = (shape.cout + impl->R - 1) / impl->R;
  impl->tiles_wg = (impl->xy + impl->windows_per_pass - 1) /
                   impl->windows_per_pass;
  if (sram_record)
    impl->tile_zeroed.assign(
        static_cast<std::size_t>(impl->tiles_cg * impl->tiles_wg), 0);

  return ConvExecution(std::move(impl));
}

}  // namespace geo::arch
