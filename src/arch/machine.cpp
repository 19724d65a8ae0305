#include "arch/machine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "arch/attribution.hpp"
#include "exec/parallel_conv.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_model.hpp"
#include "nn/quantize.hpp"
#include "sc/progressive.hpp"
#include "sc/seed_sharing.hpp"
#include "sc/simd.hpp"
#include "sc/sng.hpp"
#include "sc/stream_table.hpp"
#include "telemetry/telemetry.hpp"

namespace geo::arch {

namespace {

// Generates one magnitude stream exactly like the nn SC layers do (shared
// code path requirement for the bit-exactness contract). `fm` may be null;
// when set, seed upsets hit the SNG before generation and stream bit flips
// hit the buffer after — keyed by (domain, site) so the nn reference injects
// the identical faults into the identical slots. The spec is corrupted
// BEFORE the stream-table cache is keyed, so a seed-upset stream is served
// from the corrupted sequence's table, never the healthy one. `use_table`
// routes through the shared-sequence cache (sc/stream_table.hpp); off, the
// calling thread's reusable generator ticks bit-serially — bit-identical
// either way.
void generate_stream(std::uint64_t* dst, std::size_t wpl, std::size_t length,
                     const nn::ScLayerConfig& cfg, sc::SeedSpec spec,
                     std::uint32_t q, fault::FaultModel* fm,
                     fault::FaultModel::Site domain, std::uint64_t site,
                     bool use_table) {
  std::fill(dst, dst + wpl, 0);
  if (fm != nullptr) spec = fm->corrupt_seed(spec, site);
  if (q != 0) {
    const unsigned n = spec.bits;
    sc::StreamGenerator& gen = sc::StreamGenerator::local();
    if (cfg.progressive) {
      sc::ProgressiveSchedule sched;
      sched.value_bits = cfg.value_bits;
      sched.lfsr_bits = n;
      gen.generate_progressive(dst, wpl, length, cfg.rng, spec, sched, q,
                               use_table);
    } else {
      const std::uint32_t vn = n >= cfg.value_bits
                                   ? q << (n - cfg.value_bits)
                                   : q >> (cfg.value_bits - n);
      gen.generate(dst, wpl, length, cfg.rng, spec, vn, use_table);
    }
  }
  // A defective buffer cell flips bits even in an all-zero stream.
  if (fm != nullptr) fm->corrupt_stream(dst, length, domain, site);
}

}  // namespace

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

// ----------------------------------------------------------- ConvExecution

struct ConvExecution::Impl {
  HwConfig hw;
  ConvShape shape;
  LayerPlan plan;
  nn::ScLayerConfig cfg;
  std::span<const float> input;
  std::vector<float> bn_scale, bn_shift;
  fault::FaultModel* fm = nullptr;
  std::int64_t fault_retry0 = 0;

  int L = 0;
  std::size_t wpl = 0;
  int K = 0, ho = 0, wo = 0;
  std::int64_t outputs = 0, xy = 0, M = 0;
  int R = 0, chans_at_once = 0, windows_per_pass = 0, slices = 0, groups = 0;
  double fill = 0, bits_per_value = 0;
  bool direct_accum = false, accum_faults = false, stuck_faults = false;
  // GEO_STREAM_TABLE, sampled once per layer so a run's generation strategy
  // is coherent even if the environment changes mid-layer.
  bool use_stream_table = true;

  std::optional<sc::SeedAllocator> alloc;
  std::vector<std::uint64_t> wpos, wneg, act;
  // Lazy activation-stream cache flags: 0 = empty, 1 = being generated,
  // 2 = ready. Atomic so concurrent tiles claim generation exactly once
  // (first CAS winner generates, everyone else waits for the release store)
  // — the stream content is a pure function of the slot, so the winner's
  // identity never changes the bits.
  std::unique_ptr<std::atomic<std::uint8_t>[]> act_ready;

  std::int64_t tiles_cg = 0, tiles_wg = 0;

  MachineResult result;
  // Guards result.stats merges from concurrent run_tile calls. Tile deltas
  // are integer sums, so the merge order never changes the totals.
  std::mutex stats_mu;
  std::optional<telemetry::ScopedTimer> run_timer;
  telemetry::Histogram* pass_hist = nullptr;
  telemetry::Histogram* mac_hist = nullptr;
  telemetry::Counter* act_gen_counter = nullptr;
  bool finished = false;

  const std::uint64_t* act_stream(std::size_t idx);
  template <typename Fn>
  void for_each_tile_input(std::int64_t tile, Fn&& fn) const;
  MachineStats run_tile(std::int64_t tile);
  MachineResult finish();
};

const std::uint64_t* ConvExecution::Impl::act_stream(std::size_t idx) {
  std::atomic<std::uint8_t>& flag = act_ready[idx];
  std::uint8_t state = flag.load(std::memory_order_acquire);
  while (state != 2) {
    if (state == 0) {
      std::uint8_t expected = 0;
      if (flag.compare_exchange_strong(expected, 1,
                                       std::memory_order_acq_rel)) {
        act_gen_counter->add(1);
        const float a = std::clamp(input[idx], 0.0f, 1.0f);
        std::uint32_t q = nn::quantize_unsigned(a, cfg.value_bits);
        if (fm != nullptr)
          q = fm->sram_read(q, cfg.value_bits,
                            fault::FaultModel::Site::kActSram, idx);
        generate_stream(act.data() + idx * wpl, wpl,
                        static_cast<std::size_t>(L), cfg,
                        alloc->activation(static_cast<int>(idx)), q, fm,
                        fault::FaultModel::Site::kActStream, idx,
                        use_stream_table);
        flag.store(2, std::memory_order_release);
        flag.notify_all();
        break;
      }
      state = expected;
      continue;
    }
    // Another tile is generating this stream; its content is identical to
    // what we would produce. Bounded spin (generation is usually a few
    // table-row copies), then park on the atomic so a stalled generator
    // can't make us burn a core under oversubscription. An invalidation
    // (store 0) also wakes us, and the loop retries the claim.
    for (int s = 0; s < 256 && state == 1; ++s) {
      std::this_thread::yield();
      state = flag.load(std::memory_order_acquire);
    }
    if (state == 1) {
      flag.wait(1, std::memory_order_acquire);
      state = flag.load(std::memory_order_acquire);
    }
  }
  return act.data() + idx * wpl;
}

MachineStats ConvExecution::Impl::run_tile(std::int64_t tile) {
  const int cg = static_cast<int>(tile / tiles_wg);
  const std::int64_t wg = tile % tiles_wg;
  // This run's cost, merged into result.stats at the end — concurrent tiles
  // each accumulate privately so the totals are sums of per-tile integers,
  // identical in any merge order.
  MachineStats st;
  // Per-run scratch (accumulator groups, fault-path product pair, per-cycle
  // counters): private so concurrent tiles don't share accumulators.
  std::vector<std::uint64_t> scratch(
      static_cast<std::size_t>(groups) * 2 * wpl, 0);
  std::vector<std::uint64_t> prod;
  std::vector<std::uint32_t> cyc;
  if (accum_faults || (stuck_faults && direct_accum)) prod.resize(2 * wpl);
  if (stuck_faults && direct_accum)
    cyc.resize(2 * static_cast<std::size_t>(L));

  // Retry-from-snapshot semantics: a re-run replaces the tile's partial
  // sums, it never double-counts them.
  for (int c = 0; c < chans_at_once; ++c) {
    const int oc = cg * R + c;
    if (oc >= shape.cout) break;
    for (int wslot = 0; wslot < windows_per_pass; ++wslot) {
      const std::int64_t pos = wg * windows_per_pass + wslot;
      if (pos >= xy) break;
      result.counters[static_cast<std::size_t>(oc) * xy +
                      static_cast<std::size_t>(pos)] = 0;
    }
  }

  for (int p = 0; p < slices; ++p) {
    telemetry::ScopedTimer pass_timer(
        *pass_hist, "machine.pass", "machine",
        {{"channel_group", static_cast<double>(cg)},
         {"window_group", static_cast<double>(wg)},
         {"kernel_slice", static_cast<double>(p)},
         {"act_fills", static_cast<double>(plan.act_loads_per_pass)},
         {"wgt_fills", static_cast<double>(plan.wgt_loads_per_pass)}});
    ++st.passes;
    // -- reload accounting (the functional fills below are exact; the
    //    stall model matches PerfSim::pass_stall_cycles).
    st.act_buffer_fills += plan.act_loads_per_pass;
    st.wgt_buffer_fills += plan.wgt_loads_per_pass;
    const double act_cycles =
        std::ceil(plan.act_loads_per_pass * bits_per_value / fill);
    const double wgt_cycles =
        std::ceil(plan.wgt_loads_per_pass * bits_per_value / fill);
    const double reload = std::max(act_cycles, wgt_cycles);
    double stall = reload;
    if (hw.shadow_buffers)
      stall = std::max(0.0, reload - plan.stream_cycles);
    else if (hw.progressive)
      stall = std::ceil(
          std::max(plan.act_loads_per_pass, plan.wgt_loads_per_pass) * 2.0 /
          fill);
    st.stall_cycles += static_cast<std::int64_t>(stall);
    st.compute_cycles += plan.stream_cycles + (hw.pipeline_stage ? 1 : 0);

    // -- bit-exact computation of this pass's outputs.
    telemetry::ScopedTimer mac_timer(*mac_hist, "machine.mac_rows",
                                     "machine");
    const int tap_lo = static_cast<int>(p * M);
    const int tap_hi = static_cast<int>(
        std::min<std::int64_t>(K, (p + 1) * M));
    for (int c = 0; c < chans_at_once; ++c) {
      const int oc = cg * R + c;
      if (oc >= shape.cout) break;
      for (int wslot = 0; wslot < windows_per_pass; ++wslot) {
        const std::int64_t pos = wg * windows_per_pass + wslot;
        if (pos >= xy) break;
        const int oy = static_cast<int>(pos) / wo;
        const int ox = static_cast<int>(pos) % wo;
        const std::size_t oidx =
            (static_cast<std::size_t>(oc) * ho + oy) * wo + ox;

        std::fill(scratch.begin(), scratch.end(), 0);
        if (!cyc.empty()) std::fill(cyc.begin(), cyc.end(), 0);
        std::int64_t direct = 0;  // kFxp / kApc path
        for (int t = tap_lo; t < tap_hi; ++t) {
          const int kx = t % shape.kw;
          const int ky = (t / shape.kw) % shape.kh;
          const int ic = t / (shape.kw * shape.kh);
          const int iy = oy * shape.stride - shape.pad + ky;
          const int ix = ox * shape.stride - shape.pad + kx;
          if (iy < 0 || iy >= shape.hin || ix < 0 || ix >= shape.win)
            continue;
          const std::size_t aidx =
              (static_cast<std::size_t>(ic) * shape.hin + iy) * shape.win +
              ix;
          const std::uint64_t* a = act_stream(aidx);
          const std::size_t widx =
              (static_cast<std::size_t>(oc) * K + t) * wpl;
          const std::uint64_t* wp = &wpos[widx];
          const std::uint64_t* wn = &wneg[widx];
          if (!prod.empty()) {
            // The product streams are the accumulator inputs; faults on
            // the OR-tree / parallel-counter input wires hit here. Site
            // ids are per (output, tap, channel) wire, mirrored by the
            // nn reference path.
            for (std::size_t k = 0; k < wpl; ++k) {
              prod[k] = a[k] & wp[k];
              prod[wpl + k] = a[k] & wn[k];
            }
            if (accum_faults) {
              const std::uint64_t asite =
                  (static_cast<std::uint64_t>(oidx) * K + t) * 2;
              fm->corrupt_accum_input(prod.data(),
                                      static_cast<std::size_t>(L), asite);
              fm->corrupt_accum_input(prod.data() + wpl,
                                      static_cast<std::size_t>(L),
                                      asite + 1);
            }
            wp = prod.data();
            wn = prod.data() + wpl;
            a = nullptr;  // products already formed
          }
          auto prod_word = [&](const std::uint64_t* ch, std::size_t k) {
            return a != nullptr ? (a[k] & ch[k]) : ch[k];
          };
          if (cfg.accum == nn::AccumMode::kFxp ||
              cfg.accum == nn::AccumMode::kApc) {
            // The machine's APC reduces to exact counting per product
            // pair order; we model kApc == kFxp at machine level (the
            // area model carries the difference).
            if (!cyc.empty()) {
              // Stuck-at needs per-cycle counter values, so scatter the
              // product bits into per-cycle pos/neg histograms.
              for (std::size_t k = 0; k < wpl; ++k) {
                std::uint64_t bp = prod_word(wp, k);
                while (bp != 0) {
                  ++cyc[k * 64 +
                        static_cast<unsigned>(std::countr_zero(bp))];
                  bp &= bp - 1;
                }
                std::uint64_t bn = prod_word(wn, k);
                while (bn != 0) {
                  ++cyc[static_cast<std::size_t>(L) + k * 64 +
                        static_cast<unsigned>(std::countr_zero(bn))];
                  bn &= bn - 1;
                }
              }
            } else if (a != nullptr) {
              // Clean fast path: one fused multiply-popcount pass over the
              // packed words — the product stream is never materialized.
              direct += sc::simd::mac_popcount(a, wp, wn, wpl);
            } else {
              // Products were formed (and corrupted) above; count them.
              direct += static_cast<std::int64_t>(
                  sc::simd::popcount_words(wp, wpl));
              direct -= static_cast<std::int64_t>(
                  sc::simd::popcount_words(wn, wpl));
            }
          } else {
            int g = 0;
            if (cfg.accum == nn::AccumMode::kPbw)
              g = kx;
            else if (cfg.accum == nn::AccumMode::kPbhw)
              g = ky * shape.kw + kx;
            std::uint64_t* gp =
                &scratch[static_cast<std::size_t>(g) * 2 * wpl];
            std::uint64_t* gn = gp + wpl;
            if (a != nullptr) {
              sc::simd::or_and_into(gp, a, wp, wpl);
              sc::simd::or_and_into(gn, a, wn, wpl);
            } else {
              sc::simd::or_into(gp, wp, wpl);
              sc::simd::or_into(gn, wn, wpl);
            }
          }
        }
        std::int64_t total = direct;
        if (!cyc.empty()) {
          // Direct path under a stuck parallel-counter column: run each
          // per-cycle count through the defective counter.
          for (int t = 0; t < L; ++t) {
            total += fm->apply_stuck(cyc[static_cast<std::size_t>(t)]);
            total -= fm->apply_stuck(
                cyc[static_cast<std::size_t>(L) + t]);
          }
        }
        if (cfg.accum == nn::AccumMode::kOr ||
            cfg.accum == nn::AccumMode::kPbw ||
            cfg.accum == nn::AccumMode::kPbhw) {
          for (int g = 0; g < groups; ++g) {
            const std::uint64_t* gp =
                &scratch[static_cast<std::size_t>(g) * 2 * wpl];
            const std::uint64_t* gn = gp + wpl;
            if (stuck_faults) {
              // Each group's OR output is a 1-bit/cycle count into its
              // output-converter counter; the stuck column corrupts it
              // cycle by cycle.
              for (int t = 0; t < L; ++t) {
                const std::uint32_t bp =
                    static_cast<std::uint32_t>((gp[t >> 6] >> (t & 63)) &
                                               1u);
                const std::uint32_t bn =
                    static_cast<std::uint32_t>((gn[t >> 6] >> (t & 63)) &
                                               1u);
                total += fm->apply_stuck(bp);
                total -= fm->apply_stuck(bn);
              }
            } else {
              total += static_cast<std::int64_t>(
                  sc::simd::popcount_words(gp, wpl));
              total -= static_cast<std::int64_t>(
                  sc::simd::popcount_words(gn, wpl));
            }
          }
        }
        // Near-memory read-add-write of the partial sum (first slice
        // writes, later slices accumulate).
        result.counters[oidx] += static_cast<std::int32_t>(total);
        if (slices > 1 && p > 0) ++st.psum_ops;
      }
    }
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
    apply_bn_relu(result.counters, bn_scale, bn_shift, L, xy,
                  result.activations);
    if (hw.near_memory) st.bn_ops += static_cast<std::int64_t>(outputs);
  }

  const double lanes = std::max(1, hw.mem_port_bits / 16);
  st.nearmem_cycles = static_cast<std::int64_t>(
      2.0 * (st.psum_ops + st.bn_ops) / lanes);
  // ECC retries on faulty SRAM reads stall the fill network; they are
  // recovery work, so they land in the retry sub-bucket as well.
  if (fm != nullptr) {
    const std::int64_t ecc_retry =
        fm->stats().sram_retry_cycles - fault_retry0;
    st.stall_cycles += ecc_retry;
    st.retry_stall_cycles += ecc_retry;
  }
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
  finished = true;
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

// Enumerates the activation-stream slots feeding `tile` (with repeats:
// windows overlap). Shared by invalidation and tile_inputs.
template <typename Fn>
void ConvExecution::Impl::for_each_tile_input(std::int64_t tile,
                                              Fn&& fn) const {
  const std::int64_t wg = tile % tiles_wg;
  for (int wslot = 0; wslot < windows_per_pass; ++wslot) {
    const std::int64_t pos = wg * windows_per_pass + wslot;
    if (pos >= xy) break;
    const int oy = static_cast<int>(pos) / wo;
    const int ox = static_cast<int>(pos) % wo;
    for (int t = 0; t < K; ++t) {
      const int kx = t % shape.kw;
      const int ky = (t / shape.kw) % shape.kh;
      const int ic = t / (shape.kw * shape.kh);
      const int iy = oy * shape.stride - shape.pad + ky;
      const int ix = ox * shape.stride - shape.pad + kx;
      if (iy < 0 || iy >= shape.hin || ix < 0 || ix >= shape.win) continue;
      fn((static_cast<std::size_t>(ic) * shape.hin + iy) * shape.win + ix);
    }
  }
}

void ConvExecution::invalidate_tile_inputs(std::int64_t tile) {
  Impl& im = *impl_;
  // Every tap of every window in this tile: mark its activation stream
  // stale. Streams are shared across channel groups, so a neighbouring
  // tile's later first-use simply regenerates them (same seed, same SRAM
  // word — bit-identical unless a fault model intervenes).
  im.for_each_tile_input(tile, [&im](std::size_t aidx) {
    im.act_ready[aidx].store(0, std::memory_order_release);
    // Wake any act_stream() parked on state 1 so it re-runs the claim (no
    // waiter can exist on the serial resilience path, but the protocol stays
    // self-contained).
    im.act_ready[aidx].notify_all();
  });
}

std::vector<std::size_t> ConvExecution::tile_inputs(std::int64_t tile) const {
  std::vector<std::size_t> in;
  impl_->for_each_tile_input(tile,
                             [&in](std::size_t aidx) { in.push_back(aidx); });
  std::sort(in.begin(), in.end());
  in.erase(std::unique(in.begin(), in.end()), in.end());
  return in;
}

std::span<const std::int32_t> ConvExecution::counters() const {
  return impl_->result.counters;
}

const MachineStats& ConvExecution::stats() const {
  return impl_->result.stats;
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

geo::Status ConvExecution::rebind_input(std::span<const float> input) {
  Impl& im = *impl_;
  if (input.size() != static_cast<std::size_t>(im.shape.activations()))
    return geo::Status::invalid_argument(
        "GeoMachine: rebind input size mismatch: got " +
        std::to_string(input.size()) + ", shape wants " +
        std::to_string(im.shape.activations()));
  im.input = input;
  // Empty the lazy activation cache: every slot regenerates from the new
  // input on first use. The buffers themselves are kept (generate_stream
  // zero-fills its destination before writing), so a rebind allocates only
  // the per-run result vectors.
  for (std::size_t i = 0; i < input.size(); ++i)
    im.act_ready[i].store(0, std::memory_order_relaxed);
  im.result.counters.assign(static_cast<std::size_t>(im.outputs), 0);
  im.result.activations.assign(static_cast<std::size_t>(im.outputs), 0);
  im.result.stats = MachineStats{};
  // Re-baseline the ECC retry charge: this run's finish() must charge only
  // the retries its own activation reads incur, not the previous member's.
  im.fault_retry0 =
      im.fm != nullptr ? im.fm->stats().sram_retry_cycles : 0;
  im.finished = false;
  im.run_timer.emplace("machine.run_conv", "machine");
  return geo::Status();
}

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
  impl->cfg = layer_config(shape, layer_salt);
  impl->input = input;
  impl->bn_scale.assign(bn_scale.begin(), bn_scale.end());
  impl->bn_shift.assign(bn_shift.begin(), bn_shift.end());

  impl->fm = fault::active();
  impl->fault_retry0 =
      impl->fm != nullptr ? impl->fm->stats().sram_retry_cycles : 0;
  impl->use_stream_table = sc::stream_table_enabled();

  const nn::ScLayerConfig& cfg = impl->cfg;
  impl->L = cfg.stream_len;
  impl->wpl = static_cast<std::size_t>((impl->L + 63) / 64);
  const unsigned n = cfg.lfsr_bits();
  impl->K = shape.taps();
  impl->ho = shape.hout();
  impl->wo = shape.wout();
  impl->outputs = shape.outputs();
  impl->xy = static_cast<std::int64_t>(impl->ho) * impl->wo;

  const sc::KernelExtents ext{shape.cout, shape.cin, shape.kh, shape.kw};
  impl->alloc.emplace(cfg.sharing, n, ext, layer_salt);
  fault::FaultModel* const fm = impl->fm;
  const std::size_t wpl = impl->wpl;
  const int L = impl->L;

  // ---- weight memory -> weight SNG streams (whole filter bank) ----------
  impl->wpos.assign(weights.size() * wpl, 0);
  impl->wneg.assign(weights.size() * wpl, 0);
  {
    telemetry::ScopedTimer t("machine.weight_streams", "machine",
                             {{"streams", static_cast<double>(
                                   weights.size())}});
    // Each stream writes a disjoint slice of wpos/wneg and every fault site
    // is touched exactly once, so the fan-out is order-independent — byte-
    // identical to the old nested serial loop at any thread count.
    const std::int64_t kw = shape.kw, kh = shape.kh, cin = shape.cin;
    exec::parallel_for(
        static_cast<std::int64_t>(weights.size()), [&](std::int64_t i) {
          const std::size_t idx = static_cast<std::size_t>(i);
          const int kx = static_cast<int>(i % kw);
          const int ky = static_cast<int>((i / kw) % kh);
          const int ic = static_cast<int>((i / (kw * kh)) % cin);
          const int oc = static_cast<int>(i / (kw * kh * cin));
          const float w = std::clamp(weights[idx], -1.0f, 1.0f);
          std::uint32_t q =
              nn::quantize_unsigned(std::abs(w), cfg.value_bits);
          if (fm != nullptr)
            q = fm->sram_read(q, cfg.value_bits,
                              fault::FaultModel::Site::kWeightSram, idx);
          const sc::SeedSpec spec = impl->alloc->weight({oc, ic, ky, kx});
          generate_stream(
              (w >= 0.0f ? &impl->wpos : &impl->wneg)->data() + idx * wpl,
              wpl, static_cast<std::size_t>(L), cfg, spec, q, fm,
              fault::FaultModel::Site::kWeightStream, idx,
              impl->use_stream_table);
        });
  }

  // ---- activation streams, generated lazily per buffer slot -------------
  auto& metrics = telemetry::MetricsRegistry::instance();
  impl->act_gen_counter = &metrics.counter("machine.act_streams_generated");
  impl->act.assign(input.size() * wpl, 0);
  impl->act_ready =
      std::make_unique<std::atomic<std::uint8_t>[]>(input.size());
  for (std::size_t i = 0; i < input.size(); ++i)
    impl->act_ready[i].store(0, std::memory_order_relaxed);

  impl->result.counters.assign(static_cast<std::size_t>(impl->outputs), 0);
  impl->result.activations.assign(static_cast<std::size_t>(impl->outputs), 0);

  // ---- pass schedule ------------------------------------------------------
  impl->R = hw_.rows;
  impl->chans_at_once = std::min(shape.cout, impl->R);
  impl->windows_per_pass = impl->plan.windows_per_pass;
  impl->slices = impl->plan.kernel_slices;
  impl->M = hw_.macs_per_row;

  impl->groups = 1;
  switch (cfg.accum) {
    case nn::AccumMode::kOr: impl->groups = 1; break;
    case nn::AccumMode::kPbw: impl->groups = shape.kw; break;
    case nn::AccumMode::kPbhw: impl->groups = shape.kh * shape.kw; break;
    case nn::AccumMode::kFxp:
    case nn::AccumMode::kApc: impl->groups = 1; break;  // per tap
  }
  // Accumulator / fault-path scratch is allocated per run_tile call (tiles
  // may run concurrently, so they can't share work buffers); these flags
  // tell run_tile which buffers a run needs.
  impl->direct_accum = cfg.accum == nn::AccumMode::kFxp ||
                       cfg.accum == nn::AccumMode::kApc;
  impl->accum_faults = fm != nullptr && fm->accum_active();
  impl->stuck_faults = fm != nullptr && fm->stuck_enabled();

  impl->fill = hw_.buffer_fill_bits;
  impl->bits_per_value =
      hw_.progressive ? static_cast<double>(n) : hw_.sng_value_bits;

  impl->pass_hist = &metrics.histogram("machine.pass");
  impl->mac_hist = &metrics.histogram("machine.mac_rows");

  impl->tiles_cg = (shape.cout + impl->R - 1) / impl->R;
  impl->tiles_wg = (impl->xy + impl->windows_per_pass - 1) /
                   impl->windows_per_pass;

  return ConvExecution(std::move(impl));
}

}  // namespace geo::arch
