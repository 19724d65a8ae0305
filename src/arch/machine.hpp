// GeoMachine: a functional, cycle-counting model of one GEO accelerator
// executing a convolutional layer with real data — the "architecture
// simulator" companion to the analytical PerfSim.
//
// The machine owns the two on-chip memories and walks the compiled pass
// schedule the way the hardware does: for every pass it fills the weight and
// activation SNG buffers (counting reload beats against the fill network,
// with progressive loading and shadow buffering), runs the stream generation
// and MAC rows bit-exactly using the sc substrate, accumulates the output
// converters, spills partial sums to activation memory through the 2-cycle
// near-memory read-add-write, and finally applies near-memory fixed-point
// batch-norm + bounded ReLU before writing activations back.
//
// Functional contract (tested): the pre-BN output counts equal what the
// nn::ScConv2d / nn::ScLinear reference computes in its first forward pass,
// under every generator (LFSR and TRNG alike), on every layer whose OR
// groups fit in one kernel slice. Both run the SC front end and core of
// nn/sc_layers.hpp: nn::LayerSeeds (pass 0), the weight-bank and
// activation-stream generators, nn::for_each_window_tap, nn::tap_layout and
// nn::ScAccumulator, which per window and kernel slice broadcasts the
// gathered activation streams to every row of the tile's channel group, as
// GEO's activation SNGs feed all MAC rows. Rows and windows never change
// the arithmetic; a kernel slice splits any group that spans it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arch/compiler.hpp"
#include "arch/hw_config.hpp"
#include "core/status.hpp"
#include "nn/sc_layers.hpp"

namespace geo::arch {

struct MachineStats {
  std::int64_t passes = 0;
  std::int64_t compute_cycles = 0;
  std::int64_t stall_cycles = 0;
  // Sub-bucket of stall_cycles charged by the resilience layer (retry
  // backoff, scrubbing) and by detected-SRAM-retry beats — the
  // fault-recovery share of the stalls, as opposed to the buffer-fill /
  // reload stalls intrinsic to stream generation. Always
  // 0 <= retry_stall_cycles <= stall_cycles; attribution (see
  // arch/attribution.hpp) reports stall_cycles - retry_stall_cycles as
  // generation cost.
  std::int64_t retry_stall_cycles = 0;
  // Sub-bucket of stall_cycles charged by the out-of-core weight store
  // (src/store/) for cycles the machine sat waiting on block loads that did
  // not overlap execution. Disjoint from retry_stall_cycles; attribution
  // folds it into the *memory* bucket (external-memory traffic, not fault
  // recovery). Always 0 <= retry_stall + io_stall <= stall_cycles.
  std::int64_t io_stall_cycles = 0;
  std::int64_t nearmem_cycles = 0;
  std::int64_t total_cycles = 0;
  std::int64_t act_buffer_fills = 0;  // values loaded into act SNG buffers
  std::int64_t wgt_buffer_fills = 0;
  std::int64_t psum_ops = 0;
  std::int64_t bn_ops = 0;
  // False when the cycle ledger failed to reconcile (every total cycle must
  // be attributed to exactly one of compute / stall / near-memory and no
  // bucket may go negative). Checked always, not just in debug builds; a
  // mismatch also bumps the machine.ledger_mismatch telemetry counter.
  bool ledger_ok = true;
};

// One layer's execution result: quantized output activations (after BN +
// bounded ReLU, in the unipolar 8-bit domain) plus the raw pre-BN counter
// values and execution statistics.
struct MachineResult {
  // (cout, hout, wout), row-major; valid after BN/ReLU.
  std::vector<std::uint8_t> activations;
  // Raw output-converter totals, same layout (pos - neg counts).
  std::vector<std::int32_t> counters;
  MachineStats stats;
};

// The near-memory BN + bounded-ReLU write-back, shared by the machine and
// the resilience layer's fixed-point reference path (degraded tiles must go
// through the exact same rounding).
//   counters     (cout * per_channel) raw pos-neg counts
//   activations  same size, receives the 8-bit unipolar outputs
void apply_bn_relu(std::span<const std::int32_t> counters,
                   std::span<const float> bn_scale,
                   std::span<const float> bn_shift, int stream_len,
                   std::int64_t per_channel,
                   std::span<std::uint8_t> activations);

// A layer's generated weight streams, tap-major as nn::generate_weight_bank
// writes them: stream (t*cout + oc)*wpl of `pos` or `neg`, by weight sign.
struct WeightBank {
  std::vector<std::uint64_t> pos, neg;
};

// The process-wide cache of clean weight banks: GEO's weight-stationary
// dataflow (Sec. III-C) generates a layer's weight streams once and reuses
// them for every input, and so does the host model across requests.
//
// A bank is a pure function of what nn::generate_weight_bank reads with no
// fault model: the ScLayerConfig, the ScShape geometry, use_table and the
// weights. Entries are looked up by a 64-bit digest of all of them, and a
// hit is confirmed by comparing the fields and the weight bytes exactly
// against the entry's own copy, so a digest collision is a miss, never a
// wrong bank. Resident bytes (banks plus weight copies) stay at or under the
// budget; the least recently used entries are evicted first, and a bank an
// execution still holds outlives its eviction. Thread-safe: concurrent
// misses on one key each generate (the banks are identical) and the last
// insert is kept. Telemetry: a generation emits a machine.weight_streams
// span, a hit bumps machine.weight_bank_hits.
class WeightBankCache {
 public:
  // The process instance's budget (fixed; not a knob).
  static constexpr std::uint64_t kBudgetBytes = std::uint64_t{64} << 20;

  explicit WeightBankCache(std::uint64_t budget_bytes = kBudgetBytes);
  ~WeightBankCache();
  WeightBankCache(const WeightBankCache&) = delete;
  WeightBankCache& operator=(const WeightBankCache&) = delete;

  static WeightBankCache& instance();

  // The bank generate_weight_bank produces for these inputs under no fault
  // model (pass-0 seeds), generated and inserted on a miss. Callers with an
  // active fault model must not use the cache: generation then reads fault
  // sites and charges ECC retry cycles.
  std::shared_ptr<const WeightBank> acquire(const nn::ScLayerConfig& cfg,
                                            const nn::ScShape& shape,
                                            std::span<const float> weights,
                                            bool use_table);

  std::int64_t hits() const;
  std::int64_t misses() const;
  std::uint64_t resident_bytes() const;
  std::size_t size() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// A prepared convolution whose pass schedule is executed tile by tile. One
// tile is one (channel group, window group) pair; running it executes every
// kernel slice for that tile's outputs against the streams generated at
// prepare time, so re-running a tile is the hardware's retry-from-snapshot.
// The weight bank is shared and read-only: with no fault model active it
// comes from WeightBankCache, so executions of the same layer hold one bank.
// Obtained from GeoMachine::prepare_conv; the weights/input spans must
// outlive the execution. `finish()` applies BN/ReLU, reconciles the cycle
// ledger and mirrors the stats into telemetry — running every tile exactly
// once and finishing is bit- and stat-identical to GeoMachine::try_run_conv.
//
// Thread-safety: distinct tiles may run concurrently (exec::
// ParallelConvRunner does this) — tile outputs are disjoint, tiles only
// read the activation streams, and stat deltas merge under a lock, so the
// result is byte-identical to the serial tile loop at any thread count
// (see docs/PARALLELISM.md). All other methods (regenerate_tile_inputs,
// counters, finish, ...) must be called with no run_tile in flight.
class ConvExecution {
 public:
  ConvExecution(ConvExecution&&) noexcept;
  ConvExecution& operator=(ConvExecution&&) noexcept;
  ~ConvExecution();

  std::int64_t tile_count() const;

  // Output indices written by `tile` (disjoint across tiles, each covered by
  // exactly one tile).
  std::vector<std::size_t> tile_outputs(std::int64_t tile) const;

  // (Re)executes one tile. The tile's counters are zeroed first, so a retry
  // replaces — never double-counts — its partial sums. Cycle/stat costs
  // accumulate on every run (a retry really recomputes); the returned value
  // is this run's cost alone.
  MachineStats run_tile(std::int64_t tile);

  // How many distinct activation words the latest run of `tile` read that
  // ECC had detected and zeroed (parity odd-weight, SECDED multi-bit). Taken
  // from this execution's own record of its SRAM reads, so executions
  // sharing one fault model never see each other's events; a word shared
  // with another tile counts for every tile that read it. 0 without an
  // SRAM fault model.
  std::int64_t zeroed_inputs(std::int64_t tile) const;

  // Re-reads activation SRAM for each distinct slot feeding `tile` and
  // regenerates its stream, serially on the calling thread. A retry after a
  // detected SRAM/stream fault must go through this, otherwise it would
  // replay the same poisoned buffers and recovery under a transient fault
  // model could never succeed. Tiles that share a slot read the new stream
  // from then on.
  void regenerate_tile_inputs(std::int64_t tile);

  // Partial-sum state accumulated so far (indexed like MachineResult::counters).
  std::span<const std::int32_t> counters() const;

  // Extra stall cycles charged to the ledger's retry sub-bucket (retry
  // backoff, the ECC retries of the resilience layer's psum readbacks).
  void add_stall_cycles(std::int64_t cycles);

  // Stall cycles spent waiting on out-of-core block loads (weight-store pin
  // latency that execution could not overlap). Lands in the io sub-bucket,
  // which attribution reports as memory cost.
  void add_io_stall_cycles(std::int64_t cycles);

  // The nn-layer configuration this execution matches.
  const nn::ScLayerConfig& config() const;

  // BN + bounded ReLU write-back, ledger reconciliation, telemetry mirror.
  // Charges the ECC retry cycles of this execution's own SRAM reads (weight
  // bank and activation streams) into the retry sub-bucket. Call at most
  // once; the result is consumed.
  MachineResult finish();

 private:
  friend class GeoMachine;
  struct Impl;
  explicit ConvExecution(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

class GeoMachine {
 public:
  explicit GeoMachine(const HwConfig& hw);

  // Executes one convolutional layer.
  //   weights  : (cout, cin, kh, kw) signed values in [-1, 1]
  //   input    : (cin, hin, win) unipolar values in [0, 1]
  //   bn_scale / bn_shift : per-output-channel folded BN coefficients
  //   layer_salt : seed-space rotation, must match the reference model
  // Throws std::invalid_argument on shape/operand mismatch (legacy API;
  // implemented on top of try_run_conv).
  MachineResult run_conv(const ConvShape& shape,
                         std::span<const float> weights,
                         std::span<const float> input,
                         std::span<const float> bn_scale,
                         std::span<const float> bn_shift,
                         std::uint64_t layer_salt);

  // Non-throwing variant: pre-flight validates the shape and operand sizes
  // and returns a structured error instead of crashing or throwing. On
  // success the MachineResult is identical to run_conv's.
  geo::StatusOr<MachineResult> try_run_conv(const ConvShape& shape,
                                            std::span<const float> weights,
                                            std::span<const float> input,
                                            std::span<const float> bn_scale,
                                            std::span<const float> bn_shift,
                                            std::uint64_t layer_salt);

  // Validates the layer and builds a tile-granular execution (the machinery
  // under try_run_conv, exposed for the resilience layer's detect-and-retry
  // loop). The weight bank comes from WeightBankCache::instance() when no
  // fault model is active (fault::active() is null), and is generated for
  // this execution alone otherwise, a zero-rate model included. Outputs and
  // stats are the same either way. Every input slot's activation stream is
  // generated here, once, serially (nn::generate_activation_streams), so
  // machine.act_streams_generated grows by shape.activations(). The spans
  // must outlive the returned execution.
  geo::StatusOr<ConvExecution> prepare_conv(const ConvShape& shape,
                                            std::span<const float> weights,
                                            std::span<const float> input,
                                            std::span<const float> bn_scale,
                                            std::span<const float> bn_shift,
                                            std::uint64_t layer_salt);

  // The pre-flight validation used by try_run_conv, exposed for callers that
  // want to reject bad layers before allocating stream buffers.
  geo::Status validate_conv(const ConvShape& shape,
                            std::span<const float> weights,
                            std::span<const float> input,
                            std::span<const float> bn_scale,
                            std::span<const float> bn_shift) const;

  const HwConfig& hw() const { return hw_; }

  // The nn-layer configuration this machine's execution matches.
  nn::ScLayerConfig layer_config(const ConvShape& shape,
                                 std::uint64_t layer_salt) const;

 private:
  HwConfig hw_;
};

}  // namespace geo::arch
