#include "resilience/resilience.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <unordered_set>

#include "core/env.hpp"
#include "exec/parallel_conv.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_model.hpp"
#include "nn/sc_layers.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"

namespace geo::resilience {

namespace {

bool parse_u64(std::string_view tok, std::uint64_t& out) {
  const std::optional<std::uint64_t> parsed = core::parse_uint(tok);
  if (!parsed.has_value()) return false;
  out = *parsed;
  return true;
}

}  // namespace

// ---- RetryPolicy ----------------------------------------------------------

std::int64_t RetryPolicy::backoff_for(int attempt) const noexcept {
  if (attempt < 0) attempt = 0;
  if (attempt > 30) attempt = 30;  // cap the shift, not the stall
  return backoff << attempt;
}

geo::StatusOr<RetryPolicy> RetryPolicy::parse(std::string_view spec) {
  RetryPolicy policy;
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
          "GEO_RETRY: '" + std::string(item) + "' is not key=value");
    const std::string_view key = item.substr(0, eq);
    const std::string_view val = item.substr(eq + 1);
    if (key == "retries") {
      std::uint64_t n = 0;
      if (!parse_u64(val, n) || n > 16)
        return geo::Status::out_of_range(
            "GEO_RETRY: retries='" + std::string(val) +
            "' must be an integer in [0,16]");
      policy.retries = static_cast<int>(n);
    } else if (key == "backoff") {
      std::uint64_t c = 0;
      if (!parse_u64(val, c) || c > (1ull << 32))
        return geo::Status::out_of_range(
            "GEO_RETRY: backoff='" + std::string(val) +
            "' must be a cycle count in [0,2^32]");
      policy.backoff = static_cast<std::int64_t>(c);
    } else {
      return geo::Status::invalid_argument(
          "GEO_RETRY: unknown key '" + std::string(key) +
          "' (known: retries, backoff)");
    }
  }
  return policy;
}

RetryPolicy RetryPolicy::from_env() {
  const char* v = std::getenv("GEO_RETRY");
  if (v == nullptr || v[0] == '\0') return RetryPolicy{};
  auto parsed = RetryPolicy::parse(v);
  if (!parsed.ok()) {
    std::fprintf(stderr, "geo: ignoring GEO_RETRY: %s\n",
                 parsed.status().message().c_str());
    // The rejection must survive into postmortems, not just scroll past on
    // stderr: a chaos run whose retry ladder silently ran on defaults is
    // otherwise indistinguishable from a tuned one.
    if (auto& journal = telemetry::Journal::instance(); journal.enabled())
      journal.record("config.invalid", "GEO_RETRY", {},
                     parsed.status().message());
    return RetryPolicy{};
  }
  return *std::move(parsed);
}

std::string RetryPolicy::to_string() const {
  return "retries=" + std::to_string(retries) +
         ",backoff=" + std::to_string(backoff);
}

// ---- enums ----------------------------------------------------------------

const char* to_string(Detect d) noexcept {
  switch (d) {
    case Detect::kSecdedDoubleBit: return "secded_double_bit";
    case Detect::kParityZeroed: return "parity_zeroed";
    case Detect::kPsumCrc: return "psum_crc";
    case Detect::kPsumRange: return "psum_range";
    case Detect::kLedger: return "ledger";
  }
  return "?";
}

const char* to_string(Rung r) noexcept {
  switch (r) {
    case Rung::kNative: return "native";
    case Rung::kPbw: return "pbw";
    case Rung::kFxp: return "fxp";
    case Rung::kReference: return "reference";
  }
  return "?";
}

// ---- ResilienceReport -----------------------------------------------------

bool ResilienceReport::any_degraded() const noexcept {
  for (const auto& l : layers)
    if (l.degraded) return true;
  return false;
}

bool ResilienceReport::ledger_ok() const noexcept {
  for (const auto& l : layers)
    if (!l.ledger_ok) return false;
  return true;
}

std::int64_t ResilienceReport::tiles_retried() const noexcept {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l.tiles_retried;
  return n;
}

std::int64_t ResilienceReport::tiles_recovered() const noexcept {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l.tiles_recovered;
  return n;
}

std::int64_t ResilienceReport::layers_degraded() const noexcept {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l.degraded ? 1 : 0;
  return n;
}

std::int64_t ResilienceReport::total_retry_cycles() const noexcept {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l.retry_cycles();
  return n;
}

std::string ResilienceReport::summary() const {
  std::ostringstream os;
  os << "resilience: " << layers.size() << " layer(s), " << tiles_retried()
     << " tile(s) retried, " << tiles_recovered() << " recovered, "
     << layers_degraded() << " layer(s) degraded, " << total_retry_cycles()
     << " retry cycle(s), ledger " << (ledger_ok() ? "ok" : "MISMATCH")
     << "\n";
  for (const auto& l : layers) {
    os << "  " << (l.layer.empty() ? "<layer>" : l.layer) << ": rung "
       << to_string(l.rung) << (l.degraded ? " (degraded)" : "") << ", "
       << l.tiles << " tiles, " << l.tiles_retried << " retried, "
       << l.tiles_recovered << " recovered, " << l.retries << " retries";
    bool first = true;
    for (int d = 0; d < kDetectKinds; ++d) {
      if (l.detections[static_cast<std::size_t>(d)] == 0) continue;
      os << (first ? " [" : ", ") << to_string(static_cast<Detect>(d)) << "="
         << l.detections[static_cast<std::size_t>(d)];
      first = false;
    }
    if (!first) os << "]";
    os << "\n";
  }
  return os.str();
}

// ---- ResilientExecutor ----------------------------------------------------

ResilientExecutor::ResilientExecutor(const arch::HwConfig& hw,
                                     RetryPolicy policy)
    : hw_(hw), policy_(policy) {}

namespace {

// Detection signals observed on one tile attempt.
struct TileSignals {
  std::array<std::int64_t, kDetectKinds> hits{};
  bool any = false;

  void add(Detect d) {
    ++hits[static_cast<std::size_t>(d)];
    any = true;
  }

  void merge(const TileSignals& other) {
    for (int d = 0; d < kDetectKinds; ++d)
      hits[static_cast<std::size_t>(d)] +=
          other.hits[static_cast<std::size_t>(d)];
    any = any || other.any;
  }

  std::int64_t count() const {
    std::int64_t n = 0;
    for (const std::int64_t h : hits) n += h;
    return n;
  }
};

// The Detect kind an uncorrectable ECC event reports under this model.
Detect ecc_detect_kind(const fault::FaultModel& fm) {
  return fm.config().ecc == fault::EccMode::kParity ? Detect::kParityZeroed
                                                    : Detect::kSecdedDoubleBit;
}

// ECC uncorrectable events observed since `before` (detected minus
// corrected across the attempt's window).
TileSignals ecc_delta_signals(fault::FaultModel* fm,
                              const fault::FaultStats& before) {
  TileSignals sig;
  if (fm == nullptr) return sig;
  const fault::FaultStats now = fm->stats();
  const std::int64_t detected =
      now.sram_errors_detected - before.sram_errors_detected;
  const std::int64_t corrected =
      now.sram_errors_corrected - before.sram_errors_corrected;
  const std::int64_t uncorrectable = detected - corrected;
  for (std::int64_t i = 0; i < uncorrectable; ++i)
    sig.add(ecc_detect_kind(*fm));
  return sig;
}

// The partial-sum range and CRC-readback guards over the tile's outputs.
// The CRC probe is a real guard read: it charges ECC retry cycles and counts
// events exactly like the hardware readback would.
TileSignals guard_signals(const arch::ConvExecution& exec, std::int64_t tile,
                          const arch::ConvShape& shape) {
  TileSignals sig;
  fault::FaultModel* fm = fault::active();

  const std::span<const std::int32_t> counters = exec.counters();
  const std::int64_t bound = static_cast<std::int64_t>(shape.taps()) *
                             exec.config().stream_len;
  for (const std::size_t oidx : exec.tile_outputs(tile)) {
    const std::int32_t c = counters[oidx];
    // Provable partial-sum envelope: |pos - neg| over taps*L stream bits.
    if (std::abs(static_cast<std::int64_t>(c)) > bound)
      sig.add(Detect::kPsumRange);
    // CRC readback guard: re-read the psum word through the near-memory
    // path. A mismatch means the stored word would not survive a readback
    // (SECDED-zeroed multi-bit, parity-zeroed, or — with ecc=none — a raw
    // corruption the CRC catches). The probe is a guard read: the stored
    // counter is untouched, the tile re-executes instead.
    if (fm != nullptr && fm->sram_active()) {
      const auto word = static_cast<std::uint32_t>(c);
      const std::uint32_t readback = fm->sram_read(
          word, 32, fault::FaultModel::Site::kPsumSram, oidx);
      if (readback != word) sig.add(Detect::kPsumCrc);
    }
  }
  return sig;
}

// Checks one freshly-run tile: ECC uncorrectable delta across the attempt,
// then the guards.
TileSignals check_tile(const arch::ConvExecution& exec, std::int64_t tile,
                       const arch::ConvShape& shape,
                       const fault::FaultStats& before) {
  TileSignals sig = ecc_delta_signals(fault::active(), before);
  sig.merge(guard_signals(exec, tile, shape));
  return sig;
}

}  // namespace

namespace {

geo::Status cancelled_status(std::string_view layer, std::string_view where) {
  if (auto& journal = telemetry::Journal::instance(); journal.enabled())
    journal.record("resilience.cancel", layer, {}, where);
  return geo::Status::deadline_exceeded(
      "resilience: execution cancelled (" + std::string(where) + ") on '" +
      std::string(layer) + "'");
}

// Cycles burned on one rung's tile walk, reported back to the caller.
struct RungWalkStats {
  std::int64_t backoff = 0;    // backoff stalls charged into the live ledger
  std::int64_t abandoned = 0;  // serial-schedule spend, set when the rung fails
};

// Walks every tile of a prepared execution under the bounded detect/retry
// loop: the tile-parallel Phase A fast path when eligible, the serial loop
// otherwise, exponential-backoff retries, and detection bookkeeping into
// `outcome`. Returns true when every tile passed, false when a tile drained
// its retry budget (the rung failed; ws.abandoned holds the cycles the
// serial schedule would have burned by then), or kDeadlineExceeded when
// `cancel` fired at a tile boundary (the partial run is abandoned in place).
geo::StatusOr<bool> walk_rung_tiles(arch::ConvExecution& exec,
                                    const arch::ConvShape& shape,
                                    const RetryPolicy& policy, Rung rung,
                                    exec::CancelToken* cancel,
                                    LayerOutcome& outcome, RungWalkStats& ws) {
  auto& metrics = telemetry::MetricsRegistry::instance();
  fault::FaultModel* fm = fault::active();
  bool rung_failed = false;
  const std::int64_t tiles = exec.tile_count();

  // Tile-parallel fast path: fan every tile's independent first run across
  // the process pool (Phase A), then replay the serial loop's detect/retry
  // decisions tile-by-tile from recorded evidence (Phase B). Disabled for
  // transient fault models — there each SRAM access advances a per-site
  // sequence, so a retry interleaved between first runs would change later
  // tiles' draws; those keep the serial loop verbatim.
  const bool parallel = exec::ThreadPool::instance().size() > 1 && tiles > 1 &&
                        (fm == nullptr || !fm->config().transient);

  std::vector<arch::MachineStats> first_costs;
  std::vector<std::int64_t> emulated_ecc;
  if (parallel) {
    if (!exec::ParallelConvRunner().run_all(exec, cancel, &first_costs))
      return cancelled_status(outcome.layer, "parallel-tile-boundary");
    // Reconstruct the attempt-0 ECC signals the serial loop would have
    // seen: in tile order, the first tile touching an activation slot owns
    // its generation, and under the defect model each read's contribution
    // to the detected-minus-corrected delta is a pure function of the
    // slot (corrected single-bit events subtract, matching check_tile).
    emulated_ecc.assign(static_cast<std::size_t>(tiles), 0);
    if (fm != nullptr && fm->sram_active()) {
      std::unordered_set<std::size_t> owned;
      for (std::int64_t t = 0; t < tiles; ++t) {
        for (const std::size_t aidx : exec.tile_inputs(t)) {
          if (owned.insert(aidx).second)
            emulated_ecc[static_cast<std::size_t>(t)] +=
                fm->sram_defect_ecc_delta(
                    static_cast<unsigned>(exec.config().value_bits),
                    fault::FaultModel::Site::kActSram, aidx);
        }
      }
    }
  }

  // What the serial loop would have spent by the time a rung fails:
  // first-run costs of the tiles visited so far, plus retry runs and
  // backoff stalls. The live exec.stats() can't stand in for this in
  // parallel mode — Phase A already charged *every* tile's first run.
  std::int64_t serial_cycles = 0;

  for (std::int64_t tile = 0; tile < tiles && !rung_failed; ++tile) {
    // Tile-boundary cancellation: an expired request stops charging
    // cycles here, between tiles, and its replica frees promptly.
    if (cancel != nullptr && cancel->cancelled())
      return cancelled_status(outcome.layer, "tile-boundary");
    if (parallel) {
      const arch::MachineStats& fc =
          first_costs[static_cast<std::size_t>(tile)];
      serial_cycles += fc.compute_cycles + fc.stall_cycles;
    }
    bool tile_retried = false;
    for (int attempt = 0;; ++attempt) {
      TileSignals sig;
      if (parallel && attempt == 0) {
        // The tile already ran in Phase A: emulate the ECC delta its first
        // run produced under the serial schedule, then run the real
        // guards (the guard reads mutate fault stats identically in both
        // schedules, tile by tile).
        const std::int64_t ecc_hits =
            emulated_ecc[static_cast<std::size_t>(tile)];
        for (std::int64_t i = 0; i < ecc_hits; ++i)
          sig.add(ecc_detect_kind(*fm));
        sig.merge(guard_signals(exec, tile, shape));
      } else {
        const fault::FaultStats before =
            fm != nullptr ? fm->stats() : fault::FaultStats{};
        const arch::MachineStats run_cost = exec.run_tile(tile);
        serial_cycles += run_cost.compute_cycles + run_cost.stall_cycles;
        sig = check_tile(exec, tile, shape, before);
      }
      for (int d = 0; d < kDetectKinds; ++d)
        outcome.detections[static_cast<std::size_t>(d)] +=
            sig.hits[static_cast<std::size_t>(d)];
      if (!sig.any) {
        if (tile_retried) {
          ++outcome.tiles_recovered;
          metrics.counter("fault.recovered").add(1);
        }
        break;
      }
      if (attempt >= policy.retries) {
        rung_failed = true;  // budget exhausted: trip the circuit breaker
        break;
      }
      if (!tile_retried) {
        tile_retried = true;
        ++outcome.tiles_retried;
      }
      ++outcome.retries;
      const std::int64_t stall = policy.backoff_for(attempt);
      exec.add_stall_cycles(stall);
      ws.backoff += stall;
      serial_cycles += stall;
      if (auto& journal = telemetry::Journal::instance(); journal.enabled())
        journal.record("resilience.retry", outcome.layer,
                       {{"tile", static_cast<double>(tile)},
                        {"attempt", static_cast<double>(attempt)},
                        {"stall_cycles", static_cast<double>(stall)},
                        {"detections", static_cast<double>(sig.count())}},
                       to_string(rung));
      // Drop the cached activation streams so the retry re-reads SRAM and
      // regenerates them — under a transient fault model the re-roll can
      // clear the fault; under the defect model it reproduces it and the
      // budget drains toward degradation.
      exec.invalidate_tile_inputs(tile);
    }
  }

  if (rung_failed) {
    // The rung's ledger is discarded with the execution, so keep the burned
    // cycles visible. In parallel mode the reconstructed serial spend is
    // reported so the ledger is independent of GEO_THREADS; mid-run
    // nearmem_cycles are zero in both modes (the near-memory pass is
    // charged at finish()).
    if (parallel) {
      ws.abandoned += serial_cycles;
    } else {
      const arch::MachineStats& st = exec.stats();
      ws.abandoned +=
          st.compute_cycles + st.stall_cycles + st.nearmem_cycles;
    }
    return false;
  }
  return true;
}

}  // namespace

geo::StatusOr<arch::MachineResult> ResilientExecutor::run_conv(
    const arch::ConvShape& shape, std::span<const float> weights,
    std::span<const float> input, std::span<const float> bn_scale,
    std::span<const float> bn_shift, std::uint64_t layer_salt,
    std::string label, RunOptions options) {
  auto& metrics = telemetry::MetricsRegistry::instance();
  auto& journal = telemetry::Journal::instance();
  LayerOutcome outcome;
  outcome.layer = label.empty() ? shape.name : std::move(label);

  // The degradation ladder for this machine: whatever accumulation the
  // hardware is configured with, then progressively more robust modes, and
  // finally the fault-free software reference (which cannot fail). A
  // non-native `options.start` (the serving layer's overload steering)
  // drops the rungs above it.
  std::vector<Rung> ladder;
  if (options.start == Rung::kNative) ladder.push_back(Rung::kNative);
  if (options.start <= Rung::kPbw && hw_.accum != nn::AccumMode::kPbw &&
      hw_.accum != nn::AccumMode::kFxp)
    ladder.push_back(Rung::kPbw);
  if (options.start <= Rung::kFxp && hw_.accum != nn::AccumMode::kFxp)
    ladder.push_back(Rung::kFxp);
  ladder.push_back(Rung::kReference);

  for (const Rung rung : ladder) {
    if (options.cancel != nullptr && options.cancel->cancelled())
      return cancelled_status(outcome.layer, "rung-entry");
    outcome.rung = rung;
    outcome.degraded = rung != Rung::kNative;
    arch::HwConfig hw = hw_;
    if (rung == Rung::kPbw) hw.accum = nn::AccumMode::kPbw;
    if (rung == Rung::kFxp) hw.accum = nn::AccumMode::kFxp;
    arch::GeoMachine machine(hw);

    arch::MachineResult accepted;
    if (rung == Rung::kReference) {
      // Bottom rung: bit-exact fixed-point software reference, computed
      // outside every fault hook. Shares apply_bn_relu with the machine so
      // the write-back rounding is identical; its zeroed machine stats
      // reconcile trivially.
      if (auto s = machine.validate_conv(shape, weights, input, bn_scale,
                                         bn_shift);
          !s.ok())
        return s;
      const nn::ScLayerConfig cfg = machine.layer_config(shape, layer_salt);
      accepted.counters = nn::fxp_reference_counters(
          shape, weights, input, cfg.value_bits, cfg.stream_len);
      accepted.activations.resize(accepted.counters.size());
      const std::int64_t per_channel =
          static_cast<std::int64_t>(shape.hout()) * shape.wout();
      arch::apply_bn_relu(accepted.counters, bn_scale, bn_shift,
                          cfg.stream_len, per_channel, accepted.activations);
      outcome.tiles = 0;  // no machine tiles; the whole layer is one unit
    } else {
      auto prepared = machine.prepare_conv(shape, weights, input, bn_scale,
                                           bn_shift, layer_salt);
      if (!prepared.ok()) return prepared.status();
      arch::ConvExecution exec = std::move(prepared).value();

      RungWalkStats ws;
      auto walked = walk_rung_tiles(exec, shape, policy_, rung,
                                    options.cancel, outcome, ws);
      if (!walked.ok()) return walked.status();
      if (!*walked) {
        outcome.abandoned_cycles += ws.abandoned;
        if (journal.enabled())
          journal.record("resilience.degrade", outcome.layer,
                         {{"retries", static_cast<double>(outcome.retries)},
                          {"abandoned_cycles",
                           static_cast<double>(outcome.abandoned_cycles)}},
                         to_string(rung));
        continue;
      }

      // The store's non-overlapped block-load wait belongs to the accepted
      // execution (abandoned rungs discard their ledgers), charged into the
      // io sub-bucket so attribution lands it in the memory bucket.
      if (options.io_stall_cycles > 0)
        exec.add_io_stall_cycles(options.io_stall_cycles);
      const std::int64_t tiles = exec.tile_count();
      accepted = exec.finish();
      if (!accepted.stats.ledger_ok) {
        // An unreconciled ledger is a detection: descend.
        outcome.detections[static_cast<std::size_t>(Detect::kLedger)] += 1;
        outcome.abandoned_cycles += accepted.stats.total_cycles;
        if (journal.enabled())
          journal.record("resilience.degrade", outcome.layer, {},
                         "ledger-mismatch");
        continue;
      }
      outcome.tiles = tiles;
      outcome.backoff_cycles += ws.backoff;
    }

    outcome.ledger_ok = true;
    if (journal.enabled() && (outcome.degraded || outcome.tiles_retried > 0))
      journal.record("resilience.accept", outcome.layer,
                     {{"tiles_retried",
                       static_cast<double>(outcome.tiles_retried)},
                      {"retries", static_cast<double>(outcome.retries)}},
                     to_string(rung));
    if (outcome.degraded) metrics.counter("fault.degraded").add(1);
    report_.layers.push_back(std::move(outcome));
    return accepted;
  }

  // Unreachable: the ladder always ends in kReference, which returns.
  return geo::Status::internal("resilience: degradation ladder fell through");
}

}  // namespace geo::resilience
