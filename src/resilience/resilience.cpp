#include "resilience/resilience.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "core/env.hpp"
#include "exec/parallel_conv.hpp"
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

  std::int64_t count() const {
    std::int64_t n = 0;
    for (const std::int64_t h : hits) n += h;
    return n;
  }
};

// Checks one tile against the record of its latest run: every zeroed
// activation word it read (an uncorrectable ECC event; corrections carry no
// signal), then the partial-sum range and CRC-readback guards over its
// outputs. The CRC probe is a real guard read: it counts events exactly like
// the hardware readback would and charges its ECC retry cycles to `exec`.
TileSignals check_tile(arch::ConvExecution& exec, std::int64_t tile,
                       const arch::ConvShape& shape, fault::FaultModel* fm) {
  TileSignals sig;
  const std::int64_t zeroed = exec.zeroed_inputs(tile);
  for (std::int64_t i = 0; i < zeroed; ++i)
    sig.add(fm->config().ecc == fault::EccMode::kParity
                ? Detect::kParityZeroed
                : Detect::kSecdedDoubleBit);

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
      const fault::FaultModel::SramRead readback = fm->sram_read(
          word, 32, fault::FaultModel::Site::kPsumSram, oidx);
      exec.add_stall_cycles(readback.retry_cycles);
      if (readback.word != word) sig.add(Detect::kPsumCrc);
    }
  }
  return sig;
}

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
  std::int64_t abandoned = 0;  // tile-order spend, set when the rung fails
};

// Walks every tile of a prepared execution under the bounded detect/retry
// loop. A first pass runs every tile once, fanned across the process pool
// (inline at one lane); then, in tile order, each tile is checked from the
// record of its latest run and retried with exponential backoff, with
// detection bookkeeping into `outcome`. A tile is checked against the words
// it actually read, so one that read a word another tile's retry has since
// regenerated is still judged by what it consumed. Returns true when every
// tile passed, false when a tile drained its retry budget (the rung failed;
// ws.abandoned holds what the walk spent in tile order up to that tile), or
// kDeadlineExceeded when `cancel` fired at a tile boundary (the partial run
// is abandoned in place).
geo::StatusOr<bool> walk_rung_tiles(arch::ConvExecution& exec,
                                    const arch::ConvShape& shape,
                                    const RetryPolicy& policy, Rung rung,
                                    exec::CancelToken* cancel,
                                    LayerOutcome& outcome, RungWalkStats& ws) {
  auto& metrics = telemetry::MetricsRegistry::instance();
  fault::FaultModel* fm = fault::active();
  const std::int64_t tiles = exec.tile_count();

  std::vector<arch::MachineStats> first_costs;
  if (!exec::ParallelConvRunner().run_all(exec, cancel, &first_costs))
    return cancelled_status(outcome.layer, "parallel-tile-boundary");

  // What the walk has spent in tile order: first-run costs of the tiles
  // visited so far, plus retry runs and backoff stalls. An abandoned rung is
  // charged this, not the live ledger, which already holds every tile's
  // first run.
  std::int64_t walk_cycles = 0;
  for (std::int64_t tile = 0; tile < tiles; ++tile) {
    // Tile-boundary cancellation: an expired request stops charging
    // cycles here, between tiles, and its replica frees promptly.
    if (cancel != nullptr && cancel->cancelled())
      return cancelled_status(outcome.layer, "tile-boundary");
    const arch::MachineStats& fc = first_costs[static_cast<std::size_t>(tile)];
    walk_cycles += fc.compute_cycles + fc.stall_cycles;
    bool tile_retried = false;
    for (int attempt = 0;; ++attempt) {
      if (attempt > 0) {
        const arch::MachineStats run_cost = exec.run_tile(tile);
        walk_cycles += run_cost.compute_cycles + run_cost.stall_cycles;
      }
      const TileSignals sig = check_tile(exec, tile, shape, fm);
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
        // Budget exhausted: trip the circuit breaker. The rung's ledger is
        // discarded with the execution, so keep the burned cycles visible
        // (nearmem_cycles are zero mid-run; the near-memory pass is charged
        // at finish()).
        ws.abandoned += walk_cycles;
        return false;
      }
      if (!tile_retried) {
        tile_retried = true;
        ++outcome.tiles_retried;
      }
      ++outcome.retries;
      const std::int64_t stall = policy.backoff_for(attempt);
      exec.add_stall_cycles(stall);
      ws.backoff += stall;
      walk_cycles += stall;
      if (auto& journal = telemetry::Journal::instance(); journal.enabled())
        journal.record("resilience.retry", outcome.layer,
                       {{"tile", static_cast<double>(tile)},
                        {"attempt", static_cast<double>(attempt)},
                        {"stall_cycles", static_cast<double>(stall)},
                        {"detections", static_cast<double>(sig.count())}},
                       to_string(rung));
      // Re-read the tile's activation words and regenerate their streams
      // before the retry: under a transient fault model the re-roll can
      // clear the fault; under the defect model it reproduces it and the
      // budget drains toward degradation.
      exec.regenerate_tile_inputs(tile);
    }
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
      // the write-back rounding is identical. The store's block-load wait
      // happened whichever rung answered, so its ledger is that io stall
      // alone, which reconciles trivially.
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
      if (options.io_stall_cycles > 0) {
        accepted.stats.stall_cycles = options.io_stall_cycles;
        accepted.stats.io_stall_cycles = options.io_stall_cycles;
        accepted.stats.total_cycles = options.io_stall_cycles;
      }
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
