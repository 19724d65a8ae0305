// Fault-tolerant execution runtime: detect -> retry -> degrade.
//
// ResilientExecutor wraps GeoMachine's tile-granular ConvExecution in a
// bounded detect-and-retry loop (docs/RESILIENCE.md). Detection draws on
// four sources:
//
//   kSecdedDoubleBit  SECDED flagged an uncorrectable (multi-bit) SRAM word
//   kParityZeroed     parity ECC detected and zeroed a corrupted word
//   kPsumCrc          the partial-sum CRC guard caught a psum readback that
//                     does not match what the tile stored (Site::kPsumSram)
//   kPsumRange        a partial sum left the provable |c| <= taps * L bound
//   kLedger           the layer's cycle ledger failed to reconcile
//
// A detected tile re-executes from its prepare-time input snapshot under a
// bounded retry budget; each retry charges exponentially growing backoff
// stall cycles to the machine's ledger and regenerates the tile's activation
// streams (so a transient fault model can actually recover — a defect model
// reproduces the fault and exhausts the budget). A tile that exhausts its
// budget trips the layer's circuit breaker: the whole layer descends the
// degradation ladder
//
//   native accumulation -> kPbw -> kFxp -> fixed-point reference
//
// re-executing on progressively more robust hardware modes, bottoming out in
// nn::fxp_reference_counters — a bit-exact, fault-free software rung that
// always succeeds. Every outcome lands in a ResilienceReport and in the
// fault.recovered / fault.degraded telemetry counters.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "arch/hw_config.hpp"
#include "arch/machine.hpp"
#include "core/status.hpp"
#include "exec/cancel.hpp"

namespace geo::resilience {

// Bounded-retry knobs, overridable via GEO_RETRY (see parse()).
struct RetryPolicy {
  int retries = 2;            // re-executions per tile after the first run
  std::int64_t backoff = 32;  // stall cycles charged before the first retry

  // Stall cycles charged before retry `attempt` (0-based): backoff << attempt.
  std::int64_t backoff_for(int attempt) const noexcept;

  // Parses "retries=N,backoff=C" (either or both, comma-separated).
  // Unknown keys / malformed values are rejected with a diagnostic.
  static geo::StatusOr<RetryPolicy> parse(std::string_view spec);

  // GEO_RETRY, parsed fresh on each call. Unset/empty -> defaults; a
  // malformed spec warns on stderr, records a `config.invalid` journal
  // entry (so chaos-run postmortems show the rejected spec), and returns
  // the defaults — never aborts.
  static RetryPolicy from_env();

  std::string to_string() const;
};

// Detection sources, in report order.
enum class Detect {
  kSecdedDoubleBit = 0,
  kParityZeroed,
  kPsumCrc,
  kPsumRange,
  kLedger,
};
inline constexpr int kDetectKinds = 5;

const char* to_string(Detect d) noexcept;

// Degradation-ladder rungs, most to least capable.
enum class Rung {
  kNative = 0,  // the configured SC accumulation mode
  kPbw,         // partial-binary accumulation
  kFxp,         // fixed-point (direct binary) accumulation on the machine
  kReference,   // bit-exact software fixed-point reference (always succeeds)
};

const char* to_string(Rung r) noexcept;

// Per-layer record of what the runtime did.
struct LayerOutcome {
  std::string layer;                 // caller-supplied label
  Rung rung = Rung::kNative;         // the rung whose result was accepted
  bool degraded = false;             // rung != kNative
  std::int64_t tiles = 0;            // tile count of the accepted execution
  std::int64_t tiles_retried = 0;    // tiles that needed at least one retry
  std::int64_t tiles_recovered = 0;  // retried tiles that then passed
  std::int64_t retries = 0;          // total tile re-executions, all rungs
  std::array<std::int64_t, kDetectKinds> detections{};  // by Detect value
  // Backoff stall cycles charged into the accepted execution's ledger.
  std::int64_t backoff_cycles = 0;
  // Cycles spent on rung attempts that were abandoned (their ledgers are
  // discarded with them; this keeps the work visible).
  std::int64_t abandoned_cycles = 0;
  bool ledger_ok = true;  // accepted execution's ledger reconciled

  // Total extra cycles attributable to fault recovery on this layer.
  std::int64_t retry_cycles() const noexcept {
    return backoff_cycles + abandoned_cycles;
  }
};

struct ResilienceReport {
  std::vector<LayerOutcome> layers;

  bool any_degraded() const noexcept;
  // True when every accepted execution's cycle ledger reconciled and the
  // backoff cycles this runtime charged are visible in those ledgers.
  bool ledger_ok() const noexcept;

  std::int64_t tiles_retried() const noexcept;
  std::int64_t tiles_recovered() const noexcept;
  std::int64_t layers_degraded() const noexcept;
  std::int64_t total_retry_cycles() const noexcept;

  // Human-readable multi-line summary (one line per layer + a totals line).
  std::string summary() const;
};

// Per-run controls layered on the policy (the serving runtime's knobs).
struct RunOptions {
  // First ladder rung to attempt. kNative is the normal path; the serving
  // layer steers overload traffic straight to the reference rung instead
  // of shedding it (docs/SERVING.md). Rungs more capable than `start` are
  // skipped; a non-native start marks the outcome degraded.
  Rung start = Rung::kNative;
  // Cooperative cancellation, polled at every tile boundary (the first
  // pass and the tile-order retry pass alike) and before each rung. A fired
  // token makes run_conv return kDeadlineExceeded; the partial execution is
  // abandoned (no outcome is appended) and the machine stays reusable — the
  // next run_conv on this executor is byte-identical to a fresh one.
  exec::CancelToken* cancel = nullptr;
  // Stall cycles the out-of-core weight store charges for block-load latency
  // this layer's execution could not overlap (store::WeightStore pin/wait
  // stalls, already converted to cycles by the caller). Charged into the
  // accepted result's io sub-bucket, so attribution reports the load wait as
  // memory cost: a machine rung's just before its ledger reconciles, the
  // reference rung's as its whole ledger (stall = io stall = total).
  std::int64_t io_stall_cycles = 0;
};

// Drives convolution layers through detect -> retry -> degrade. One executor
// per network pass; outcomes accumulate in report() in call order.
class ResilientExecutor {
 public:
  explicit ResilientExecutor(const arch::HwConfig& hw,
                             RetryPolicy policy = RetryPolicy::from_env());

  // Executes one layer like GeoMachine::try_run_conv, but fault-tolerantly:
  // the degradation ladder. The input walks the rungs from options.start
  // down, each machine rung prepared once; the first rung whose tiles pass
  // and whose ledger reconciles is accepted, and the reference rung always
  // is. Returns the accepted rung's result (reference-rung results carry
  // zeroed machine stats; their ledger is trivially reconciled) and appends
  // its outcome to report() (a cancelled or invalid layer appends nothing).
  // Non-degraded executions are bit-identical to GeoMachine::try_run_conv
  // under the same fault model; degraded-to-reference layers match
  // nn::fxp_reference_counters exactly.
  geo::StatusOr<arch::MachineResult> run_conv(
      const arch::ConvShape& shape, std::span<const float> weights,
      std::span<const float> input, std::span<const float> bn_scale,
      std::span<const float> bn_shift, std::uint64_t layer_salt,
      std::string label = "", RunOptions options = {});

  const RetryPolicy& policy() const noexcept { return policy_; }
  const ResilienceReport& report() const noexcept { return report_; }

  // The most recent completed run_conv's outcome (nullptr before the first
  // completion): `degraded` means the retry budget drained on every
  // attempted rung (a persistent fault — route away), while
  // `tiles_recovered > 0` with `degraded == false` means in-place retries
  // absorbed a transient.
  const LayerOutcome* last_outcome() const noexcept {
    return report_.layers.empty() ? nullptr : &report_.layers.back();
  }

 private:
  arch::HwConfig hw_;
  RetryPolicy policy_;
  ResilienceReport report_;
};

}  // namespace geo::resilience
