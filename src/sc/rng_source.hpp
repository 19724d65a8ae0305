// Random-number sources feeding stochastic number generators.
//
// GEO's central generation hypothesis (Sec. II-A) is that a *deterministic*
// source (maximal-length LFSR) with *shared* seeds produces a fixed,
// learnable error, while a true-random source produces irreducible variance.
// This header abstracts the source so SNGs, experiments, and the accuracy
// benches can swap LFSR / TRNG / counter / Sobol generation freely.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <random>

#include "sc/lfsr.hpp"

namespace geo::sc {

enum class RngKind { kLfsr, kTrng, kCounter, kSobol };

const char* to_string(RngKind kind) noexcept;

// Identifies one generator instance: an LFSR is fully determined by
// (bits, seed, tap mask); other sources use `seed` as their stream id.
struct SeedSpec {
  unsigned bits = 8;
  std::uint32_t seed = 1;
  std::uint32_t taps = 0;  // 0 = default polynomial for `bits`

  bool operator==(const SeedSpec&) const = default;
};

class RngSource {
 public:
  virtual ~RngSource() = default;

  // Next value in [0, 2^bits() - 1]. For LFSRs the all-zero value never
  // occurs (period 2^n - 1).
  virtual std::uint32_t next() = 0;

  virtual unsigned bits() const noexcept = 0;

  // Smallest value this source can emit. A maximal-length LFSR never
  // reaches the absorbing all-zero state, so its range is [1, 2^bits - 1];
  // every other source covers [0, 2^bits - 1]. Consumers that split the
  // range (e.g. sc::mux_add's select comparator) must derive thresholds
  // from this, not from 2^bits alone — assuming a full range over an
  // LFSR systematically biases the split.
  virtual std::uint32_t min_value() const noexcept { return 0; }

  // Restarts the sequence. Deterministic sources replay exactly; the TRNG
  // draws a fresh sequence (that is the point of a TRNG).
  virtual void reset() = 0;

  // Reinitializes this source exactly as constructing a fresh one from
  // `spec` would, so hot loops can reuse one heap object per thread instead
  // of allocating a source per stream (bit-identical to construct-fresh,
  // including the TRNG's epoch restart).
  virtual void reseed(const SeedSpec& spec) = 0;

  virtual bool deterministic() const noexcept = 0;

  virtual std::unique_ptr<RngSource> clone() const = 0;
};

// Maximal-length LFSR source (deterministic, repeatable).
class LfsrSource final : public RngSource {
 public:
  explicit LfsrSource(const SeedSpec& spec);

  std::uint32_t next() override { return lfsr_.next(); }
  unsigned bits() const noexcept override { return lfsr_.bits(); }
  std::uint32_t min_value() const noexcept override { return 1; }
  void reset() override { lfsr_.reset(); }
  void reseed(const SeedSpec& spec) override;
  bool deterministic() const noexcept override { return true; }
  std::unique_ptr<RngSource> clone() const override;

 private:
  SeedSpec spec_;
  Lfsr lfsr_;
};

// True-random source, modeled with mt19937 (the paper itself substitutes
// PyTorch's `rand` for a hardware TRNG). `reset()` advances to a fresh
// sequence so repeated runs see different randomness, as real TRNGs do.
// The engine is seeded once per sequence: from the spec's seed on the first
// next() when no reset() came first, else by the reset. Stream generation
// resets before every stream, so it never pays for the spec seeding.
class TrngSource final : public RngSource {
 public:
  explicit TrngSource(const SeedSpec& spec);

  std::uint32_t next() override;
  unsigned bits() const noexcept override { return bits_; }
  void reset() override;
  void reseed(const SeedSpec& spec) override;
  bool deterministic() const noexcept override { return false; }
  std::unique_ptr<RngSource> clone() const override;

 private:
  unsigned bits_;
  std::uint32_t epoch_;
  std::uint32_t id_;
  std::optional<std::mt19937> gen_;  // empty until the first next()/reset()
};

// Simple ramp counter 0,1,...,2^n-1 (deterministic unary generation; useful
// as a correlation-pathological reference in tests).
class CounterSource final : public RngSource {
 public:
  explicit CounterSource(const SeedSpec& spec);

  std::uint32_t next() override;
  unsigned bits() const noexcept override { return bits_; }
  void reset() override { state_ = start_; }
  void reseed(const SeedSpec& spec) override;
  bool deterministic() const noexcept override { return true; }
  std::unique_ptr<RngSource> clone() const override;

 private:
  unsigned bits_;
  std::uint32_t start_;
  std::uint32_t state_;
};

// Factory: builds a source of the given kind from a SeedSpec. For kSobol the
// spec's `seed` selects the Sobol dimension.
std::unique_ptr<RngSource> make_source(RngKind kind, const SeedSpec& spec);

}  // namespace geo::sc
