#include "sc/rng_source.hpp"

#include <stdexcept>

#include "sc/sobol.hpp"

namespace geo::sc {

const char* to_string(RngKind kind) noexcept {
  switch (kind) {
    case RngKind::kLfsr: return "lfsr";
    case RngKind::kTrng: return "trng";
    case RngKind::kCounter: return "counter";
    case RngKind::kSobol: return "sobol";
  }
  return "?";
}

LfsrSource::LfsrSource(const SeedSpec& spec)
    : spec_(spec),
      lfsr_(spec.bits, spec.seed,
            spec.taps != 0 ? spec.taps : Lfsr::default_taps(spec.bits)) {}

std::unique_ptr<RngSource> LfsrSource::clone() const {
  return std::make_unique<LfsrSource>(spec_);
}

void LfsrSource::reseed(const SeedSpec& spec) { *this = LfsrSource(spec); }

TrngSource::TrngSource(const SeedSpec& spec)
    : bits_(spec.bits), epoch_(0), id_(spec.seed) {}

std::uint32_t TrngSource::next() {
  if (!gen_.has_value()) gen_.emplace(id_);
  return static_cast<std::uint32_t>((*gen_)()) & ((1u << bits_) - 1u);
}

void TrngSource::reset() {
  // A fresh, unpredictable sequence each reset: that is what distinguishes a
  // TRNG from an LFSR in the paper's experiments. Keyed by (id, epoch) so
  // different TrngSource instances stay decorrelated yet the whole program
  // remains reproducible run-to-run.
  ++epoch_;
  std::seed_seq seq{id_, epoch_, 0x9E3779B9u};
  gen_.emplace(seq);
}

std::unique_ptr<RngSource> TrngSource::clone() const {
  SeedSpec spec;
  spec.bits = bits_;
  spec.seed = id_;
  return std::make_unique<TrngSource>(spec);
}

void TrngSource::reseed(const SeedSpec& spec) { *this = TrngSource(spec); }

CounterSource::CounterSource(const SeedSpec& spec)
    : bits_(spec.bits),
      start_(spec.seed & ((1u << spec.bits) - 1u)),
      state_(start_) {}

std::uint32_t CounterSource::next() {
  const std::uint32_t v = state_;
  state_ = (state_ + 1u) & ((1u << bits_) - 1u);
  return v;
}

std::unique_ptr<RngSource> CounterSource::clone() const {
  SeedSpec spec;
  spec.bits = bits_;
  spec.seed = start_;
  return std::make_unique<CounterSource>(spec);
}

void CounterSource::reseed(const SeedSpec& spec) {
  *this = CounterSource(spec);
}

std::unique_ptr<RngSource> make_source(RngKind kind, const SeedSpec& spec) {
  switch (kind) {
    case RngKind::kLfsr: return std::make_unique<LfsrSource>(spec);
    case RngKind::kTrng: return std::make_unique<TrngSource>(spec);
    case RngKind::kCounter: return std::make_unique<CounterSource>(spec);
    case RngKind::kSobol: return std::make_unique<SobolSource>(spec);
  }
  throw std::invalid_argument("make_source: unknown RngKind");
}

}  // namespace geo::sc
