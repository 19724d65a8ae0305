// Randomized property tests cross-checking the packed-word substrate
// against a naive std::vector<bool> reference model, plus exhaustive SNG
// sweeps at small widths.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sc/bitstream.hpp"
#include "sc/lfsr.hpp"
#include "sc/ops.hpp"
#include "sc/parallel_counter.hpp"
#include "sc/sng.hpp"

namespace geo::sc {
namespace {

// Naive reference model of a bitstream.
using Ref = std::vector<bool>;

Ref to_ref(const Bitstream& s) {
  Ref r(s.length());
  for (std::size_t i = 0; i < s.length(); ++i) r[i] = s.get(i);
  return r;
}

Bitstream random_stream(std::mt19937& rng, std::size_t len, double p) {
  std::bernoulli_distribution bit(p);
  Bitstream s(len);
  for (std::size_t i = 0; i < len; ++i) s.set(i, bit(rng));
  return s;
}

TEST(BitstreamFuzz, OpsMatchReferenceModel) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<std::size_t> len_dist(1, 300);
  std::uniform_real_distribution<double> p_dist(0.0, 1.0);
  for (int round = 0; round < 50; ++round) {
    const std::size_t len = len_dist(rng);
    const Bitstream a = random_stream(rng, len, p_dist(rng));
    const Bitstream b = random_stream(rng, len, p_dist(rng));
    const Ref ra = to_ref(a), rb = to_ref(b);

    const Bitstream ops[] = {a & b, a | b, a ^ b, ~a};
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(ops[0].get(i), ra[i] && rb[i]) << "AND round " << round;
      ASSERT_EQ(ops[1].get(i), ra[i] || rb[i]) << "OR round " << round;
      ASSERT_EQ(ops[2].get(i), ra[i] != rb[i]) << "XOR round " << round;
      ASSERT_EQ(ops[3].get(i), !ra[i]) << "NOT round " << round;
    }
    std::size_t ref_pc = 0;
    for (bool v : ra) ref_pc += v;
    ASSERT_EQ(a.popcount(), ref_pc);
    const std::size_t cut = len / 2;
    std::size_t ref_prefix = 0;
    for (std::size_t i = 0; i < cut; ++i) ref_prefix += ra[i];
    ASSERT_EQ(a.popcount_prefix(cut), ref_prefix);
  }
}

TEST(ParallelCounterFuzz, MatchesReferenceAcrossShapes) {
  std::mt19937 rng(123);
  std::uniform_int_distribution<int> count_dist(1, 24);
  std::uniform_int_distribution<std::size_t> len_dist(1, 200);
  for (int round = 0; round < 30; ++round) {
    const int count = count_dist(rng);
    const std::size_t len = len_dist(rng);
    std::vector<Bitstream> streams;
    for (int i = 0; i < count; ++i)
      streams.push_back(random_stream(rng, len, 0.3));
    const auto counts = parallel_count(streams).value();
    std::uint64_t total = 0;
    for (std::size_t t = 0; t < len; ++t) {
      std::uint16_t expected = 0;
      for (const auto& s : streams) expected += s.get(t);
      ASSERT_EQ(counts[t], expected) << "round " << round << " cycle " << t;
      total += expected;
    }
    ASSERT_EQ(count_total(streams).value(), total);
  }
}

// Exhaustive SNG check at small widths: every representable value, over a
// full period, must count exactly (the "almost accurate generation"
// property underlying GEO's deterministic training).
class SngExhaustive : public ::testing::TestWithParam<unsigned> {};

TEST_P(SngExhaustive, AllValuesExactOverFullPeriod) {
  const unsigned bits = GetParam();
  const std::size_t period = (1u << bits) - 1u;
  for (std::uint32_t seed : {1u, 5u, 11u}) {
    Sng sng(RngKind::kLfsr, SeedSpec{.bits = bits, .seed = seed});
    for (std::uint32_t v = 0; v < (1u << bits); ++v) {
      const std::uint32_t expect = std::min(v, static_cast<std::uint32_t>(
                                                   period));
      ASSERT_EQ(sng.generate(v, period).popcount(), expect)
          << "bits=" << bits << " seed=" << seed << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SngExhaustive, ::testing::Values(4u, 5u, 6u));

// Every alternate polynomial must give the same exactness guarantee.
TEST(SngExhaustive, AlternatePolynomialsEquallyExact) {
  const unsigned bits = 5;
  const std::size_t period = 31;
  for (std::uint32_t taps : Lfsr::find_maximal_taps(bits, 6)) {
    Sng sng(RngKind::kLfsr,
            SeedSpec{.bits = bits, .seed = 3, .taps = taps});
    for (std::uint32_t v = 0; v < 32; ++v)
      ASSERT_EQ(sng.generate(v, period).popcount(), std::min(v, 31u))
          << "taps=" << taps << " v=" << v;
  }
}

// OR-accumulation algebraic properties on random stream sets.
TEST(OrAccumulateFuzz, UnionBounds) {
  std::mt19937 rng(7);
  for (int round = 0; round < 25; ++round) {
    std::uniform_int_distribution<int> count_dist(1, 12);
    const int count = count_dist(rng);
    std::vector<Bitstream> streams;
    std::size_t max_pc = 0, sum_pc = 0;
    for (int i = 0; i < count; ++i) {
      streams.push_back(random_stream(rng, 128, 0.2));
      max_pc = std::max(max_pc, streams.back().popcount());
      sum_pc += streams.back().popcount();
    }
    const std::size_t union_pc = or_accumulate(streams).popcount();
    ASSERT_GE(union_pc, max_pc) << "union >= max operand";
    ASSERT_LE(union_pc, std::min<std::size_t>(sum_pc, 128))
        << "union <= sum and <= length";
  }
}

TEST(OrAccumulateFuzz, IdempotentAndCommutative) {
  std::mt19937 rng(17);
  const Bitstream a = random_stream(rng, 200, 0.4);
  const Bitstream b = random_stream(rng, 200, 0.3);
  const Bitstream ab[] = {a, b};
  const Bitstream ba[] = {b, a};
  const Bitstream aab[] = {a, a, b};
  EXPECT_EQ(or_accumulate(ab), or_accumulate(ba));
  EXPECT_EQ(or_accumulate(aab), or_accumulate(ab));
}

}  // namespace
}  // namespace geo::sc
