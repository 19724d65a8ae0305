#include "core/env.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

namespace geo::core {
namespace {

TEST(Mix64, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_NE(mix64(0x8000000000000000ull), mix64(0));
  // splitmix64's finalizer maps 0 to 0; any nonzero input must leave it.
  EXPECT_NE(mix64(1), 0u);
}

TEST(GlobalSeed, IsStableWithinTheProcess) {
  // The value is parsed once; repeated calls must agree (the trainer, bench
  // harness, and fault model all rely on reading the same master seed).
  EXPECT_EQ(global_seed(), global_seed());
}

TEST(SeedOr, FollowsGlobalSeed) {
  const auto master = global_seed();
  if (!master.has_value()) {
    // GEO_SEED unset (the tier-1 configuration): every component keeps its
    // historical default, whatever the domain string.
    EXPECT_EQ(seed_or(42, "bench.model"), 42u);
    EXPECT_EQ(seed_or(7, "train.shuffle"), 7u);
    EXPECT_EQ(seed_or(0, "fault.model"), 0u);
  } else {
    // GEO_SEED set: the fallback is ignored and domains are decorrelated.
    EXPECT_EQ(seed_or(1, "a"), seed_or(99, "a"));
    EXPECT_NE(seed_or(1, "a"), seed_or(1, "b"));
  }
}

TEST(SeedOr, IsDeterministicPerDomain) {
  EXPECT_EQ(seed_or(5, "x"), seed_or(5, "x"));
}

TEST(ParseUint, StrictWholeString) {
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_uint("").has_value());
  EXPECT_FALSE(parse_uint("12x").has_value());   // trailing junk
  EXPECT_FALSE(parse_uint(" 12").has_value());   // leading junk
  EXPECT_FALSE(parse_uint("-1").has_value());
  EXPECT_FALSE(parse_uint("18446744073709551616").has_value());  // overflow
}

TEST(ParseInt, StrictWholeString) {
  EXPECT_EQ(parse_int("-42"), -42);
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("4.2").has_value());
  EXPECT_FALSE(parse_int("two").has_value());
  EXPECT_FALSE(parse_int("99999999999999999999").has_value());  // overflow
}

// Regression: GEO_CRASH_AFTER_EPOCH (and every other numeric knob) used raw
// atoi, so "garbage" silently became 0 and out-of-range values were UB.
// env_int must treat both as unset, with the fallback applied.
TEST(EnvInt, FallsBackOnUnsetMalformedAndOutOfRange) {
  ::unsetenv("GEO_TEST_KNOB");
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7), 7);
  ::setenv("GEO_TEST_KNOB", "", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7), 7);  // empty counts as unset
  ::setenv("GEO_TEST_KNOB", "12", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7), 12);
  ::setenv("GEO_TEST_KNOB", "-3", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7), -3);
  ::setenv("GEO_TEST_KNOB", "garbage", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7), 7);  // atoi would have said 0
  ::setenv("GEO_TEST_KNOB", "12junk", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7), 7);  // atoi would have said 12
  ::setenv("GEO_TEST_KNOB", "99", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7, 0, 64), 7);  // above hi
  ::setenv("GEO_TEST_KNOB", "-1", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7, 0, 64), 7);  // below lo
  ::setenv("GEO_TEST_KNOB", "64", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB", 7, 0, 64), 64);  // bounds inclusive
  ::unsetenv("GEO_TEST_KNOB");
}

TEST(EnvInt, ReReadsTheEnvironmentEachCall) {
  ::setenv("GEO_TEST_KNOB2", "1", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB2", 0), 1);
  ::setenv("GEO_TEST_KNOB2", "2", 1);
  EXPECT_EQ(env_int("GEO_TEST_KNOB2", 0), 2);
  ::unsetenv("GEO_TEST_KNOB2");
}

}  // namespace
}  // namespace geo::core
