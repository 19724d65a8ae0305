// Negative-path coverage: malformed shapes and operand spans must
// come back as structured geo::Status errors (or typed exceptions on the
// legacy APIs) — never crashes, never silently wrong results.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "arch/machine.hpp"

namespace geo {
namespace {

using arch::ConvShape;
using arch::GeoMachine;
using arch::HwConfig;

struct Operands {
  ConvShape shape = ConvShape::conv("neg", 4, 6, 5, 3, 1, false);
  std::vector<float> weights, input, ones, zeros;

  Operands() {
    weights.assign(static_cast<std::size_t>(shape.weights()), 0.25f);
    input.assign(static_cast<std::size_t>(shape.activations()), 0.5f);
    ones.assign(static_cast<std::size_t>(shape.cout), 1.0f);
    zeros.assign(static_cast<std::size_t>(shape.cout), 0.0f);
  }
};

TEST(NegativePath, ValidOperandsSucceed) {
  const Operands op;
  GeoMachine machine(HwConfig::ulp());
  const auto r = machine.try_run_conv(op.shape, op.weights, op.input, op.ones,
                                      op.zeros, 1);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_FALSE(r->activations.empty());
  EXPECT_TRUE(r->stats.ledger_ok);
}

TEST(NegativePath, DegenerateShapesAreStructuredErrors) {
  const Operands op;
  GeoMachine machine(HwConfig::ulp());
  ConvShape bad = op.shape;

  bad.cin = 0;
  EXPECT_FALSE(machine.validate_conv(bad, op.weights, op.input, op.ones,
                                     op.zeros)
                   .ok());

  bad = op.shape;
  bad.stride = 0;
  EXPECT_FALSE(machine.validate_conv(bad, op.weights, op.input, op.ones,
                                     op.zeros)
                   .ok());

  bad = op.shape;
  bad.pad = -1;
  EXPECT_FALSE(machine.validate_conv(bad, op.weights, op.input, op.ones,
                                     op.zeros)
                   .ok());

  bad = op.shape;
  bad.kh = 99;  // kernel larger than the padded input
  const geo::Status s =
      machine.validate_conv(bad, op.weights, op.input, op.ones, op.zeros);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("GeoMachine"), std::string::npos)
      << s.to_string();
}

TEST(NegativePath, OperandSpanMismatchesAreStructuredErrors) {
  const Operands op;
  GeoMachine machine(HwConfig::ulp());

  std::vector<float> short_weights(op.weights.begin(), op.weights.end() - 1);
  auto r = machine.try_run_conv(op.shape, short_weights, op.input, op.ones,
                                op.zeros, 1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  std::vector<float> short_input(op.input.begin(), op.input.end() - 2);
  EXPECT_FALSE(machine
                   .try_run_conv(op.shape, op.weights, short_input, op.ones,
                                 op.zeros, 1)
                   .ok());

  std::vector<float> short_bn(op.ones.begin(), op.ones.end() - 1);
  EXPECT_FALSE(machine
                   .try_run_conv(op.shape, op.weights, op.input, short_bn,
                                 op.zeros, 1)
                   .ok());
  EXPECT_FALSE(machine
                   .try_run_conv(op.shape, op.weights, op.input, op.ones,
                                 short_bn, 1)
                   .ok());
}

TEST(NegativePath, LegacyRunConvThrowsTheStatusMessage) {
  const Operands op;
  GeoMachine machine(HwConfig::ulp());
  std::vector<float> short_weights(op.weights.begin(), op.weights.end() - 1);
  try {
    machine.run_conv(op.shape, short_weights, op.input, op.ones, op.zeros, 1);
    FAIL() << "run_conv accepted a short weight span";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("invalid-argument"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace geo
