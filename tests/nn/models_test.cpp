// Model-builder checks: topology, per-layer stream-length assignment
// ({sp, s, 128-output} — Sec. IV), BN quantization wiring, and forward
// shape propagation for all three zoo models in all three compute modes.
#include <gtest/gtest.h>

#include "nn/models.hpp"
#include "nn/sc_layers.hpp"

namespace geo::nn {
namespace {

// Collects the SC layers of a network in order.
std::vector<const ScConv2d*> sc_convs(Sequential& net) {
  std::vector<const ScConv2d*> out;
  for (std::size_t i = 0; i < net.layer_count(); ++i)
    if (auto* c = dynamic_cast<const ScConv2d*>(&net.layer(i)))
      out.push_back(c);
  return out;
}

std::vector<const ScLinear*> sc_linears(Sequential& net) {
  std::vector<const ScLinear*> out;
  for (std::size_t i = 0; i < net.layer_count(); ++i)
    if (auto* l = dynamic_cast<const ScLinear*>(&net.layer(i)))
      out.push_back(l);
  return out;
}

TEST(Models, Cnn4StreamLengthAssignment) {
  // CNN-4: conv1 + pool, conv2 + pool, conv3 (no pool), fc (output).
  ScModelConfig cfg = ScModelConfig::stochastic(32, 64);
  Sequential net = make_cnn4(3, 10, cfg, 1);
  auto convs = sc_convs(net);
  ASSERT_EQ(convs.size(), 3u);
  EXPECT_EQ(convs[0]->config().stream_len, 32) << "pooled layer uses sp";
  EXPECT_EQ(convs[1]->config().stream_len, 32);
  EXPECT_EQ(convs[2]->config().stream_len, 64) << "non-pooled layer uses s";
  auto fcs = sc_linears(net);
  ASSERT_EQ(fcs.size(), 1u);
  EXPECT_EQ(fcs[0]->config().stream_len, 128)
      << "output layers always use 128-bit streams (paper Sec. IV)";
}

TEST(Models, LayerSaltsAreDistinct) {
  ScModelConfig cfg = ScModelConfig::stochastic(32, 64);
  Sequential net = make_vgg_slim(3, 10, cfg, 1);
  auto convs = sc_convs(net);
  ASSERT_GE(convs.size(), 2u);
  for (std::size_t i = 1; i < convs.size(); ++i)
    EXPECT_NE(convs[i]->config().layer_salt, convs[0]->config().layer_salt);
}

TEST(Models, StochasticModeQuantizesBatchNorm) {
  ScModelConfig cfg = ScModelConfig::stochastic(32, 64);
  Sequential net = make_cnn4(3, 10, cfg, 1);
  int bn_count = 0;
  for (std::size_t i = 0; i < net.layer_count(); ++i)
    if (net.layer(i).name() == "batchnorm2d") ++bn_count;
  EXPECT_EQ(bn_count, 3) << "BN before every ReLU (Sec. III-B)";
}

// The model name is a std::string, not a const char*: gtest prints a char
// pointer with its address, which would put an address into the test name.
class ModelForwardShapes
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ModelForwardShapes, LogitsShapeForEveryMode) {
  const auto [name, channels] = GetParam();
  for (const ScModelConfig& cfg :
       {ScModelConfig::float_model(), ScModelConfig::fixed_point(4),
        ScModelConfig::stochastic(32, 32)}) {
    Sequential net = make_model(name, channels, 10, cfg, 1);
    const Tensor x({2, channels, 12, 12});
    const Tensor y = net.forward(x, false);
    EXPECT_EQ(y.shape(), (std::vector<int>{2, 10}))
        << name << " mode " << static_cast<int>(cfg.mode);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelForwardShapes,
    ::testing::Values(std::make_tuple(std::string("cnn4"), 3),
                      std::make_tuple(std::string("lenet5"), 1),
                      std::make_tuple(std::string("vgg"), 3)));

TEST(Models, ConfigPropagatesToLayers) {
  ScModelConfig cfg = ScModelConfig::stochastic(16, 32);
  cfg.sharing = sc::Sharing::kExtreme;
  cfg.accum = AccumMode::kPbhw;
  cfg.progressive = true;
  Sequential net = make_cnn4(3, 10, cfg, 1);
  for (const ScConv2d* c : sc_convs(net)) {
    EXPECT_EQ(c->config().sharing, sc::Sharing::kExtreme);
    EXPECT_EQ(c->config().accum, AccumMode::kPbhw);
    EXPECT_TRUE(c->config().progressive);
  }
}

TEST(Models, SeedChangesLayerSalts) {
  ScModelConfig a = ScModelConfig::stochastic(32, 32);
  ScModelConfig b = a;
  b.seed = 2;
  Sequential na = make_cnn4(3, 10, a, 1);
  Sequential nb = make_cnn4(3, 10, b, 1);
  EXPECT_NE(sc_convs(na)[0]->config().layer_salt,
            sc_convs(nb)[0]->config().layer_salt);
}

}  // namespace
}  // namespace geo::nn
