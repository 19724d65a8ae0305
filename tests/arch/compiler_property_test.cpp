// Randomized invariants of the layer compiler across a swept shape space:
// whatever the layer, the plan must cover all outputs, account access
// counts consistently, and preserve the dataflow cost ordering the paper's
// Sec. III-C argues from.
#include <gtest/gtest.h>

#include <map>
#include <random>

#include "arch/compiler.hpp"
#include "arch/perf_sim.hpp"

namespace geo::arch {
namespace {

struct ShapeCase {
  ConvShape shape;
  HwConfig hw;
};

std::vector<ShapeCase> sweep_cases() {
  std::vector<ShapeCase> cases;
  std::mt19937 rng(2024);
  std::uniform_int_distribution<int> cin_dist(1, 96);
  std::uniform_int_distribution<int> size_dist(4, 32);
  std::uniform_int_distribution<int> cout_dist(1, 160);
  std::uniform_int_distribution<int> kernel_pick(0, 2);
  std::bernoulli_distribution pool_dist(0.4);
  std::bernoulli_distribution lp_dist(0.3);
  const int kernels[] = {1, 3, 5};
  for (int i = 0; i < 40; ++i) {
    const int k = kernels[kernel_pick(rng)];
    ShapeCase c{ConvShape::conv("sweep" + std::to_string(i), cin_dist(rng),
                                size_dist(rng), cout_dist(rng), k, k / 2,
                                pool_dist(rng)),
                lp_dist(rng) ? HwConfig::lp() : HwConfig::ulp()};
    cases.push_back(c);
  }
  // Plus FC layers.
  for (int i = 0; i < 8; ++i)
    cases.push_back({ConvShape::fc("fc" + std::to_string(i),
                                   16 << i % 6, 10 + 13 * i, i % 2 == 0),
                     HwConfig::ulp()});
  return cases;
}

TEST(CompilerProperty, PlansCoverAllOutputsForEveryShape) {
  for (const auto& c : sweep_cases()) {
    const Compiler compiler(c.hw);
    const LayerPlan plan =
        compiler.plan_layer(c.shape, Dataflow::kWeightStationary);
    // passes x (channels x windows per pass) must cover every output at
    // least kernel_slices times.
    const std::int64_t chans =
        std::min<std::int64_t>(c.shape.cout, c.hw.rows);
    const std::int64_t covered =
        plan.passes * chans * plan.windows_per_pass;
    EXPECT_GE(covered, c.shape.outputs() * plan.kernel_slices)
        << c.shape.name;
    EXPECT_GT(plan.passes, 0) << c.shape.name;
    EXPECT_GE(plan.kernel_slices, 1) << c.shape.name;
  }
}

TEST(CompilerProperty, AccessCountsSaneForEveryShape) {
  for (const auto& c : sweep_cases()) {
    const Compiler compiler(c.hw);
    for (Dataflow df : {Dataflow::kWeightStationary,
                        Dataflow::kOutputStationary,
                        Dataflow::kInputStationary}) {
      const LayerPlan plan = compiler.plan_layer(c.shape, df);
      const AccessCounts& a = plan.accesses;
      EXPECT_GE(a.wgt_reads, c.shape.weights())
          << c.shape.name << " " << to_string(df)
          << ": every weight is read at least once";
      EXPECT_GE(a.act_reads, c.shape.activations())
          << c.shape.name << " " << to_string(df);
      EXPECT_GT(a.act_writes, 0) << c.shape.name;
      EXPECT_EQ(a.psum_reads, a.psum_writes) << "read-add-write pairs";
      EXPECT_GE(a.total(), a.act_memory_total());
    }
  }
}

TEST(CompilerProperty, WeightStationaryNeverWorseOnWeightTraffic) {
  for (const auto& c : sweep_cases()) {
    const Compiler compiler(c.hw);
    const auto ws =
        compiler.plan_layer(c.shape, Dataflow::kWeightStationary);
    const auto os =
        compiler.plan_layer(c.shape, Dataflow::kOutputStationary);
    const auto is =
        compiler.plan_layer(c.shape, Dataflow::kInputStationary);
    EXPECT_LE(ws.accesses.wgt_reads, os.accesses.wgt_reads) << c.shape.name;
    EXPECT_LE(ws.accesses.wgt_reads, is.accesses.wgt_reads) << c.shape.name;
  }
}

TEST(CompilerProperty, PsumTrafficOnlyWhenKernelSliced) {
  for (const auto& c : sweep_cases()) {
    const Compiler compiler(c.hw);
    const auto ws =
        compiler.plan_layer(c.shape, Dataflow::kWeightStationary);
    if (ws.kernel_slices > 1) {
      EXPECT_GT(ws.accesses.psum_reads, 0) << c.shape.name;
    } else {
      EXPECT_EQ(ws.accesses.psum_reads, 0) << c.shape.name;
    }
  }
}

TEST(CompilerProperty, PerfSimFiniteForEveryShape) {
  for (const auto& c : sweep_cases()) {
    NetworkShape net;
    net.name = c.shape.name;
    net.layers = {c.shape};
    const PerfResult r = PerfSim(c.hw).simulate(net);
    EXPECT_GT(r.cycles, 0) << c.shape.name;
    EXPECT_GT(r.energy_per_frame_j, 0) << c.shape.name;
    EXPECT_TRUE(std::isfinite(r.frames_per_second)) << c.shape.name;
    EXPECT_TRUE(std::isfinite(r.average_power_w)) << c.shape.name;
  }
}

TEST(CompilerProperty, MoreRowsNeverMoreComputeCycles) {
  // Fabric monotonicity holds for *compute* cycles (fewer passes). Total
  // latency is not monotone: wider passes need more buffer-fill bandwidth,
  // so stalls can grow — a real effect the reload model captures.
  for (const auto& c : sweep_cases()) {
    HwConfig big = c.hw;
    big.rows *= 2;
    NetworkShape net;
    net.layers = {c.shape};
    auto compute_cycles = [&](const HwConfig& hw) {
      double total = 0;
      for (const auto& l : PerfSim(hw).simulate(net).layers)
        total += l.compute_cycles;
      return total;
    };
    EXPECT_LE(compute_cycles(big), compute_cycles(c.hw) * 1.001)
        << c.shape.name;
  }
}

TEST(CompilerProperty, ProgramsAlwaysWellFormed) {
  std::vector<ShapeCase> cases = sweep_cases();
  // LP VGG-16 streams up to 2.4 MB of weights per layer, far past one
  // 16-bit operand.
  for (const auto& layer : NetworkShape::vgg16().layers)
    cases.push_back({layer, HwConfig::lp()});
  for (const auto& c : cases) {
    const Compiler compiler(c.hw);
    const LayerPlan plan =
        compiler.plan_layer(c.shape, compiler.natural_dataflow());
    ASSERT_FALSE(plan.program.empty()) << c.shape.name;
    EXPECT_EQ(plan.program[0].op, Opcode::kConfig);
    EXPECT_EQ(plan.program.instructions().back().op, Opcode::kHalt);
    // Every operand fits a signed 16-bit immediate.
    for (std::size_t i = 0; i < plan.program.size(); ++i)
      for (const std::int32_t arg :
           {plan.program[i].arg0, plan.program[i].arg1, plan.program[i].arg2})
        EXPECT_TRUE(arg >= -32768 && arg <= 32767)
            << c.shape.name << " inst " << i << ": " << arg;
    // A count too large for one operand is split over repeated
    // instructions, so each op's operands sum to the plan's count.
    std::map<Opcode, std::int64_t> sums;
    for (const Instruction& inst : plan.program.instructions())
      sums[inst.op] += inst.arg0;
    const std::int64_t outputs_per_pass =
        std::min<std::int64_t>(c.shape.cout, c.hw.rows) *
        plan.windows_per_pass;
    EXPECT_EQ(sums[Opcode::kLoadExt], plan.accesses.ext_bytes)
        << c.shape.name;
    EXPECT_EQ(sums[Opcode::kLoadWgt], plan.wgt_loads_per_pass)
        << c.shape.name;
    EXPECT_EQ(sums[Opcode::kLoadAct], plan.act_loads_per_pass)
        << c.shape.name;
    EXPECT_EQ(sums[Opcode::kNearMemAcc],
              plan.nm_psum_ops > 0 ? outputs_per_pass : 0)
        << c.shape.name;
  }
}

}  // namespace
}  // namespace geo::arch
