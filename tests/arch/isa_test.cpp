#include "arch/isa.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace geo::arch {
namespace {

constexpr Opcode kAllOpcodes[] = {
    Opcode::kNop,       Opcode::kConfig,     Opcode::kLoadWgt,
    Opcode::kLoadAct,   Opcode::kGenExec,    Opcode::kNearMemAcc,
    Opcode::kNearMemBn, Opcode::kPool,       Opcode::kStoreOut,
    Opcode::kLoadExt,   Opcode::kBarrier,    Opcode::kHalt,
};

TEST(Instruction, ToStringPrintsMnemonicAndOperands) {
  EXPECT_EQ((Instruction{Opcode::kGenExec, 256, 512, 0}).to_string(),
            "genexec 256 512");
  EXPECT_EQ((Instruction{Opcode::kLoadWgt, 50, 0, 0}).to_string(),
            "loadwgt 50");
  EXPECT_EQ((Instruction{Opcode::kBarrier, 0, 0, 0}).to_string(), "barrier");
  EXPECT_EQ((Instruction{Opcode::kConfig, 64, 6, 1}).to_string(),
            "config 64 6 1");
  EXPECT_EQ((Instruction{Opcode::kNearMemAcc, 0, 0, -3}).to_string(),
            "nmacc 0 0 -3");
}

TEST(Instruction, ToStringOmitsOnlyTrailingZeroOperands) {
  // For every opcode and 16-bit boundary value in every slot, the text is
  // the mnemonic followed by the operands up to the last non-zero one.
  for (const Opcode op : kAllOpcodes)
    for (const std::int32_t v : {1, -1, 32767, -32768})
      for (int slot = 0; slot < 3; ++slot) {
        Instruction inst{op, 0, 0, 0};
        (slot == 0 ? inst.arg0 : slot == 1 ? inst.arg1 : inst.arg2) = v;
        std::istringstream is(inst.to_string());
        std::string name;
        is >> name;
        EXPECT_EQ(name, mnemonic(op));
        std::vector<std::int32_t> args;
        for (std::int32_t a = 0; is >> a;) args.push_back(a);
        const std::vector<std::int32_t> want(
            {inst.arg0, inst.arg1, inst.arg2});
        EXPECT_EQ(args, std::vector<std::int32_t>(
                            want.begin(), want.begin() + slot + 1))
            << inst.to_string();
      }
}

TEST(Program, ToTextPrintsOneLinePerInstruction) {
  Program p;
  p.push(Opcode::kConfig, 128, 7, 1);
  p.push(Opcode::kLoadWgt, 50);
  p.push(Opcode::kBarrier);
  p.push(Opcode::kHalt);
  EXPECT_EQ(p.to_text(), "config 128 7 1\nloadwgt 50\nbarrier\nhalt\n");
}

TEST(Program, Append) {
  Program a, b;
  a.push(Opcode::kLoadWgt, 1);
  b.push(Opcode::kHalt);
  a.append(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a[1].op, Opcode::kHalt);
}

TEST(Mnemonics, AllDistinct) {
  std::set<std::string> names;
  for (const Opcode op : kAllOpcodes) {
    EXPECT_STRNE(mnemonic(op), "?");
    EXPECT_TRUE(names.insert(mnemonic(op)).second) << mnemonic(op);
  }
}

TEST(IsaProperty, MnemonicsAreUniqueAndParseBack) {
  // The mnemonic table is invertible, so the first word of every printed
  // line names exactly one opcode: the one that printed it.
  std::map<std::string, Opcode> by_name;
  for (const Opcode op : kAllOpcodes)
    EXPECT_TRUE(by_name.emplace(mnemonic(op), op).second) << mnemonic(op);
  Program p;
  for (const Opcode op : kAllOpcodes) p.push(op, 1, -1, 32767);
  std::istringstream text(p.to_text());
  std::size_t i = 0;
  for (std::string line; std::getline(text, line); ++i) {
    ASSERT_LT(i, p.size());
    const std::string name = line.substr(0, line.find(' '));
    ASSERT_EQ(by_name.count(name), 1u) << line;
    EXPECT_EQ(by_name.at(name), p[i].op) << line;
  }
  EXPECT_EQ(i, p.size());
}

}  // namespace
}  // namespace geo::arch
