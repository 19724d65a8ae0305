#include "arch/isa.hpp"

#include <array>
#include <sstream>

namespace geo::arch {

namespace {
constexpr std::array<const char*, 12> kMnemonics = {
    "nop",    "config",  "loadwgt", "loadact", "genexec", "nmacc",
    "nmbn",   "pool",    "storeout", "loadext", "barrier", "halt",
};
}

const char* mnemonic(Opcode op) noexcept {
  const auto i = static_cast<std::size_t>(op);
  return i < kMnemonics.size() ? kMnemonics[i] : "?";
}

std::string Instruction::to_string() const {
  std::ostringstream os;
  os << mnemonic(op);
  if (arg0 != 0 || arg1 != 0 || arg2 != 0) os << ' ' << arg0;
  if (arg1 != 0 || arg2 != 0) os << ' ' << arg1;
  if (arg2 != 0) os << ' ' << arg2;
  return os.str();
}

std::string Program::to_text() const {
  std::string out;
  for (const auto& inst : code_) {
    out += inst.to_string();
    out += '\n';
  }
  return out;
}

}  // namespace geo::arch
