// The GEO instruction set (based on the ACOUSTIC ISA [5] "with minor
// modifications" — the modifications being the 2-cycle near-memory
// read-add-write vector instruction and near-memory batch-norm of
// Sec. III-C).
//
// Instructions carry up to three signed 16-bit immediate operands (larger
// counts are expressed by the compiler as repeated instructions). A Program
// is the compiler's presentation of a plan; it prints as assembly text and
// nothing executes it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace geo::arch {

enum class Opcode : std::uint8_t {
  kNop = 0,
  kConfig,      // arg0 = stream length, arg1 = lfsr bits, arg2 = accum mode
  kLoadWgt,     // arg0 = values to load into weight SNG buffers
  kLoadAct,     // arg0 = values to load into activation SNG buffers
  kGenExec,     // arg0 = stream cycles, arg1 = outputs produced
  kNearMemAcc,  // arg0 = partial sums (16-bit lanes) to read-add-write
  kNearMemBn,   // arg0 = values to batch-normalize near memory
  kPool,        // arg0 = outputs merged by the output-converter neighbor add
  kStoreOut,    // arg0 = output values written back to activation memory
  kLoadExt,     // arg0 = bytes fetched from external memory (LP only)
  kBarrier,     // wait for outstanding loads (ping-pong bank swap)
  kHalt,
};

const char* mnemonic(Opcode op) noexcept;

struct Instruction {
  Opcode op = Opcode::kNop;
  std::int32_t arg0 = 0;
  std::int32_t arg1 = 0;
  std::int32_t arg2 = 0;

  bool operator==(const Instruction&) const = default;

  std::string to_string() const;
};

class Program {
 public:
  void push(Instruction inst) { code_.push_back(inst); }
  void push(Opcode op, std::int32_t a0 = 0, std::int32_t a1 = 0,
            std::int32_t a2 = 0) {
    code_.push_back({op, a0, a1, a2});
  }

  std::size_t size() const noexcept { return code_.size(); }
  bool empty() const noexcept { return code_.empty(); }
  const Instruction& operator[](std::size_t i) const { return code_[i]; }
  const std::vector<Instruction>& instructions() const { return code_; }

  void append(const Program& other) {
    code_.insert(code_.end(), other.code_.begin(), other.code_.end());
  }

  std::string to_text() const;

 private:
  std::vector<Instruction> code_;
};

}  // namespace geo::arch
