#include "ir/verifier.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "analysis/liveness.hpp"
#include "ir/printer.hpp"

namespace asipfb::ir {

namespace {

class FunctionVerifier {
public:
  FunctionVerifier(const Module& module, const Function& fn,
                   std::vector<std::string>& errors)
      : module_(module), fn_(fn), errors_(errors) {}

  void run() {
    // errors_ is shared by the whole module: compare against its size at
    // entry so an earlier function's errors do not skip this one's checks.
    const std::size_t errors_at_entry = errors_.size();
    check_params();
    check_structure();
    // Structure errors make later checks noisy.
    if (errors_.size() != errors_at_entry) return;
    check_instructions();
    // Needs regs in range.
    if (errors_.size() == errors_at_entry) check_definite_assignment();
  }

private:
  void error(std::string message) {
    errors_.push_back("function '" + fn_.name + "': " + std::move(message));
  }

  void error_at(const Instr& instr, std::string message) {
    error(std::move(message) + " in '" + to_string(instr, &module_) + "'");
  }

  [[nodiscard]] bool reg_ok(Reg r) const { return r.id < fn_.reg_types.size(); }

  void check_params() {
    for (Reg p : fn_.params) {
      if (!reg_ok(p)) error("parameter register out of range");
    }
  }

  void check_structure() {
    if (fn_.blocks.empty()) {
      error("no blocks");
      return;
    }
    std::set<InstrId> seen_ids;
    for (std::size_t b = 0; b < fn_.blocks.size(); ++b) {
      const auto& block = fn_.blocks[b];
      if (block.instrs.empty()) {
        error("block " + std::to_string(b) + " is empty");
        continue;
      }
      for (std::size_t i = 0; i < block.instrs.size(); ++i) {
        const Instr& instr = block.instrs[i];
        const bool last = i + 1 == block.instrs.size();
        if (instr.is_terminator() != last) {
          error("block " + std::to_string(b) +
                (last ? " does not end with a terminator"
                      : " has a terminator mid-block"));
        }
        if (instr.id == kNoInstr || !seen_ids.insert(instr.id).second) {
          error("duplicate or unassigned instruction id in block " +
                std::to_string(b));
        }
      }
      for (BlockId s : block.successors()) {
        if (s >= fn_.blocks.size()) {
          error("block " + std::to_string(b) + " branches out of range");
        }
      }
    }
  }

  void expect_type(const Instr& instr, Reg r, Type t, const char* role) {
    if (!reg_ok(r)) {
      error_at(instr, std::string(role) + " register out of range");
      return;
    }
    if (fn_.type_of(r) != t) {
      error_at(instr, std::string(role) + " expected " +
                          std::string(to_string(t)) + ", got " +
                          std::string(to_string(fn_.type_of(r))));
    }
  }

  void expect_args(const Instr& instr, std::size_t n) {
    if (instr.args.size() != n) {
      error_at(instr, "expected " + std::to_string(n) + " operands, got " +
                          std::to_string(instr.args.size()));
    }
  }

  void expect_dst(const Instr& instr, Type t) {
    if (!instr.dst) {
      error_at(instr, "missing destination");
      return;
    }
    expect_type(instr, *instr.dst, t, "destination");
  }

  void expect_no_dst(const Instr& instr) {
    if (instr.dst) error_at(instr, "unexpected destination");
  }

  void check_instructions() {
    for (const auto& block : fn_.blocks) {
      for (const auto& instr : block.instrs) check_instr(instr);
    }
  }

  void check_instr(const Instr& instr) {
    using enum Opcode;
    switch (instr.op) {
      // Integer binary.
      case Add: case Sub: case Mul: case Div: case Rem:
      case Shl: case Shr: case And: case Or: case Xor:
        expect_args(instr, 2);
        if (instr.args.size() == 2) {
          expect_type(instr, instr.args[0], Type::I32, "lhs");
          expect_type(instr, instr.args[1], Type::I32, "rhs");
        }
        expect_dst(instr, Type::I32);
        break;
      case Neg: case Not:
        expect_args(instr, 1);
        if (!instr.args.empty()) expect_type(instr, instr.args[0], Type::I32, "src");
        expect_dst(instr, Type::I32);
        break;
      // Float binary / unary.
      case FAdd: case FSub: case FMul: case FDiv:
        expect_args(instr, 2);
        if (instr.args.size() == 2) {
          expect_type(instr, instr.args[0], Type::F32, "lhs");
          expect_type(instr, instr.args[1], Type::F32, "rhs");
        }
        expect_dst(instr, Type::F32);
        break;
      case FNeg:
        expect_args(instr, 1);
        if (!instr.args.empty()) expect_type(instr, instr.args[0], Type::F32, "src");
        expect_dst(instr, Type::F32);
        break;
      // Comparisons.
      case CmpEq: case CmpNe: case CmpLt: case CmpLe: case CmpGt: case CmpGe:
        expect_args(instr, 2);
        if (instr.args.size() == 2) {
          expect_type(instr, instr.args[0], Type::I32, "lhs");
          expect_type(instr, instr.args[1], Type::I32, "rhs");
        }
        expect_dst(instr, Type::I32);
        break;
      case FCmpEq: case FCmpNe: case FCmpLt: case FCmpLe: case FCmpGt: case FCmpGe:
        expect_args(instr, 2);
        if (instr.args.size() == 2) {
          expect_type(instr, instr.args[0], Type::F32, "lhs");
          expect_type(instr, instr.args[1], Type::F32, "rhs");
        }
        expect_dst(instr, Type::I32);
        break;
      // Conversions.
      case IntToFp:
        expect_args(instr, 1);
        if (!instr.args.empty()) expect_type(instr, instr.args[0], Type::I32, "src");
        expect_dst(instr, Type::F32);
        break;
      case FpToInt:
        expect_args(instr, 1);
        if (!instr.args.empty()) expect_type(instr, instr.args[0], Type::F32, "src");
        expect_dst(instr, Type::I32);
        break;
      // Constants, copies, addresses.
      case MovI:
        expect_args(instr, 0);
        expect_dst(instr, Type::I32);
        break;
      case MovF:
        expect_args(instr, 0);
        expect_dst(instr, Type::F32);
        break;
      case Copy:
        expect_args(instr, 1);
        if (instr.args.empty()) break;
        if (!reg_ok(instr.args[0]) || (instr.dst && !reg_ok(*instr.dst))) {
          error_at(instr, "register out of range");
        } else if (instr.dst && fn_.type_of(instr.args[0]) != fn_.type_of(*instr.dst)) {
          error_at(instr, "copy between mismatched types");
        }
        break;
      case AddrGlobal:
        expect_args(instr, 0);
        expect_dst(instr, Type::I32);
        if (instr.imm_i < 0 ||
            static_cast<std::size_t>(instr.imm_i) >= module_.globals.size()) {
          error_at(instr, "global index out of range");
        }
        break;
      case AddrLocal:
        expect_args(instr, 0);
        expect_dst(instr, Type::I32);
        if (instr.imm_i < 0 ||
            static_cast<std::uint32_t>(instr.imm_i) >= std::max(1u, fn_.frame_words)) {
          error_at(instr, "frame offset out of range");
        }
        break;
      // Memory.
      case Load:
        expect_args(instr, 1);
        if (!instr.args.empty()) expect_type(instr, instr.args[0], Type::I32, "address");
        expect_dst(instr, Type::I32);
        break;
      case FLoad:
        expect_args(instr, 1);
        if (!instr.args.empty()) expect_type(instr, instr.args[0], Type::I32, "address");
        expect_dst(instr, Type::F32);
        break;
      case Store:
        expect_args(instr, 2);
        if (instr.args.size() == 2) {
          expect_type(instr, instr.args[0], Type::I32, "address");
          expect_type(instr, instr.args[1], Type::I32, "value");
        }
        expect_no_dst(instr);
        break;
      case FStore:
        expect_args(instr, 2);
        if (instr.args.size() == 2) {
          expect_type(instr, instr.args[0], Type::I32, "address");
          expect_type(instr, instr.args[1], Type::F32, "value");
        }
        expect_no_dst(instr);
        break;
      // Intrinsics.
      case Intrin: {
        expect_args(instr, 1);
        if (instr.intrinsic == IntrinsicKind::None) {
          error_at(instr, "intrinsic kind not set");
          break;
        }
        const bool integer = instr.intrinsic == IntrinsicKind::IAbs;
        if (!instr.args.empty()) {
          expect_type(instr, instr.args[0], integer ? Type::I32 : Type::F32, "arg");
        }
        expect_dst(instr, integer ? Type::I32 : Type::F32);
        break;
      }
      // Control.
      case Br:
        expect_args(instr, 0);
        expect_no_dst(instr);
        break;
      case CondBr:
        expect_args(instr, 1);
        if (!instr.args.empty()) expect_type(instr, instr.args[0], Type::I32, "condition");
        expect_no_dst(instr);
        break;
      case Ret:
        expect_no_dst(instr);
        if (fn_.return_type == Type::Void) {
          expect_args(instr, 0);
        } else {
          expect_args(instr, 1);
          if (!instr.args.empty()) {
            expect_type(instr, instr.args[0], fn_.return_type, "return value");
          }
        }
        break;
      case Call: {
        if (instr.callee >= module_.functions.size()) {
          error_at(instr, "callee out of range");
          break;
        }
        const Function& callee = module_.functions[instr.callee];
        if (instr.args.size() != callee.params.size()) {
          error_at(instr, "call argument count mismatch");
          break;
        }
        for (std::size_t i = 0; i < instr.args.size(); ++i) {
          expect_type(instr, instr.args[i], callee.type_of(callee.params[i]),
                      "call argument");
        }
        if (instr.dst) {
          if (callee.return_type == Type::Void) {
            error_at(instr, "capturing result of void call");
          } else {
            expect_type(instr, *instr.dst, callee.return_type, "call result");
          }
        }
        break;
      }
    }
  }

  // A register is used undefined where a path that starts with only the
  // parameters defined (at the entry, or at a block no edge reaches) arrives
  // at a read of it before any write.  Such a path runs through blocks the
  // register is live into, so walk those forward from the start blocks,
  // leaving a block only when it does not write the register.
  void check_definite_assignment() {
    const analysis::Liveness liveness(fn_);
    std::vector<bool> start(fn_.blocks.size(), true);
    for (const auto& block : fn_.blocks) {
      for (BlockId s : block.successors()) start[s] = false;
    }
    start[0] = true;

    // Per block, the registers the walk reaches it with, ascending.
    std::vector<std::vector<std::uint32_t>> undefined(fn_.blocks.size());
    std::vector<BlockId> work;
    for (std::uint32_t r = 0; r < fn_.reg_types.size(); ++r) {
      const Reg reg{r};
      if (std::find(fn_.params.begin(), fn_.params.end(), reg) != fn_.params.end()) continue;
      const auto visit = [&](BlockId b) {
        if (!undefined[b].empty() && undefined[b].back() == r) return;
        undefined[b].push_back(r);
        work.push_back(b);
      };
      for (BlockId b : liveness.live_in_blocks(reg)) {
        if (start[b]) visit(b);
      }
      while (!work.empty()) {
        const BlockId b = work.back();
        work.pop_back();
        if (liveness.defines(b, reg)) continue;
        for (BlockId s : fn_.blocks[b].successors()) {
          if (liveness.live_in(s, reg)) visit(s);
        }
      }
    }

    for (std::size_t b = 0; b < fn_.blocks.size(); ++b) {
      auto& regs = undefined[b];
      // Drops `r` from `regs`; true when it was there.
      const auto take = [&](Reg r) {
        const auto it = std::lower_bound(regs.begin(), regs.end(), r.id);
        if (it == regs.end() || *it != r.id) return false;
        regs.erase(it);
        return true;
      };
      for (const auto& instr : fn_.blocks[b].instrs) {
        if (regs.empty()) break;
        for (Reg a : instr.args) {
          if (take(a)) {  // Reported once per block.
            error_at(instr, "use of possibly-undefined register r" + std::to_string(a.id));
          }
        }
        if (instr.dst) take(*instr.dst);
      }
    }
  }

  const Module& module_;
  const Function& fn_;
  std::vector<std::string>& errors_;
};

}  // namespace

std::vector<std::string> verify(const Module& module) {
  std::vector<std::string> errors;
  for (const auto& fn : module.functions) {
    FunctionVerifier(module, fn, errors).run();
  }
  return errors;
}

void verify_or_throw(const Module& module) {
  const auto errors = verify(module);
  if (errors.empty()) return;
  std::string message = "IR verification failed for module '" + module.name + "':";
  for (const auto& e : errors) {
    message += "\n  " + e;
  }
  throw std::logic_error(message);
}

}  // namespace asipfb::ir
