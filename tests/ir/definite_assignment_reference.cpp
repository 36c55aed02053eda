#include "tests/ir/definite_assignment_reference.hpp"

#include "ir/printer.hpp"

namespace asipfb::ir::reference {

namespace {

// Forward dataflow: the set of registers definitely assigned on entry to
// each block is the intersection over predecessors of (entry + defs).
// Any use outside the definitely-assigned set is reported.
void check_function(const Module& module, const Function& fn,
                    std::vector<std::string>& errors) {
  const std::size_t nregs = fn.reg_types.size();
  const std::size_t nblocks = fn.blocks.size();
  std::vector<std::vector<bool>> in(nblocks, std::vector<bool>(nregs, true));
  std::vector<bool> entry_in(nregs, false);
  for (Reg p : fn.params) entry_in[p.id] = true;
  in[0] = entry_in;

  std::vector<std::vector<BlockId>> preds(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) {
    for (BlockId s : fn.blocks[b].successors()) {
      preds[s].push_back(static_cast<BlockId>(b));
    }
  }

  auto block_out = [&](std::size_t b, const std::vector<bool>& block_in) {
    std::vector<bool> out = block_in;
    for (const auto& instr : fn.blocks[b].instrs) {
      if (instr.dst) out[instr.dst->id] = true;
    }
    return out;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t b = 0; b < nblocks; ++b) {
      std::vector<bool> new_in;
      if (b == 0 || preds[b].empty()) {
        new_in = entry_in;
      } else {
        new_in.assign(nregs, true);
        for (BlockId p : preds[b]) {
          const auto out = block_out(p, in[p]);
          for (std::size_t r = 0; r < nregs; ++r) {
            new_in[r] = new_in[r] && out[r];
          }
        }
      }
      if (new_in != in[b]) {
        in[b] = std::move(new_in);
        changed = true;
      }
    }
  }

  for (std::size_t b = 0; b < nblocks; ++b) {
    std::vector<bool> defined = in[b];
    for (const auto& instr : fn.blocks[b].instrs) {
      for (Reg a : instr.args) {
        if (!defined[a.id]) {
          errors.push_back("function '" + fn.name +
                           "': use of possibly-undefined register r" +
                           std::to_string(a.id) + " in '" +
                           to_string(instr, &module) + "'");
          defined[a.id] = true;  // Report each register once per block.
        }
      }
      if (instr.dst) defined[instr.dst->id] = true;
    }
  }
}

}  // namespace

std::vector<std::string> definite_assignment_errors(const Module& module) {
  std::vector<std::string> errors;
  for (const auto& fn : module.functions) check_function(module, fn, errors);
  return errors;
}

}  // namespace asipfb::ir::reference
