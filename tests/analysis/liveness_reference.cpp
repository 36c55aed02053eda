#include "tests/analysis/liveness_reference.hpp"

namespace asipfb::analysis::reference {

DenseLiveness::DenseLiveness(const ir::Function& fn) {
  const std::size_t nblocks = fn.blocks.size();
  const std::size_t nregs = fn.reg_types.size();
  live_in_.assign(nblocks, std::vector<bool>(nregs, false));
  live_out_.assign(nblocks, std::vector<bool>(nregs, false));
  std::vector<std::vector<bool>> use(nblocks, std::vector<bool>(nregs, false));
  std::vector<std::vector<bool>> def(nblocks, std::vector<bool>(nregs, false));
  for (std::size_t b = 0; b < nblocks; ++b) {
    for (const auto& instr : fn.blocks[b].instrs) {
      for (ir::Reg a : instr.args) {
        if (!def[b][a.id]) use[b][a.id] = true;
      }
      if (instr.dst) def[b][instr.dst->id] = true;
    }
  }

  bool changed = true;
  while (changed) {
    changed = false;
    // Iterate blocks in reverse index order as a cheap approximation of
    // post-order; the loop runs to fixpoint regardless.
    for (std::size_t bi = nblocks; bi-- > 0;) {
      const auto& block = fn.blocks[bi];
      std::vector<bool> out(nregs, false);
      for (ir::BlockId s : block.successors()) {
        for (std::size_t r = 0; r < nregs; ++r) {
          if (live_in_[s][r]) out[r] = true;
        }
      }
      std::vector<bool> in = use[bi];
      for (std::size_t r = 0; r < nregs; ++r) {
        if (out[r] && !def[bi][r]) in[r] = true;
      }
      if (in != live_in_[bi] || out != live_out_[bi]) {
        live_in_[bi] = std::move(in);
        live_out_[bi] = std::move(out);
        changed = true;
      }
    }
  }
}

}  // namespace asipfb::analysis::reference
