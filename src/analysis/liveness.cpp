#include "analysis/liveness.hpp"

#include <algorithm>

namespace asipfb::analysis {

Liveness::Liveness(const ir::Function& fn) {
  const std::size_t nblocks = fn.blocks.size();
  const std::size_t nregs = fn.reg_types.size();
  live_in_.assign(nblocks, std::vector<bool>(nregs, false));
  live_out_.assign(nblocks, std::vector<bool>(nregs, false));
  use_.assign(nblocks, std::vector<bool>(nregs, false));
  def_.assign(nblocks, std::vector<bool>(nregs, false));
  for (std::size_t b = 0; b < nblocks; ++b) compute_use_def(fn, b);

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
      std::vector<bool> in = use_[bi];
      for (std::size_t r = 0; r < nregs; ++r) {
        if (out[r] && !def_[bi][r]) in[r] = true;
      }
      if (in != live_in_[bi] || out != live_out_[bi]) {
        live_in_[bi] = std::move(in);
        live_out_[bi] = std::move(out);
        changed = true;
      }
    }
  }
}

void Liveness::compute_use_def(const ir::Function& fn, std::size_t block) {
  auto& use = use_[block];
  auto& def = def_[block];
  std::fill(use.begin(), use.end(), false);
  std::fill(def.begin(), def.end(), false);
  for (const auto& instr : fn.blocks[block].instrs) {
    for (ir::Reg a : instr.args) {
      if (!def[a.id]) use[a.id] = true;
    }
    if (instr.dst) def[instr.dst->id] = true;
  }
}

std::vector<ir::BlockId> Liveness::update(
    const ir::Function& fn, const std::vector<std::vector<ir::BlockId>>& preds,
    std::span<const ir::BlockId> edited, std::span<const ir::Reg> regs) {
  for (ir::BlockId b : edited) compute_use_def(fn, b);

  const std::size_t nblocks = live_in_.size();
  std::vector<bool> changed(nblocks, false);
  std::vector<bool> in(nblocks);
  std::vector<ir::BlockId> work;
  for (ir::Reg reg : regs) {
    const std::uint32_t r = reg.id;
    work.clear();
    for (std::size_t b = 0; b < nblocks; ++b) {
      in[b] = use_[b][r];
      if (in[b]) work.push_back(static_cast<ir::BlockId>(b));
      live_out_[b][r] = false;
    }
    while (!work.empty()) {
      const ir::BlockId b = work.back();
      work.pop_back();
      for (ir::BlockId p : preds[b]) {
        live_out_[p][r] = true;
        if (!in[p] && !def_[p][r]) {
          in[p] = true;
          work.push_back(p);
        }
      }
    }
    for (std::size_t b = 0; b < nblocks; ++b) {
      if (live_in_[b][r] != in[b]) {
        live_in_[b][r] = in[b];
        changed[b] = true;
      }
    }
  }

  std::vector<ir::BlockId> result;
  for (std::size_t b = 0; b < nblocks; ++b) {
    if (changed[b]) result.push_back(static_cast<ir::BlockId>(b));
  }
  return result;
}

}  // namespace asipfb::analysis
