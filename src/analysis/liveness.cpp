#include "analysis/liveness.hpp"

#include <iterator>

namespace asipfb::analysis {

using ir::BlockId;

namespace {

enum : std::uint8_t { kFree = 0, kDefines = 1, kLive = 2 };

/// Adds `block` to or removes it from the ascending list `blocks`.
void set_member(std::vector<BlockId>& blocks, BlockId block, bool member) {
  const auto it = std::lower_bound(blocks.begin(), blocks.end(), block);
  const bool present = it != blocks.end() && *it == block;
  if (member && !present) blocks.insert(it, block);
  if (!member && present) blocks.erase(it);
}

}  // namespace

Liveness::Liveness(const ir::Function& fn)
    : uses_(fn.reg_types.size()),
      defs_(fn.reg_types.size()),
      live_in_(fn.reg_types.size()),
      mark_(fn.blocks.size(), kFree) {
  succs_.reserve(fn.blocks.size());
  preds_.resize(fn.blocks.size());
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    const auto block = static_cast<BlockId>(b);
    succs_.push_back(fn.blocks[b].successors());
    for (BlockId s : succs_[b]) preds_[s].push_back(block);
    // Lists fill in block order, so a list holds `block` iff it ends with it.
    const auto has = [&](const auto& list) { return !list.empty() && list.back() == block; };
    for (const auto& instr : fn.blocks[b].instrs) {
      for (ir::Reg a : instr.args) {
        if (!has(defs_[a.id]) && !has(uses_[a.id])) uses_[a.id].push_back(block);
      }
      if (instr.dst && !has(defs_[instr.dst->id])) defs_[instr.dst->id].push_back(block);
    }
  }
  for (std::uint32_t r = 0; r < live_in_.size(); ++r) solve(r);
}

void Liveness::solve(std::uint32_t reg) {
  auto& in = live_in_[reg];
  in.assign(uses_[reg].begin(), uses_[reg].end());
  for (BlockId b : defs_[reg]) mark_[b] = kDefines;
  for (BlockId b : in) mark_[b] = kLive;
  // `in` doubles as the worklist: every block on it is live-in, so each of
  // its predecessors is live-out and, unless it writes `reg`, live-in too.
  for (std::size_t i = 0; i < in.size(); ++i) {
    for (BlockId p : preds_[in[i]]) {
      if (mark_[p] != kFree) continue;
      mark_[p] = kLive;
      in.push_back(p);
    }
  }
  for (BlockId b : in) mark_[b] = kFree;
  for (BlockId b : defs_[reg]) mark_[b] = kFree;
  std::sort(in.begin(), in.end());
}

std::vector<BlockId> Liveness::update(const ir::Function& fn,
                                      std::span<const BlockId> edited,
                                      std::span<const ir::Reg> regs) {
  std::vector<BlockId> changed;
  for (ir::Reg reg : regs) {
    for (BlockId b : edited) {
      bool reads = false;
      bool writes = false;
      for (const auto& instr : fn.blocks[b].instrs) {
        const auto& args = instr.args;
        reads = reads || std::find(args.begin(), args.end(), reg) != args.end();
        writes = instr.dst == reg;
        if (writes) break;
      }
      set_member(uses_[reg.id], b, reads);
      set_member(defs_[reg.id], b, writes);
    }
    const auto before = std::move(live_in_[reg.id]);
    solve(reg.id);
    const auto& after = live_in_[reg.id];
    std::set_symmetric_difference(before.begin(), before.end(), after.begin(),
                                  after.end(), std::back_inserter(changed));
  }
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  return changed;
}

}  // namespace asipfb::analysis
