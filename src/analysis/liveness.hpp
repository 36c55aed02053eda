// Per-register liveness: a register is live into the blocks that reach a
// read of it before any write, found by backward reachability from the
// blocks that read it before writing it, stopping at blocks that write it.
// Time and storage follow live ranges rather than blocks x registers.
//
// Used by percolation scheduling (an op may only be hoisted above a branch
// when its destination is dead along the other edge), register renaming and
// the verifier's definite-assignment check.  The scheduler refreshes one
// Liveness with update() after each motion.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "ir/function.hpp"

namespace asipfb::analysis {

class Liveness {
public:
  explicit Liveness(const ir::Function& fn);

  /// True when `reg` is live on entry to `block`.
  [[nodiscard]] bool live_in(ir::BlockId block, ir::Reg reg) const {
    return std::binary_search(live_in_[reg.id].begin(), live_in_[reg.id].end(), block);
  }

  /// True when `reg` is live on exit from `block`: live into a successor.
  [[nodiscard]] bool live_out(ir::BlockId block, ir::Reg reg) const {
    return std::any_of(succs_[block].begin(), succs_[block].end(),
                       [&](ir::BlockId s) { return live_in(s, reg); });
  }

  /// The blocks `reg` is live into, ascending.
  [[nodiscard]] std::span<const ir::BlockId> live_in_blocks(ir::Reg reg) const {
    return live_in_[reg.id];
  }

  /// True when `block` writes `reg`.
  [[nodiscard]] bool defines(ir::BlockId block, ir::Reg reg) const {
    return std::binary_search(defs_[reg.id].begin(), defs_[reg.id].end(), block);
  }

  /// Brings the sets up to date after instructions moved between the
  /// `edited` blocks of `fn` without changing its CFG.  Only `regs` may have
  /// changed use/def status, so only their lists are re-derived and their
  /// liveness solved again, which equals a fresh Liveness(fn); patching the
  /// old sets in place could stall at a larger fixpoint around a loop back
  /// edge.  Returns the blocks whose live-in set changed, ascending.
  std::vector<ir::BlockId> update(const ir::Function& fn,
                                  std::span<const ir::BlockId> edited,
                                  std::span<const ir::Reg> regs);

private:
  /// Recomputes live_in_[reg] from uses_[reg] and defs_[reg].
  void solve(std::uint32_t reg);

  std::vector<std::vector<ir::BlockId>> succs_;  ///< Per block.
  std::vector<std::vector<ir::BlockId>> preds_;  ///< Per block.
  // Per register, ascending block ids:
  std::vector<std::vector<ir::BlockId>> uses_;     ///< Blocks reading it before any write.
  std::vector<std::vector<ir::BlockId>> defs_;     ///< Blocks writing it.
  std::vector<std::vector<ir::BlockId>> live_in_;  ///< Blocks it is live into.
  std::vector<std::uint8_t> mark_;  ///< Per block scratch for solve(); zero between calls.
};

}  // namespace asipfb::analysis
