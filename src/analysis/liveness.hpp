// Per-block register liveness (backward dataflow).
//
// Used by percolation scheduling to validate speculative motion: an
// instruction may only be hoisted above a branch when its destination is not
// live along the branch's other edge.  The scheduler keeps one Liveness per
// pass and refreshes it with update() after each motion instead of
// rebuilding it.
#pragma once

#include <span>
#include <vector>

#include "ir/function.hpp"

namespace asipfb::analysis {

class Liveness {
public:
  explicit Liveness(const ir::Function& fn);

  /// True when `reg` is live on entry to `block`.
  [[nodiscard]] bool live_in(ir::BlockId block, ir::Reg reg) const {
    return live_in_[block][reg.id];
  }

  /// True when `reg` is live on exit from `block`.
  [[nodiscard]] bool live_out(ir::BlockId block, ir::Reg reg) const {
    return live_out_[block][reg.id];
  }

  [[nodiscard]] const std::vector<bool>& live_in_set(ir::BlockId block) const {
    return live_in_[block];
  }

  /// Brings the sets up to date after instructions moved between the
  /// `edited` blocks of `fn` without changing its CFG (`preds` is
  /// analysis::predecessors(fn)).  Only `regs` may have changed use/def
  /// status, so only their liveness is recomputed: per register, live-in is
  /// backward reachability from the blocks that read it before writing it,
  /// stopping at blocks that write it.  That is the least fixpoint the
  /// constructor computes, so the result equals a fresh Liveness(fn); an
  /// in-place patch of the old bits could instead stall at a larger
  /// fixpoint around a loop back edge.  Returns the blocks whose live-in
  /// set changed, ascending.
  std::vector<ir::BlockId> update(const ir::Function& fn,
                                  const std::vector<std::vector<ir::BlockId>>& preds,
                                  std::span<const ir::BlockId> edited,
                                  std::span<const ir::Reg> regs);

private:
  void compute_use_def(const ir::Function& fn, std::size_t block);

  std::vector<std::vector<bool>> live_in_;
  std::vector<std::vector<bool>> live_out_;
  std::vector<std::vector<bool>> use_;  ///< Read before any write in the block.
  std::vector<std::vector<bool>> def_;  ///< Written in the block.
};

}  // namespace asipfb::analysis
