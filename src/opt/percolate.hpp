// Percolation scheduling (Nicolau 1985 / Potasman 1991, move-op core).
//
// Repeatedly (a) merges single-entry straight-line block chains and
// (b) hoists pure (and, optionally, load) operations from a block into its
// unique predecessor across that predecessor's conditional branch
// (speculation), subject to dependence and liveness legality.  The effect on
// the program graph matches the paper's use of the UCI VLIW compiler: data
// flow that crosses basic-block boundaries in the sequential code becomes
// visible inside one scheduling region.
//
// Hoisting order is deterministic and fixed: always from the lowest-index
// block that has a movable operation, re-evaluated after every motion.
// The implementation keeps a worklist of blocks whose movable set may have
// changed (a clean block provably has none) and updates liveness
// incrementally, so a motion costs one CFG walk per register it moves
// instead of a whole-function liveness rebuild and rescan; percolate.cpp
// states the invariant.
#pragma once

#include "ir/function.hpp"

namespace asipfb::opt {

struct PercolationOptions {
  int max_passes = 64;         ///< Fixpoint iteration budget.
  bool speculate = true;       ///< Allow hoisting above conditional branches.
  bool speculate_loads = true; ///< Loads may speculate (sim gives OOB reads 0).
  /// When true (the no-renaming configuration), an op only moves if every
  /// in-block consumer of its result moves with it, so producer-consumer
  /// chains stay co-located.  With register renaming the historical
  /// compilers moved ops individually "as high as possible" — set false —
  /// which is exactly the chain-eroding behaviour the paper reports.
  bool chain_preserving = true;
};

struct PercolationStats {
  int blocks_merged = 0;  ///< Straight-line merges performed.
  int ops_hoisted = 0;    ///< Operations speculated above a branch.
  int passes = 0;         ///< Iterations until fixpoint (or budget).
};

PercolationStats percolate(ir::Function& fn, const PercolationOptions& options = {});

}  // namespace asipfb::opt
