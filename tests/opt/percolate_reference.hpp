// Test-only reference for the percolation scheduler: the restart-from-block-0
// hoisting loop that opt::percolate replaced, and an opt::optimize mirror
// that runs it.  opt::percolate must reproduce its hoists in the same order.
#pragma once

#include "ir/function.hpp"
#include "opt/optimizer.hpp"
#include "opt/percolate.hpp"

namespace asipfb::opt::reference {

PercolationStats percolate(ir::Function& fn, const PercolationOptions& options = {});

/// opt::optimize with reference::percolate in place of opt::percolate.
OptimizeStats optimize(ir::Module& module, OptLevel level,
                       const OptimizeOptions& options = {});

}  // namespace asipfb::opt::reference
